(* Benchmark and reproduction harness.

   `dune exec bench/main.exe` regenerates, in order:
     1. every figure of the paper (Fig. 1a/1b, 1c, 2a, 2b, 2c), printed
        as ASCII charts with paper-vs-measured summary rows;
     2. "Table 1": the congestion-control x default-path convergence
        sweep condensing the paper's prose results;
     3. the ablations DESIGN.md calls out (buffer size, queue discipline,
        scheduler, single-path baselines);
     4. micro-benchmarks of the hot components (bench/micro.ml).

   Independent simulations run on a `--jobs N` domain pool (default:
   `Domain.recommended_domain_count`); every grid is printed from
   order-preserved results, so the output is byte-identical to a serial
   run.  A machine-readable summary (micro-benchmark estimates plus the
   wall clock of each phase) is written to `BENCH_results.json` so
   successive revisions leave a perf trajectory.

   `dune exec bench/main.exe -- --quick` trims the sweeps for CI use. *)

(* The eight flags, each under its names and with the name of its value
   if it takes one.  argv is checked against them once, up front: an
   argument none of them names (say, a flag an older harness had)
   prints the usage and exits 2 rather than being ignored. *)
let flags =
  [ ([ "--quick"; "-q" ], None); ([ "--jobs"; "-j" ], Some "N");
    ([ "--bench-json" ], Some "PATH"); ([ "--profile" ], None);
    ([ "--gate" ], None); ([ "--baseline" ], Some "PATH");
    ([ "--alloc-only" ], None); ([ "--perf" ], None) ]

let usage =
  let flag (names, value) =
    Printf.sprintf "[%s%s]" (String.concat "|" names)
      (Option.fold ~none:"" ~some:(( ^ ) " ") value)
  in
  "usage: main.exe " ^ String.concat " " (List.map flag flags) ^ "\n"

(* Each flag given, under its first name, with its value. *)
let args =
  let argv = Sys.argv in
  let n = Array.length argv in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match List.find_opt (fun (names, _) -> List.mem argv.(i) names) flags with
      | None ->
        Printf.eprintf "bench: unknown argument %S\n%s" argv.(i) usage;
        exit 2
      | Some (names, None) -> go (i + 1) ((List.hd names, None) :: acc)
      | Some (names, Some _) ->
        if i = n - 1 then (
          Printf.eprintf "bench: %s expects a value\n" argv.(i);
          exit 2)
        else go (i + 2) ((List.hd names, Some argv.(i + 1)) :: acc)
  in
  go 1 []

let has name = List.mem_assoc name args
let flag_value name = Option.join (List.assoc_opt name args)

let quick = has "--quick"

(* `--profile` prints a per-phase domain-utilisation table (per-domain
   busy/idle wall time, effective speedup) from the pool's worker
   accounting, and adds a "profile" section to BENCH_results.json.  Off
   by default so the default output and JSON stay byte-identical. *)
let profile = has "--profile"

(* `--gate` turns the run into a perf-regression check: after writing
   the JSON summary, the paper-sim and fluid microbenches and the
   allocations-per-packet figure are compared against the committed
   baseline (`--baseline PATH`, default BENCH_results.json), plus the
   same-run structural floors in [gate_check]; the process exits
   non-zero on any failure. *)
let gate = has "--gate"

(* `--alloc-only` runs just the GC-bracketed allocation profile and
   exits: the tight loop for iterating on hot-path allocation work
   without paying for the full figure/sweep suite. *)
let alloc_only = has "--alloc-only"

(* `--perf` (also `dune build @perf` in bench/) runs just the hybrid
   fluid/packet phase with the full 10^3-10^6 class scaling sweep and
   exits — the tight loop for the co-simulation's scaling work. *)
let perf_only = has "--perf"

let baseline_path =
  Option.value (flag_value "--baseline") ~default:"BENCH_results.json"

(* Baseline-ratio tolerance.  The reference box is a single loaded
   core: the microsecond-scale microbenches (fluid solve especially)
   wander +-15-20% run to run with the code untouched, so a 10%
   tolerance flagged noise as regression.  The structural floors below
   (same-run ratios and absolute limits with measured margin) do the
   strict enforcement; the baseline ratios are a coarse backstop. *)
let gate_tolerance = 1.25

(* [jobs_source] records where the worker count came from, so a stored
   BENCH_results.json can be compared across machines: "flag" means the
   operator pinned it, "detected" means it tracked the box's cpu count
   (also recorded in the header) and will drift with the hardware. *)
let jobs, jobs_source =
  match flag_value "--jobs" with
  | None -> (Engine.Pool.default_domains (), "detected")
  | Some v -> (
    match int_of_string_opt v with
    | Some j when j >= 1 -> (j, "flag")
    | Some _ | None ->
      Printf.eprintf "bench: --jobs expects a positive integer, got %S\n" v;
      exit 2)

let bench_json =
  Option.value (flag_value "--bench-json") ~default:"BENCH_results.json"

let hr title =
  Printf.printf "\n%s\n=== %s ===\n" (String.make 72 '=') title

(* Wall clock per phase, for BENCH_results.json. *)
let phase_times : (string * float) list ref = ref []

type phase_profile = {
  p_name : string;
  p_wall : float;
  p_pools : int;
  p_workers : Engine.Pool.worker_stats array;
}

let phase_profiles : phase_profile list ref = ref []

let timed name f =
  if profile then Engine.Pool.reset_global_stats ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  phase_times := (name, dt) :: !phase_times;
  if profile then
    phase_profiles :=
      {
        p_name = name;
        p_wall = dt;
        p_pools = Engine.Pool.global_pools ();
        p_workers = Engine.Pool.global_worker_stats ();
      }
      :: !phase_profiles;
  r

let phase_speedup p =
  let busy =
    Array.fold_left (fun a w -> a +. w.Engine.Pool.busy_s) 0.0 p.p_workers
  in
  if p.p_wall > 0.0 then busy /. p.p_wall else 0.0

let print_profile () =
  hr "profile: per-phase domain utilisation";
  Printf.printf "  %-24s %8s %6s %6s %8s  %s\n" "phase" "wall s" "pools"
    "jobs" "speedup" "per-domain busy s";
  List.iter
    (fun p ->
      let jobs_n =
        Array.fold_left (fun a w -> a + w.Engine.Pool.jobs) 0 p.p_workers
      in
      Printf.printf "  %-24s %8.3f %6d %6d %7.2fx  [%s]\n" p.p_name p.p_wall
        p.p_pools jobs_n (phase_speedup p)
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun w -> Printf.sprintf "%.2f" w.Engine.Pool.busy_s)
                 p.p_workers)));
      Array.iteri
        (fun i w ->
          Printf.printf "      domain %d: %d jobs, busy %.3f s, idle %.3f s\n"
            i w.Engine.Pool.jobs w.Engine.Pool.busy_s
            (Float.max 0.0 (p.p_wall -. w.Engine.Pool.busy_s)))
        p.p_workers)
    (List.rev !phase_profiles);
  Printf.printf
    "  (speedup = total domain busy time / phase wall time; phases with 0 \
     pools ran serially)\n"

(* ------------------------------------------------------------------ *)
(* 1. Figures                                                          *)
(* ------------------------------------------------------------------ *)

let show_figure (f : Core.Figures.figure) =
  hr f.Core.Figures.title;
  print_string f.Core.Figures.chart;
  match f.Core.Figures.result with
  | None -> ()
  | Some r ->
    let opt = Core.Scenario.optimal_total_mbps r in
    Printf.printf
      "measured: tail %.1f Mbps of %.0f optimal; time-to-optimum %s\n"
      (Core.Scenario.tail_mean_mbps r) opt
      (match Core.Scenario.time_to_optimum_s r with
      | Some t -> Printf.sprintf "%.2f s" t
      | None -> "not within this run");
    List.iter
      (fun (tag, v) -> Printf.printf "  path %d tail: %.1f Mbps\n" tag v)
      (Core.Scenario.per_path_tail_mbps r)

let figures () =
  let figs = Core.Figures.all ~seed:1 ~jobs () in
  List.iter show_figure figs;
  hr "paper vs measured (figure summary)";
  Printf.printf
    "Fig 1c | LP optimum          | paper: 90 Mbps at (10,30,50) | \
     measured: exact (simplex + enumeration agree)\n";
  let result_of id =
    List.find_map
      (fun (f : Core.Figures.figure) ->
        if f.Core.Figures.id = id then f.Core.Figures.result else None)
      figs
  in
  match (result_of "2a", result_of "2b") with
  | Some ra, Some rb ->
    Printf.printf
      "Fig 2a | CUBIC finds optimum | paper: yes, ~3 s, then unstable | \
       measured: %s, tail %.1f Mbps\n"
      (match Core.Scenario.time_to_optimum_s ra with
      | Some t -> Printf.sprintf "yes, %.1f s" t
      | None -> "no")
      (Core.Scenario.tail_mean_mbps ra);
    Printf.printf
      "Fig 2b | OLIA at 4 s         | paper: below optimum            | \
       measured: %s, tail %.1f Mbps\n"
      (match Core.Scenario.time_to_optimum_s rb with
      | Some _ -> "reached (differs)"
      | None -> "below optimum")
      (Core.Scenario.tail_mean_mbps rb)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* 2. Table 1: the sweep behind the paper's prose                      *)
(* ------------------------------------------------------------------ *)

let table1 () =
  hr "Table 1: convergence by congestion control x default path";
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let duration = Engine.Time.s (if quick then 8 else 20) in
  let rows = Core.Summary.sweep ~seeds ~duration ~jobs () in
  Format.printf "%a@." Core.Summary.pp_table rows;
  Printf.printf
    "(optimum 90 Mbps; greedy fill from the default path reaches 80)\n";
  Printf.printf
    "paper: CUBIC always reached (transiently unstable); LIA never; \
     OLIA only with Path 2 default, ~20 s.\n"

(* ------------------------------------------------------------------ *)
(* 3. Ablations                                                        *)
(* ------------------------------------------------------------------ *)

(* The paper scenario every ablation varies: default path 2, 12 s at
   100 ms sampling, seed 1. *)
let paper_spec cc =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:2 topo in
  Core.Scenario.make ~topo ~paths ~cc ~duration:(Engine.Time.s 12)
    ~sampling:(Engine.Time.ms 100) ()

let describe r =
  Printf.sprintf "tail %5.1f Mbps, t_opt %s, residency %.2f"
    (Core.Scenario.tail_mean_mbps r)
    (match Core.Scenario.time_to_optimum_s r with
    | Some t -> Printf.sprintf "%5.1fs" t
    | None -> "never ")
    (Measure.Converge.fraction_above r.Core.Scenario.total ~target:90.0
       ~tolerance:0.05 ~from_s:2.0 ())

(* The cc x setting grid behind every ablation table: each setting is a
   heading and a change to the paper spec.  All cells run on the pool;
   the table prints one block per setting, in order. *)
let ablation_grid settings =
  let ccs = Mptcp.Algorithm.[ Cubic; Lia; Olia ] in
  let cells =
    List.concat_map
      (fun (heading, vary) -> List.map (fun cc -> (heading, cc, vary)) ccs)
      settings
  in
  let descs =
    Engine.Pool.map ~domains:jobs
      (fun (_, cc, vary) -> describe (Core.Scenario.run (vary (paper_spec cc))))
      cells
  in
  List.iter2
    (fun (heading, cc, _) desc ->
      if cc = List.hd ccs then Printf.printf "%s:\n" heading;
      Printf.printf "  %-6s %s\n" (Mptcp.Algorithm.name cc) desc)
    cells descs

let ablation_buffers () =
  hr "Ablation: buffer size (drop-tail, packets per link direction)";
  ablation_grid
    (List.map
       (fun limit_pkts ->
         ( Printf.sprintf "buffer %2d pkts" limit_pkts,
           fun (s : Core.Scenario.spec) ->
             { s with net_config = { s.net_config with limit_pkts } } ))
       (if quick then [ 16; 40 ] else [ 8; 16; 24; 40 ]));
  Printf.printf
    "(the paper's qualitative picture needs shallow buffers; at 40 pkts \
     ~ 1.5 BDP every algorithm converges)\n"

let ablation_qdisc () =
  hr "Ablation: queue discipline (16-packet buffers)";
  ablation_grid
    (List.map
       (fun (name, qdisc, ecn) ->
         ( name,
           fun (s : Core.Scenario.spec) ->
             { s with
               net_config = { s.net_config with qdisc };
               sender_config = { s.sender_config with ecn } } ))
       [ ("drop-tail", Netsim.Qdisc.Drop_tail, false);
         ("RED", Netsim.Qdisc.Red Netsim.Qdisc.default_red, false);
         ("RED + ECN", Netsim.Qdisc.Red Netsim.Qdisc.default_red_ecn, true);
         ("CoDel", Netsim.Qdisc.Codel Netsim.Qdisc.default_codel, false) ]);
  Printf.printf
    "(16-packet buffers drain in under CoDel's 5 ms target, so CoDel \
     never fires here and matches drop-tail; its effect shows on deep \
     buffers - see the bufferbloat test in test/test_netsim.ml)\n"

let ablation_scheduler () =
  hr "Ablation: subflow scheduler (CUBIC)";
  let policies = Mptcp.Scheduler.[ Min_rtt; Round_robin; Redundant ] in
  let descs =
    Engine.Pool.map ~domains:jobs
      (fun scheduler ->
        describe
          (Core.Scenario.run
             { (paper_spec Mptcp.Algorithm.Cubic) with scheduler }))
      policies
  in
  List.iter2
    (fun scheduler desc ->
      Printf.printf "  %-10s %s\n"
        (Mptcp.Scheduler.policy_name scheduler)
        desc)
    policies descs;
  Printf.printf
    "(the chart numbers are wire rates; under `redundant' every byte \
     travels all three paths, so application goodput is roughly a third \
     of the wire total)\n"

let scaling_experiment () =
  hr "Extension: n pairwise-overlapping paths (achieved / LP optimal)";
  let ns = if quick then [ 2; 3 ] else [ 2; 3; 4; 5 ] in
  let rows =
    Core.Scaling.sweep ~ns
      ~duration:(Engine.Time.s (if quick then 8 else 15))
      ~jobs ()
  in
  Format.printf "%a@." Core.Scaling.pp_table rows;
  Printf.printf
    "(capacities 30 + 5(i+j) Mbps per pair; the LP dimension grows as \
     C(n,2))\n"

let ablation_delayed_ack () =
  hr "Ablation: delayed ACKs (receiver acks every 2nd segment / 40 ms)";
  ablation_grid
    (List.map
       (fun delayed_ack ->
         ( (if delayed_ack then "delayed" else "per-segment"),
           fun (s : Core.Scenario.spec) -> { s with delayed_ack } ))
       [ false; true ])

let ablation_hol_buffer () =
  hr "Ablation: scheduler under a 64 KB send buffer, asymmetric RTTs";
  let run (policy, reinjection) =
    let b = Netgraph.Topology.builder () in
    let a = Netgraph.Topology.add_node b "a" in
    let fast = Netgraph.Topology.add_node b "fast" in
    let slow = Netgraph.Topology.add_node b "slow" in
    let z = Netgraph.Topology.add_node b "z" in
    let link u v delay =
      ignore
        (Netgraph.Topology.add_link b ~u ~v
           ~capacity_bps:(Netgraph.Topology.mbps 20) ~delay)
    in
    link a fast (Engine.Time.ms 2);
    link fast z (Engine.Time.ms 2);
    link a slow (Engine.Time.ms 50);
    link slow z (Engine.Time.ms 50);
    let topo = Netgraph.Topology.build b in
    let paths =
      Mptcp.Path_manager.tag_paths
        [
          Netgraph.Path.of_names topo [ "a"; "fast"; "z" ];
          Netgraph.Path.of_names topo [ "a"; "slow"; "z" ];
        ]
    in
    let sched = Engine.Sched.create () in
    let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 3) topo in
    let src = Tcp.Endpoint.create net ~node:a in
    let dst = Tcp.Endpoint.create net ~node:z in
    let config =
      { Mptcp.Connection.default_config with
        Mptcp.Connection.scheduler = policy;
        send_buffer = Some 65_536;
        reinjection }
    in
    let conn =
      Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
        ~cc:Mptcp.Algorithm.Lia ~config ()
    in
    Engine.Sched.run ~until:(Engine.Time.s 10) sched;
    ( float_of_int (Mptcp.Connection.delivered_bytes conn) *. 8.0 /. 10.0
      /. 1e6,
      Mptcp.Connection.reinjections conn )
  in
  let cases =
    [ ("minrtt", Mptcp.Scheduler.Min_rtt, false);
      ("roundrobin", Mptcp.Scheduler.Round_robin, false);
      ("roundrobin + reinject", Mptcp.Scheduler.Round_robin, true) ]
  in
  let outcomes =
    Engine.Pool.map ~domains:jobs (fun (_, policy, r) -> run (policy, r)) cases
  in
  List.iter2
    (fun (label, _, _) (goodput, reinjected) ->
      Printf.printf "  %-24s goodput %5.1f Mbps%s\n" label goodput
        (if reinjected > 0 then Printf.sprintf " (%d reinjections)" reinjected
         else ""))
    cases outcomes;
  Printf.printf
    "(chunks mapped to the 100 ms path stall the 64 KB data-sequence \
     window: head-of-line blocking; the default min-RTT scheduler avoids \
     it)\n"

let baseline_single_path () =
  hr "Baseline: single-path TCP on each of the three paths (CUBIC)";
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.paths topo in
  let rates =
    Engine.Pool.map ~domains:jobs
      (fun path ->
        let sched = Engine.Sched.create () in
        let rng = Engine.Rng.create 1 in
        let net =
          Netsim.Net.create ~sched ~rng
            ~config:Core.Scenario.default_net_config topo
        in
        Netsim.Net.install_path net ~tag:1 path;
        let src = Tcp.Endpoint.create net ~node:(Netgraph.Path.src path) in
        let dst = Tcp.Endpoint.create net ~node:(Netgraph.Path.dst path) in
        let flow = Tcp.Flow.start ~src ~dst ~tag:1 ~conn:1 () in
        Engine.Sched.run ~until:(Engine.Time.s 8) sched;
        Tcp.Flow.goodput_bps flow ~now:(Engine.Sched.now sched) /. 1e6)
      paths
  in
  List.iteri
    (fun i (path, mbps) ->
      Printf.printf "  path %d alone: %.1f Mbps (bottleneck %d Mbps)\n" (i + 1)
        mbps
        (Netgraph.Path.bottleneck_bps topo path / 1_000_000))
    (List.combine paths rates);
  Printf.printf
    "(MPTCP's 90 Mbps optimum more than doubles the best single path)\n"

let two_connections_fairness () =
  hr "Extension: two MPTCP connections sharing the paper network";
  let run cc =
    let topo = Core.Paper_net.topology () in
    let paths = Core.Paper_net.tagged_paths ~default:2 topo in
    let sched = Engine.Sched.create () in
    let rng = Engine.Rng.create 1 in
    let net =
      Netsim.Net.create ~sched ~rng ~config:Core.Scenario.default_net_config
        topo
    in
    let s_node = Netgraph.Topology.node_id topo "s" in
    let d_node = Netgraph.Topology.node_id topo "d" in
    let src = Tcp.Endpoint.create net ~node:s_node in
    let dst = Tcp.Endpoint.create net ~node:d_node in
    let conns =
      List.map
        (fun id ->
          Mptcp.Connection.establish ~net ~src ~dst ~conn:id ~paths ~cc
            ~rng:(Engine.Rng.split rng)
            ~config:
              { Mptcp.Connection.default_config with
                Mptcp.Connection.start_jitter = Engine.Time.ms 2 }
            ())
        [ 1; 2 ]
    in
    Engine.Sched.run ~until:(Engine.Time.s 20) sched;
    List.map
      (fun c ->
        Mptcp.Connection.total_throughput_bps c
          ~now:(Engine.Sched.now sched)
        /. 1e6)
      conns
  in
  let ccs = Mptcp.Algorithm.[ Cubic; Lia; Olia ] in
  let outcomes = Engine.Pool.map ~domains:jobs run ccs in
  List.iter2
    (fun cc rates ->
      match rates with
      | [ c1; c2 ] ->
        Printf.printf
          "  %-6s conn1 %5.1f + conn2 %5.1f = %5.1f Mbps (jain %.3f)\n"
          (Mptcp.Algorithm.name cc) c1 c2 (c1 +. c2)
          (Measure.Converge.jain_fairness [| c1; c2 |])
      | _ -> ())
    ccs outcomes;
  Printf.printf
    "(the LP optimum is still 90 Mbps; fairness between the two \
     connections is the new question)\n"

(* ------------------------------------------------------------------ *)
(* 3b. Hybrid fluid/packet co-simulation                               *)
(* ------------------------------------------------------------------ *)

(* Background flow classes as fluid fields (lib/fluid/background.ml)
   against the run they abstract: the same flow population simulated
   per-flow at packet fidelity.  Both sides carry four foreground
   MPTCP-CUBIC connections at full packet fidelity on the paper
   network; the background is either one fluid field (one windowed Reno
   class per [classes], aggregating [bg_flows_per_class] flows each) or
   [classes * bg_flows_per_class] individual packet-level Reno senders
   on the same route.  The 20x same-run floor in [gate_check] rides on
   this pair. *)

let bg_flows_per_class = 12
let bg_rtt_s = 0.02
let hybrid_duration = Engine.Time.ms 200

type hybrid_run = {
  hy_wall_s : float;
  hy_fg_mbps : float;  (* four foreground connections, summed *)
  hy_steps : int;
  hy_dormant : int;
}

type hybrid_outcome = {
  ho_floor_classes : int;
  ho_hybrid : hybrid_run;
  ho_packet_wall_s : float;
  ho_packet_fg_mbps : float;
  ho_scaling : (int * hybrid_run) list;
}

let hybrid_setup () =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:2 topo in
  let sched = Engine.Sched.create () in
  let rng = Engine.Rng.create 1 in
  let net =
    Netsim.Net.create ~sched ~rng ~config:Core.Scenario.default_net_config
      topo
  in
  let s_node = Netgraph.Topology.node_id topo "s" in
  let d_node = Netgraph.Topology.node_id topo "d" in
  let src = Tcp.Endpoint.create net ~node:s_node in
  let dst = Tcp.Endpoint.create net ~node:d_node in
  let conns =
    List.map
      (fun id ->
        Mptcp.Connection.establish ~net ~src ~dst ~conn:id ~paths
          ~cc:Mptcp.Algorithm.Cubic
          ~rng:(Engine.Rng.split rng)
          ~config:
            { Mptcp.Connection.default_config with
              Mptcp.Connection.start_jitter = Engine.Time.ms 2 }
          ())
      [ 1; 2; 3; 4 ]
  in
  let bg_path =
    match
      Netgraph.Shortest.shortest_path topo ~src:s_node ~dst:d_node
        ~weight:Netgraph.Shortest.delay_ns
    with
    | Some p -> p
    | None -> assert false
  in
  (topo, sched, net, src, dst, conns, bg_path)

let foreground_mbps sched conns =
  List.fold_left
    (fun acc c ->
      acc
      +. Mptcp.Connection.total_throughput_bps c ~now:(Engine.Sched.now sched)
         /. 1e6)
    0.0 conns

let run_hybrid ~classes () =
  let topo, sched, net, _src, _dst, conns, bg_path = hybrid_setup () in
  let links =
    Array.mapi
      (fun k l ->
        ( l,
          (Netgraph.Topology.link topo l).Netgraph.Topology.u
          = bg_path.Netgraph.Path.nodes.(k) ))
      bg_path.Netgraph.Path.links
  in
  let decls =
    [| { Fluid.Background.Driver.links;
         classes;
         flows = bg_flows_per_class;
         kind = Some Fluid.Controller.Reno;
         flow_rate_bps = 0;
         rtt_s = bg_rtt_s;
         start_s = 0.0 } |]
  in
  (* Clean heap per measurement: without this, major-GC slices
     collecting the previous run's garbage land in the next timing. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let d =
    Fluid.Background.Driver.attach ~sched ~net ~tick:(Engine.Time.ms 1)
      ~until:hybrid_duration decls
  in
  Engine.Sched.run ~until:hybrid_duration sched;
  let wall = Unix.gettimeofday () -. t0 in
  let f = Fluid.Background.Driver.field d in
  { hy_wall_s = wall;
    hy_fg_mbps = foreground_mbps sched conns;
    hy_steps = Fluid.Background.ode_steps f;
    hy_dormant = Fluid.Background.dormant_ticks f }

let run_packet_equivalent ~classes () =
  let _topo, sched, net, src, dst, conns, bg_path = hybrid_setup () in
  Netsim.Net.install_path net ~tag:100 bg_path;
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let flows =
    List.init (classes * bg_flows_per_class) (fun i ->
        Tcp.Flow.start ~src ~dst ~tag:100 ~conn:(1000 + i)
          ~cc:Tcp.Cc_reno.factory ())
  in
  Engine.Sched.run ~until:hybrid_duration sched;
  let wall = Unix.gettimeofday () -. t0 in
  ignore flows;
  (wall, foreground_mbps sched conns)

let hybrid_phase () =
  hr "Hybrid: fluid background classes vs all-packet equivalent";
  (* Scaling sweep first, while the heap is small: the 10^5/10^6 rows
     allocate hundreds of MB and would otherwise measure page churn
     left behind by the packet-equivalent run below. *)
  Printf.printf "  class-count scaling (windowed Reno x %d flows, 200 ms, 4 \
                 CUBIC foreground connections):\n"
    bg_flows_per_class;
  let scales =
    if quick && not perf_only then [ 1_000; 10_000 ]
    else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let scaling =
    List.map
      (fun n ->
        let r = run_hybrid ~classes:n () in
        Printf.printf
          "    %8d classes  %8.3f s wall  %6d ODE steps  %4d dormant ticks  \
           fg %.1f Mbps\n"
          n r.hy_wall_s r.hy_steps r.hy_dormant r.hy_fg_mbps;
        (n, r))
      scales
  in
  let floor_classes = if quick && not perf_only then 2_000 else 10_000 in
  Printf.printf
    "  same-run floor pair: %d classes x %d flows, fluid field vs per-flow \
     packet TCP:\n"
    floor_classes bg_flows_per_class;
  let h = run_hybrid ~classes:floor_classes () in
  Printf.printf
    "    hybrid fluid field %8.3f s wall  (%d ODE steps, %d dormant ticks, \
     fg %.1f Mbps)\n"
    h.hy_wall_s h.hy_steps h.hy_dormant h.hy_fg_mbps;
  let pk_wall, pk_fg = run_packet_equivalent ~classes:floor_classes () in
  Printf.printf
    "    all-packet (%d TCP flows) %8.3f s wall  (fg %.1f Mbps)\n"
    (floor_classes * bg_flows_per_class)
    pk_wall pk_fg;
  Printf.printf "    speedup %.0fx (gate floor 20x)\n" (pk_wall /. h.hy_wall_s);
  { ho_floor_classes = floor_classes;
    ho_hybrid = h;
    ho_packet_wall_s = pk_wall;
    ho_packet_fg_mbps = pk_fg;
    ho_scaling = scaling }

(* ------------------------------------------------------------------ *)
(* 3b. Resident daemon: cold process vs warm daemon                    *)
(* ------------------------------------------------------------------ *)

(* The daemon's reason to exist is amortisation: a cold `serve` process
   pays store open + domain-pool spawn + batch dispatch on every
   submission, the resident daemon pays a socket round-trip into an
   already-warm pool.  Both sides run the same fully-cached one-entry
   batch (populated once up front), so simulation cost is out of the
   picture and the distributions compare pure submission latency. *)

type daemon_result = {
  dm_submissions : int;
  dm_cold_p50_ms : float;
  dm_cold_p99_ms : float;
  dm_warm_p50_ms : float;
  dm_warm_p99_ms : float;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let daemon_batch_text =
  "(preset (label bench-daemon) (cc cubic) (seed 7) (duration-s 0.5) \
   (sampling-ms 100))"

let daemon_phase () =
  hr "Daemon: cold-process vs warm-daemon submission latency";
  let store_dir = "_bench_daemon_store" and socket = "_bench_daemon.sock" in
  rm_rf store_dir;
  rm_rf socket;
  let entries () =
    Serve.Batch.of_sexps ~base_dir:(Sys.getcwd ())
      (Events.Sexp.parse_string daemon_batch_text)
  in
  (* Populate the store once: every timed submission below is a hit. *)
  let store = Serve.Store.open_store ~dir:store_dir in
  ignore (Serve.Service.run_batch ~jobs:1 ~store (entries ()));
  let submissions = if quick then 20 else 60 in
  let pool_domains = min 2 jobs in
  (* Cold side: everything a fresh process pays per submission once it
     must be *ready to simulate* — store open, pool spawn, parse, hash,
     lookup, pool shutdown — minus only fork/exec itself. *)
  let cold =
    Array.init submissions (fun _ ->
        let t0 = Unix.gettimeofday () in
        let store = Serve.Store.open_store ~dir:store_dir in
        let pool = Engine.Pool.create ~domains:pool_domains () in
        let _, stats = Serve.Service.run_batch ~pool ~store (entries ()) in
        Engine.Pool.shutdown pool;
        assert (stats.Serve.Service.fresh = 0);
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  (* Warm side: one resident daemon, one client process per submission
     (connect, framed request, framed reply, close — `call_once` is
     exactly the CLI `submit` path). *)
  let conf =
    {
      (Daemon.default_conf ~socket_path:socket ~store_dir) with
      Daemon.jobs = Some pool_domains;
      log = false;
    }
  in
  let d = Daemon.start conf in
  let server = Thread.create Daemon.serve d in
  let request = Daemon.Protocol.Submit (Events.Sexp.parse_string daemon_batch_text) in
  let warm =
    Array.init submissions (fun _ ->
        let t0 = Unix.gettimeofday () in
        (match Daemon.Protocol.call_once ~socket request with
        | Daemon.Protocol.Batch b -> assert (b.Daemon.Protocol.fresh = 0)
        | _ -> failwith "daemon bench: unexpected reply");
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  ignore (Daemon.handle d Daemon.Protocol.Drain);
  Thread.join server;
  rm_rf store_dir;
  let p a p = Measure.Stats.percentile a ~p in
  let r =
    {
      dm_submissions = submissions;
      dm_cold_p50_ms = p cold 50.;
      dm_cold_p99_ms = p cold 99.;
      dm_warm_p50_ms = p warm 50.;
      dm_warm_p99_ms = p warm 99.;
    }
  in
  Printf.printf
    "  %d cached submissions each way (batch of 1, %d-domain pool):\n"
    submissions pool_domains;
  Printf.printf "    cold process   p50 %8.3f ms   p99 %8.3f ms\n"
    r.dm_cold_p50_ms r.dm_cold_p99_ms;
  Printf.printf "    warm daemon    p50 %8.3f ms   p99 %8.3f ms\n"
    r.dm_warm_p50_ms r.dm_warm_p99_ms;
  Printf.printf "    p50 speedup %.1fx\n"
    (r.dm_cold_p50_ms /. Float.max 1e-6 r.dm_warm_p50_ms);
  r

(* ------------------------------------------------------------------ *)
(* 4. Micro-benchmarks (bench/micro.ml)                               *)
(* ------------------------------------------------------------------ *)

let microbench () =
  hr "micro-benchmarks (ns per run, round-robin min-of-N)";
  Micro.run ()

(* ------------------------------------------------------------------ *)
(* 5. Allocation profile and regression gate                           *)
(* ------------------------------------------------------------------ *)

type alloc_profile = {
  a_packets : int;
  a_allocated_words : float;
  a_words_per_packet : float;
  a_minor_collections : int;
  a_major_collections : int;
  a_promoted_words : float;
  a_pool_acquired : int;
  a_pool_recycled : int;
  a_wall_s : float;
  a_failover_words_per_packet : float;
}

(* Run [make_spec ()] once to warm up, then once more bracketed by GC
   counters: the result, the counter deltas and the wall time. *)
let bracketed make_spec =
  ignore (Core.Scenario.run (make_spec ()));
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let c0 = Engine.Gctune.counters () in
  let r = Core.Scenario.run (make_spec ()) in
  let c1 = Engine.Gctune.counters () in
  (r, Engine.Gctune.diff c0 c1, Unix.gettimeofday () -. t0)

let per_packet words (r : Core.Scenario.result) =
  if r.packets_created > 0 then words /. float_of_int r.packets_created else 0.0

(* The failover path, which the plain paper sim never takes: CUBIC on
   the paper net with rto_cap 2 and the default unbounded send buffer,
   2 s, under a 0.6 s flap of the s-v1 bottleneck (killing subflows 1
   and 2 at once) and then a 0.8 s spell of 5 % loss on v2-v3.  The
   chunk-ownership table grows while the data ACK stalls, so a per-grant
   cost that grows with it shows up here as words per packet.  The same
   scenario is test_events' failover allocation test. *)
let failover_spec () =
  let topo = Core.Paper_net.topology () in
  let events =
    Events.Parse.events topo
      (Events.Sexp.parse_string
         {|(at-s 0.05 (link-down s v1)) (at-s 0.65 (link-up s v1))
           (at-s 1.05 (loss-set v2 v3 0.05)) (at-s 1.85 (loss-set v2 v3 0))|})
  in
  Core.Scenario.make ~topo ~paths:(Core.Paper_net.tagged_paths ~default:2 topo)
    ~cc:Mptcp.Algorithm.Cubic ~duration:(Engine.Time.s 2) ~events ~rto_cap:2 ()

(* One paper-figure simulation bracketed by GC counters: the
   steady-state allocation cost per simulated packet, the number the
   freelist/ring work exists to keep flat.  A warm-up run populates the
   freelist and code caches first.  The failover scenario is bracketed
   the same way. *)
let alloc_profile () =
  hr "allocation profile: paper sim (CUBIC), GC-counter bracketed";
  let make_spec () =
    let topo = Core.Paper_net.topology () in
    let paths = Core.Paper_net.tagged_paths ~default:2 topo in
    Core.Scenario.make ~topo ~paths ~cc:Mptcp.Algorithm.Cubic
      ~duration:(Engine.Time.s (if quick then 1 else 4))
      ~sampling:(Engine.Time.ms 100) ()
  in
  let r, d, wall = bracketed make_spec in
  let words = Engine.Gctune.allocated_words d in
  let fr, fd, _ = bracketed failover_spec in
  let pool = r.Core.Scenario.pool_stats in
  let profile =
    {
      a_packets = r.Core.Scenario.packets_created;
      a_allocated_words = words;
      a_words_per_packet = per_packet words r;
      a_minor_collections = d.Engine.Gctune.minor_collections;
      a_major_collections = d.Engine.Gctune.major_collections;
      a_promoted_words = d.Engine.Gctune.promoted_words;
      a_pool_acquired = pool.Packet.Pool.acquired;
      a_pool_recycled = pool.Packet.Pool.recycled;
      a_wall_s = wall;
      a_failover_words_per_packet =
        per_packet (Engine.Gctune.allocated_words fd) fr;
    }
  in
  Printf.printf "  packets simulated     %12d\n" profile.a_packets;
  Printf.printf "  events processed      %12d (%.1f words/event)\n"
    r.Core.Scenario.events_processed
    (if r.Core.Scenario.events_processed > 0 then
       words /. float_of_int r.Core.Scenario.events_processed
     else 0.0);
  Printf.printf "  allocated words       %12.0f\n" profile.a_allocated_words;
  Printf.printf "  words per packet      %12.1f\n" profile.a_words_per_packet;
  Printf.printf "  minor collections     %12d\n" profile.a_minor_collections;
  Printf.printf "  major collections     %12d\n" profile.a_major_collections;
  Printf.printf "  promoted words        %12.0f\n" profile.a_promoted_words;
  Printf.printf "  pool acquired         %12d\n" profile.a_pool_acquired;
  Printf.printf "  pool recycled         %12d (%.1f%% of acquires)\n"
    profile.a_pool_recycled
    (if profile.a_pool_acquired > 0 then
       100.0 *. float_of_int profile.a_pool_recycled
       /. float_of_int profile.a_pool_acquired
     else 0.0);
  Printf.printf "  wall %.3f s\n" profile.a_wall_s;
  Printf.printf
    "  failover words per packet %8.1f (%d packets, %d subflow churn)\n"
    profile.a_failover_words_per_packet fr.Core.Scenario.packets_created
    fr.Core.Scenario.subflow_churn;
  profile

(* Minimal JSON number extraction for the gate: finds ["key": <num>] in
   the baseline file.  Good enough for the flat structure
   write_bench_json emits; no dependency needed. *)
let json_number content key =
  let needle = "\"" ^ key ^ "\"" in
  let nl = String.length needle and hl = String.length content in
  let rec find i =
    if i + nl > hl then None
    else if String.sub content i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
    let j = ref j in
    while
      !j < hl && (content.[!j] = ':' || content.[!j] = ' ')
    do incr j done;
    let start = !j in
    while
      !j < hl
      && (match content.[!j] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do incr j done;
    if !j = start then None
    else float_of_string_opt (String.sub content start (!j - start))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let gate_check ~microbench_ns ~alloc ~hybrid =
  hr "perf gate";
  if not (Sys.file_exists baseline_path) then begin
    Printf.eprintf "[gate] baseline %s not found\n" baseline_path;
    exit 1
  end;
  let base = read_file baseline_path in
  let failures = ref [] in
  let check name current baseline =
    match baseline with
    | None ->
      Printf.printf "  %-34s current %12.1f (no baseline, skipped)\n" name
        current
    | Some b when b <= 0.0 ->
      Printf.printf "  %-34s current %12.1f (zero baseline, skipped)\n" name
        current
    | Some b ->
      let ratio = current /. b in
      Printf.printf "  %-34s current %12.1f baseline %12.1f ratio %.3f%s\n"
        name current b ratio
        (if ratio > gate_tolerance then "  REGRESSION" else "");
      if ratio > gate_tolerance then failures := name :: !failures
  in
  (* A gated row missing from this run fails the gate, once: a renamed
     or deleted row must not switch its check off.  (A row missing from
     the baseline file only skips its baseline ratio, above.) *)
  let row name =
    match List.assoc_opt name microbench_ns with
    | Some _ as ns -> ns
    | None ->
      if not (List.mem name !failures) then begin
        Printf.printf "  %-34s missing from this run  REGRESSION\n" name;
        failures := name :: !failures
      end;
      None
  in
  List.iter
    (fun name ->
      Option.iter
        (fun ns -> check (name ^ " ns/run") ns (json_number base name))
        (row name))
    [ Micro.sim_row; Micro.fluid_row ];
  (* Reported, not gated: sim time over fluid time in this same run.
     It read the packet simulator's speed as much as the solver's, so
     every packet-path gain narrowed it with the solver untouched; the
     fluid solve's own work is pinned below instead. *)
  (match (row Micro.sim_row, row Micro.fluid_row) with
  | Some sim_ns, Some fluid_ns ->
    Printf.printf "  %-34s %12.0fx (reported, not gated)\n"
      "fluid speedup vs sim" (sim_ns /. fluid_ns)
  | _ -> ());
  check "alloc words_per_packet" alloc.a_words_per_packet
    (json_number base "words_per_packet");
  (* Round-2 structural floors.  Every floor is *same-run* relative or
     a deterministic counter: absolute wall-clock floors against the
     heap-era seed numbers proved un-gateable on the 1-core reference
     box (the identical binary measured sched 1k events anywhere from
     102 to 186 us depending on background load, around a min-of-N
     truth of ~77 us vs the 153 us seed).  The measured vs-seed wins
     are recorded in doc/PERFORMANCE.md "round 2" instead; what is
     enforced here cannot be washed out by load because both sides of
     every comparison ran moments apart in this process. *)
  let floor_check name current limit =
    Printf.printf "  %-34s current %12.1f floor %12.1f%s\n" name current
      limit
      (if current > limit then "  REGRESSION" else "");
    if current > limit then failures := name :: !failures
  in
  (* The fluid solve's work, a deterministic count: each paper
     equilibrium must converge within the field evaluations it spent
     when these pins were set.  The row's time keeps its baseline
     ratio above. *)
  List.iter
    (fun (cc, controller, pin) ->
      floor_check
        (Printf.sprintf "fluid %s field evaluations" cc)
        (float_of_int (Micro.fluid_solve controller))
        (float_of_int pin))
    [
      ("CUBIC", Fluid.Controller.Cubic, 120);
      ("LIA", Fluid.Controller.Lia, 101);
      ("OLIA", Fluid.Controller.Olia, 78);
    ];
  (* Load-immune structural check: heap and wheel run the same keys in
     the same process moments apart, so background noise cancels.  The
     wheel must beat the heap outright on realistic (us-spaced) keys —
     measured ~2.5x; 1.0 is the floor, not the target. *)
  (match (row Micro.wheel_row, row Micro.heap_row) with
  | Some wheel_ns, Some heap_ns ->
    floor_check "wheel <= heap push+pop (same run)" wheel_ns heap_ns
  | _ -> ());
  (* Floor 58, about 1.25x the quick reading: the quick scenario
     amortises its fixed per-run allocations over fewer packets than the
     full one (measured 46.3 quick vs 40.3 full after the round-4 hot
     path, down from 84.3 vs 78.6; the counter is deterministic per
     build environment, not across them).  It was 110 while the
     profile read 84-95. *)
  floor_check "alloc words_per_packet < 58" alloc.a_words_per_packet 58.0;
  (* The failover path may cost no more than twice the plain sim per
     packet (same run, deterministic counts; measured 1.0x).  A
     per-grant cost that grows with the chunk-ownership table reads
     over 20x here. *)
  floor_check "failover words/packet <= 2x plain"
    alloc.a_failover_words_per_packet
    (2.0 *. alloc.a_words_per_packet);
  (* OLIA's per-ack formula is ~3n float divisions (rate sum, quality
     pass, coupled term) against CUBIC's division-free cubic update, so
     a small constant multiple of CUBIC is the honest steady state;
     measured 2.2-2.4x by the round-robin min-of-N (~7x before the
     flat-pass rewrite). *)
  (match (row Micro.olia_row, row Micro.cubic_row) with
  | Some olia_ns, Some cubic_ns ->
    floor_check "olia 1k acks <= 3.5x cubic (same run)" olia_ns
      (3.5 *. cubic_ns)
  | _ -> ());
  (* The hybrid co-simulation's reason to exist, enforced same-run: the
     fluid background field must be >= 20x cheaper than simulating the
     identical flow population packet by packet (both measurements from
     this process, moments apart, foreground identical on both sides). *)
  floor_check "hybrid <= packet/20 ms (same run)"
    (hybrid.ho_hybrid.hy_wall_s *. 1e3)
    (hybrid.ho_packet_wall_s /. 20.0 *. 1e3);
  if !failures = [] then
    Printf.printf "  gate passed (tolerance %.0f%%, baseline %s)\n"
      ((gate_tolerance -. 1.0) *. 100.0)
      baseline_path
  else begin
    Printf.printf "  GATE FAILED: %s (tolerance %.0f%%, baseline %s)\n"
      (String.concat ", " (List.rev !failures))
      ((gate_tolerance -. 1.0) *. 100.0)
      baseline_path;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* 6. Machine-readable results                                         *)
(* ------------------------------------------------------------------ *)

let write_bench_json ~microbench_ns ~alloc ~hybrid ~daemon ~total_s =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": 2,\n";
  add "  \"quick\": %b,\n" quick;
  add "  \"jobs\": %d,\n" jobs;
  add "  \"jobs_source\": \"%s\",\n" jobs_source;
  add "  \"cpu_count\": %d,\n" (Domain.recommended_domain_count ());
  add "  \"recommended_domains\": %d,\n" (Engine.Pool.default_domains ());
  add "  \"wall_clock_s\": {\n";
  let phases = List.rev !phase_times in
  List.iter
    (fun (name, dt) -> add "    \"%s\": %.3f,\n" name dt)
    phases;
  add "    \"total\": %.3f\n" total_s;
  add "  },\n";
  add "  \"alloc\": {\n";
  add "    \"packets\": %d,\n" alloc.a_packets;
  add "    \"allocated_words\": %.0f,\n" alloc.a_allocated_words;
  add "    \"words_per_packet\": %.2f,\n" alloc.a_words_per_packet;
  add "    \"minor_collections\": %d,\n" alloc.a_minor_collections;
  add "    \"major_collections\": %d,\n" alloc.a_major_collections;
  add "    \"promoted_words\": %.0f,\n" alloc.a_promoted_words;
  add "    \"pool_acquired\": %d,\n" alloc.a_pool_acquired;
  add "    \"pool_recycled\": %d,\n" alloc.a_pool_recycled;
  add "    \"wall_s\": %.3f,\n" alloc.a_wall_s;
  add "    \"failover_words_per_packet\": %.2f\n"
    alloc.a_failover_words_per_packet;
  add "  },\n";
  add "  \"hybrid\": {\n";
  add "    \"floor_classes\": %d,\n" hybrid.ho_floor_classes;
  add "    \"flows_per_class\": %d,\n" bg_flows_per_class;
  add "    \"hybrid_wall_s\": %.3f,\n" hybrid.ho_hybrid.hy_wall_s;
  add "    \"packet_wall_s\": %.3f,\n" hybrid.ho_packet_wall_s;
  add "    \"speedup\": %.1f,\n"
    (hybrid.ho_packet_wall_s /. hybrid.ho_hybrid.hy_wall_s);
  add "    \"hybrid_foreground_mbps\": %.1f,\n" hybrid.ho_hybrid.hy_fg_mbps;
  add "    \"packet_foreground_mbps\": %.1f,\n" hybrid.ho_packet_fg_mbps;
  add "    \"scaling\": [\n";
  let ns = List.length hybrid.ho_scaling in
  List.iteri
    (fun i (n, r) ->
      add
        "      {\"classes\": %d, \"wall_s\": %.3f, \"ode_steps\": %d, \
         \"dormant_ticks\": %d, \"foreground_mbps\": %.1f}%s\n"
        n r.hy_wall_s r.hy_steps r.hy_dormant r.hy_fg_mbps
        (if i = ns - 1 then "" else ","))
    hybrid.ho_scaling;
  add "    ]\n";
  add "  },\n";
  add "  \"daemon\": {\n";
  add "    \"submissions\": %d,\n" daemon.dm_submissions;
  add "    \"cold_p50_ms\": %.3f,\n" daemon.dm_cold_p50_ms;
  add "    \"cold_p99_ms\": %.3f,\n" daemon.dm_cold_p99_ms;
  add "    \"warm_p50_ms\": %.3f,\n" daemon.dm_warm_p50_ms;
  add "    \"warm_p99_ms\": %.3f\n" daemon.dm_warm_p99_ms;
  add "  },\n";
  (match
     ( List.assoc_opt Micro.sim_row microbench_ns,
       List.assoc_opt Micro.fluid_row microbench_ns )
   with
  | Some sim_ns, Some fluid_ns ->
    add "  \"fluid_speedup_vs_sim\": %.1f,\n" (sim_ns /. fluid_ns)
  | _ -> ());
  add "  \"microbench_ns\": {\n";
  let n = List.length microbench_ns in
  List.iteri
    (fun i (name, ns) ->
      add "    \"%s\": %.1f%s\n" name ns (if i = n - 1 then "" else ","))
    microbench_ns;
  if profile then begin
    add "  },\n";
    add "  \"profile\": {\n";
    let pps = List.rev !phase_profiles in
    let np = List.length pps in
    List.iteri
      (fun i p ->
        let workers =
          String.concat ", "
            (Array.to_list
               (Array.map
                  (fun w ->
                    Printf.sprintf "{\"jobs\": %d, \"busy_s\": %.3f}"
                      w.Engine.Pool.jobs w.Engine.Pool.busy_s)
                  p.p_workers))
        in
        add
          "    \"%s\": {\"wall_s\": %.3f, \"pools\": %d, \"speedup\": %.2f, \
           \"workers\": [%s]}%s\n"
          p.p_name p.p_wall p.p_pools (phase_speedup p) workers
          (if i = np - 1 then "" else ","))
      pps;
    add "  }\n"
  end
  else add "  }\n";
  add "}\n";
  Measure.Render.write_file ~path:bench_json (Buffer.contents buf);
  Printf.printf "[json] wrote %s\n" bench_json

let () =
  Engine.Gctune.tune ();
  Printf.printf
    "MPTCP overlapping-paths reproduction - benchmark harness%s (jobs=%d)\n"
    (if quick then " (quick mode)" else "")
    jobs;
  if alloc_only then begin
    ignore (alloc_profile ());
    exit 0
  end;
  if perf_only then begin
    ignore (hybrid_phase ());
    exit 0
  end;
  let t0 = Unix.gettimeofday () in
  timed "figures" figures;
  timed "table1" table1;
  timed "ablation_buffers" ablation_buffers;
  timed "ablation_qdisc" ablation_qdisc;
  timed "ablation_scheduler" ablation_scheduler;
  timed "ablation_delayed_ack" ablation_delayed_ack;
  timed "ablation_hol_buffer" ablation_hol_buffer;
  timed "baseline_single_path" baseline_single_path;
  timed "scaling" scaling_experiment;
  timed "two_connections" two_connections_fairness;
  let hybrid = timed "hybrid" hybrid_phase in
  let daemon = timed "daemon" daemon_phase in
  let alloc = timed "alloc_profile" alloc_profile in
  let microbench_ns = timed "microbench" microbench in
  if profile then print_profile ();
  write_bench_json ~microbench_ns ~alloc ~hybrid ~daemon
    ~total_s:(Unix.gettimeofday () -. t0);
  if gate then gate_check ~microbench_ns ~alloc ~hybrid;
  hr "done"
