(* Tests for the top-level reproduction API: the paper network's
   analytics, scenario determinism, figure generation, and (as Alcotest
   `Slow cases) the headline qualitative results of the paper. *)

let check_float = Alcotest.(check (float 1e-6))

(* --- Paper_net --- *)

let paper_optimum () =
  let opt = Core.Paper_net.optimum () in
  check_float "90 Mbps" 90e6 opt.Netgraph.Constraints.total_bps;
  let x = opt.Netgraph.Constraints.per_path_bps in
  check_float "x1" 10e6 x.(0);
  check_float "x2" 30e6 x.(1);
  check_float "x3" 50e6 x.(2)

let paper_greedy () =
  check_float "from path 2: 80" 80.0 (Core.Paper_net.greedy_total_mbps ~default:2);
  check_float "from path 1: 60" 60.0 (Core.Paper_net.greedy_total_mbps ~default:1);
  check_float "from path 3: 80" 80.0 (Core.Paper_net.greedy_total_mbps ~default:3)

let paper_tagged_default () =
  let topo = Core.Paper_net.topology () in
  List.iter
    (fun d ->
      match Core.Paper_net.tagged_paths ~default:d topo with
      | (tag, _) :: _ -> Alcotest.(check int) "default first" d tag
      | [] -> Alcotest.fail "no paths")
    [ 1; 2; 3 ];
  Alcotest.(check bool) "bad default rejected" true
    (try ignore (Core.Paper_net.tagged_paths ~default:4 topo); false
     with Invalid_argument _ -> true)

let paper_shortest_is_path2 () =
  (* Path 2 must be the default shortest path, as in the paper. *)
  let topo = Core.Paper_net.topology () in
  let s = Netgraph.Topology.node_id topo "s" in
  let d = Netgraph.Topology.node_id topo "d" in
  match
    Netgraph.Shortest.shortest_path topo ~src:s ~dst:d
      ~weight:Netgraph.Shortest.delay_ns
  with
  | Some p ->
    let path2 = List.nth (Core.Paper_net.paths topo) 1 in
    Alcotest.(check bool) "shortest = path 2" true (Netgraph.Path.equal p path2)
  | None -> Alcotest.fail "unreachable"

(* --- Scenario --- *)

let quick_spec ?(cc = Mptcp.Algorithm.Cubic) ?(seed = 1) ?(duration = 2) () =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:2 topo in
  Core.Scenario.make ~topo ~paths ~cc ~duration:(Engine.Time.s duration)
    ~sampling:(Engine.Time.ms 100) ~seed ()

let scenario_deterministic () =
  let r1 = Core.Scenario.run (quick_spec ()) in
  let r2 = Core.Scenario.run (quick_spec ()) in
  Alcotest.(check int) "same event count" r1.Core.Scenario.events_processed
    r2.Core.Scenario.events_processed;
  Alcotest.(check int) "same delivery" r1.Core.Scenario.delivered_bytes
    r2.Core.Scenario.delivered_bytes;
  Measure.Series.iteri r1.Core.Scenario.total ~f:(fun i _ v ->
      check_float "identical series" v
        (Measure.Series.value_at r2.Core.Scenario.total i))

let scenario_seed_matters () =
  let r1 = Core.Scenario.run (quick_spec ~seed:1 ()) in
  let r2 = Core.Scenario.run (quick_spec ~seed:2 ()) in
  (* The RED/rng split keeps streams per link; with drop-tail the seed
     only affects rng-split order... event counts may coincide, so check
     the weaker property: runs complete and produce sane totals. *)
  Alcotest.(check bool) "both deliver" true
    (r1.Core.Scenario.delivered_bytes > 0
     && r2.Core.Scenario.delivered_bytes > 0)

let scenario_reports_subflows () =
  let r = Core.Scenario.run (quick_spec ()) in
  Alcotest.(check int) "three subflows" 3 (List.length r.Core.Scenario.subflows);
  Alcotest.(check (list int)) "tags with default 2 first" [ 2; 1; 3 ]
    (List.map (fun s -> s.Core.Scenario.tag) r.Core.Scenario.subflows);
  List.iter
    (fun s ->
      Alcotest.(check bool) "each subflow sent" true
        (s.Core.Scenario.segments_sent > 0))
    r.Core.Scenario.subflows;
  (* Wire capture per tag is at least the subflow's acked payload. *)
  Alcotest.(check bool) "per-tag series present" true
    (List.length r.Core.Scenario.per_tag = 3)

let scenario_total_is_sum () =
  let r = Core.Scenario.run (quick_spec ()) in
  let sum = Measure.Series.sum (List.map snd r.Core.Scenario.per_tag) in
  Measure.Series.iteri r.Core.Scenario.total ~f:(fun i _ v ->
      Alcotest.(check (float 1e-6)) "total = sum of paths" v
        (Measure.Series.value_at sum i))

let scenario_feasibility () =
  (* Measured per-path wire rates can never exceed the LP region by more
     than the ACK/header slack: check each path's tail against its own
     bottleneck. *)
  let r = Core.Scenario.run (quick_spec ~duration:4 ()) in
  let topo = r.Core.Scenario.spec.Core.Scenario.topo in
  List.iteri
    (fun i (_, series) ->
      let cap_mbps =
        float_of_int
          (Netgraph.Path.bottleneck_bps topo
             (List.nth (List.map snd r.Core.Scenario.spec.Core.Scenario.paths) i))
        /. 1e6
      in
      Alcotest.(check bool)
        (Printf.sprintf "path %d below its bottleneck" (i + 1))
        true
        (Measure.Series.mean_from series ~from_s:3.0 < cap_mbps +. 2.0))
    r.Core.Scenario.per_tag

let scenario_trace () =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:2 topo in
  let spec =
    Core.Scenario.make ~topo ~paths ~cc:Mptcp.Algorithm.Cubic
      ~duration:(Engine.Time.ms 200) ~trace_limit:1000 ()
  in
  let r = Core.Scenario.run spec in
  match r.Core.Scenario.trace_text with
  | None -> Alcotest.fail "trace requested but absent"
  | Some text ->
    Alcotest.(check bool) "trace has content" true (String.length text > 100);
    Alcotest.(check bool) "mentions the destination" true
      (String.split_on_char '\n' text
       |> List.exists (fun l -> String.length l > 2 && String.sub l 0 1 = "0"))

(* --- Figures --- *)

let figures_all_present () =
  let figs = Core.Figures.all ~seed:1 () in
  Alcotest.(check (list string)) "ids" [ "1"; "1c"; "2a"; "2b"; "2c" ]
    (List.map (fun f -> f.Core.Figures.id) figs);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "figure %s has a chart" f.Core.Figures.id)
        true
        (String.length f.Core.Figures.chart > 0))
    figs

let figure_lookup () =
  Alcotest.(check bool) "2a found" true (Core.Figures.by_id "2a" <> None);
  Alcotest.(check bool) "unknown is None" true (Core.Figures.by_id "9z" = None)

let figure_csv_wellformed () =
  let f = Core.Figures.fig2a ~seed:1 () in
  let lines = String.split_on_char '\n' (String.trim f.Core.Figures.csv) in
  (* header + one row per 100 ms window over 4 s *)
  Alcotest.(check int) "41 lines" 41 (List.length lines);
  Alcotest.(check string) "header" "time_s,path1,path2,path3,total"
    (List.hd lines);
  List.iteri
    (fun i line ->
      if i > 0 then
        Alcotest.(check int)
          (Printf.sprintf "row %d has 5 columns" i)
          5
          (List.length (String.split_on_char ',' line)))
    lines

let fig2c_shape () =
  let f = Core.Figures.fig2c ~seed:1 () in
  match f.Core.Figures.result with
  | None -> Alcotest.fail "fig2c must carry a measured result"
  | Some r ->
    Alcotest.(check int) "50 windows of 10 ms" 50
      (Measure.Series.length r.Core.Scenario.total);
    (* The default path (tag 2, 40 Mbps bottleneck) must dominate the
       first half second, as in the paper. *)
    let tail t = Measure.Series.mean_from (List.assoc t r.Core.Scenario.per_tag)
        ~from_s:0.2 in
    Alcotest.(check bool) "path 2 is active early" true (tail 2 > 10.0)

(* --- headline results (slower: several seconds of simulated time) --- *)

let residency r =
  (* Fraction of post-slow-start windows at or near the optimum — the
     robust version of "found and kept the optimal throughput". *)
  Measure.Converge.fraction_above r.Core.Scenario.total
    ~target:(Core.Scenario.optimal_total_mbps r) ~tolerance:0.05 ~from_s:2.0 ()

let cubic_reaches_optimum () =
  (* Paper section 3: the default CUBIC always reached the optimum, with
     transient instability afterwards. *)
  let r = Core.Scenario.run (quick_spec ~cc:Mptcp.Algorithm.Cubic ~duration:8 ()) in
  (match Core.Scenario.time_to_optimum_s r with
  | Some t -> Alcotest.(check bool) "within the run" true (t < 8.0)
  | None -> Alcotest.fail "CUBIC should reach the optimum");
  Alcotest.(check bool)
    (Printf.sprintf "high residency near 90 (%.2f)" (residency r))
    true (residency r > 0.7);
  Alcotest.(check bool) "tail well above the greedy Pareto point" true
    (Core.Scenario.tail_mean_mbps r > 82.0)

let lia_stays_below_cubic () =
  (* Paper section 3: LIA never could reach the optimum.  In this
     simulator LIA brushes the optimum occasionally but cannot hold it:
     its residency stays far below CUBIC's. *)
  let lia = Core.Scenario.run (quick_spec ~cc:Mptcp.Algorithm.Lia ~duration:20 ()) in
  let cubic = Core.Scenario.run (quick_spec ~cc:Mptcp.Algorithm.Cubic ~duration:20 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "lia residency %.2f << cubic %.2f" (residency lia)
       (residency cubic))
    true
    (residency lia +. 0.15 < residency cubic);
  Alcotest.(check bool)
    (Printf.sprintf "lia tail %.1f below 88" (Core.Scenario.tail_mean_mbps lia))
    true
    (Core.Scenario.tail_mean_mbps lia < 88.0)

let olia_slower_than_cubic () =
  (* Fig. 2a vs 2b: within the 4 s window CUBIC has found the optimum,
     OLIA has not. *)
  let olia = Core.Scenario.run (quick_spec ~cc:Mptcp.Algorithm.Olia ~duration:4 ()) in
  let cubic = Core.Scenario.run (quick_spec ~cc:Mptcp.Algorithm.Cubic ~duration:4 ()) in
  let t_olia = Core.Scenario.time_to_optimum_s olia in
  let t_cubic = Core.Scenario.time_to_optimum_s cubic in
  Alcotest.(check bool) "cubic reached within 4 s" true (t_cubic <> None);
  Alcotest.(check bool) "olia has not reached by 4 s" true (t_olia = None)

let olia_depends_on_default_path () =
  (* Paper section 3: OLIA could reach the optimum only when Path 2 was
     the default.  With Path 1 as default it stays on a suboptimal (but
     stable) plateau for the whole 20 s run. *)
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:1 topo in
  let spec =
    Core.Scenario.make ~topo ~paths ~cc:Mptcp.Algorithm.Olia
      ~duration:(Engine.Time.s 20) ~sampling:(Engine.Time.ms 100) ()
  in
  let r = Core.Scenario.run spec in
  Alcotest.(check bool) "never reaches the optimum" true
    (Core.Scenario.time_to_optimum_s r = None);
  Alcotest.(check bool)
    (Printf.sprintf "plateau below optimum (%.1f)" (Core.Scenario.tail_mean_mbps r))
    true
    (Core.Scenario.tail_mean_mbps r < 86.0
     && Core.Scenario.tail_mean_mbps r > 60.0)

(* --- Scaling extension --- *)

let scaling_two_paths () =
  (* n = 2 with spread caps: one shared 35 Mbps bottleneck; optimum is
     simply 35, and any algorithm should fill it. *)
  let rows =
    Core.Scaling.sweep ~ns:[ 2 ] ~ccs:[ Mptcp.Algorithm.Cubic ]
      ~duration:(Engine.Time.s 8) ()
  in
  match rows with
  | [ row ] ->
    Alcotest.(check (float 1e-3)) "optimum 35" 35.0 row.Core.Scaling.optimal_mbps;
    Alcotest.(check bool)
      (Printf.sprintf "filled (%.2f)" row.Core.Scaling.ratio)
      true
      (row.Core.Scaling.ratio > 0.85)
  | _ -> Alcotest.fail "expected one row"

let scaling_ratios_sane () =
  let rows =
    Core.Scaling.sweep ~ns:[ 3; 4 ] ~ccs:Mptcp.Algorithm.[ Cubic; Lia ]
      ~duration:(Engine.Time.s 8) ()
  in
  Alcotest.(check int) "rows" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "n=%d %s ratio %.2f in (0.5, 1.02]" r.Core.Scaling.n
           (Mptcp.Algorithm.name r.Core.Scaling.cc)
           r.Core.Scaling.ratio)
        true
        (r.Core.Scaling.ratio > 0.5 && r.Core.Scaling.ratio <= 1.02))
    rows

let delayed_ack_scenario () =
  (* Delayed ACKs must not break the paper scenario, only reduce the ACK
     load; the totals stay in the same band. *)
  let r =
    Core.Scenario.run
      (let topo = Core.Paper_net.topology () in
       let paths = Core.Paper_net.tagged_paths ~default:2 topo in
       Core.Scenario.make ~topo ~paths ~cc:Mptcp.Algorithm.Cubic
         ~delayed_ack:true ~duration:(Engine.Time.s 6) ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "still near the optimum (%.1f)" (Core.Scenario.tail_mean_mbps r))
    true
    (Core.Scenario.tail_mean_mbps r > 75.0)

(* --- Summary --- *)

let summary_single_cell () =
  let rows =
    Core.Summary.sweep ~ccs:[ Mptcp.Algorithm.Cubic ] ~defaults:[ 2 ]
      ~seeds:[ 1 ] ~duration:(Engine.Time.s 6) ()
  in
  match rows with
  | [ row ] ->
    Alcotest.(check int) "one seed" 1 row.Core.Summary.seeds;
    Alcotest.(check int) "cubic reached" 1 row.Core.Summary.reached;
    Alcotest.(check bool) "tail near optimum" true
      (row.Core.Summary.mean_tail_mbps > 78.0);
    let csv = Core.Summary.to_csv rows in
    Alcotest.(check bool) "csv rows" true
      (List.length (String.split_on_char '\n' (String.trim csv)) = 2)
  | _ -> Alcotest.fail "expected exactly one row"

(* --- Parallel determinism --- *)

let runner_jobs_deterministic () =
  (* The tentpole guarantee: a sweep split across 4 domains must render
     byte-identically to the serial one — every scenario seeds its own
     Sched/Rng from the spec alone. *)
  let sweep jobs =
    Core.Summary.sweep
      ~ccs:Mptcp.Algorithm.[ Cubic; Lia ]
      ~defaults:[ 1; 2 ] ~seeds:[ 1 ]
      ~duration:(Engine.Time.s 2) ~jobs ()
  in
  let render rows = Format.asprintf "%a" Core.Summary.pp_table rows in
  let serial = sweep 1 and parallel = sweep 4 in
  Alcotest.(check string) "rendered tables identical" (render serial)
    (render parallel);
  Alcotest.(check string) "CSV identical" (Core.Summary.to_csv serial)
    (Core.Summary.to_csv parallel)

let runner_scenarios_deterministic () =
  let specs = List.map (fun seed -> quick_spec ~seed ~duration:1 ()) [ 1; 2; 3; 4 ] in
  let summaries jobs =
    Engine.Pool.map ~domains:jobs Core.Scenario.run specs
    |> List.map (fun r ->
           ( r.Core.Scenario.events_processed,
             r.Core.Scenario.delivered_bytes,
             Format.asprintf "%a" Core.Scenario.pp_summary r ))
  in
  Alcotest.(check bool) "jobs:1 = jobs:4" true (summaries 1 = summaries 4)

let runner_pool_deterministic () =
  (* The freelist is per-Net and sims stay serial inside a domain, so
     pooling must not perturb parallel determinism: the same batch on 1
     and 4 domains yields identical results AND identical pool traffic
     (acquire/recycle/release counts and wire-id totals). *)
  let specs =
    List.map (fun seed -> quick_spec ~seed ~duration:1 ()) [ 1; 2; 3 ]
  in
  let fingerprint jobs =
    Engine.Pool.map ~domains:jobs Core.Scenario.run specs
    |> List.map (fun r ->
           let s = r.Core.Scenario.pool_stats in
           ( r.Core.Scenario.events_processed,
             r.Core.Scenario.delivered_bytes,
             r.Core.Scenario.packets_created,
             ( s.Packet.Pool.acquired,
               s.Packet.Pool.recycled,
               s.Packet.Pool.released,
               s.Packet.Pool.double_releases ) ))
  in
  let f1 = fingerprint 1 and f4 = fingerprint 4 in
  Alcotest.(check bool) "pool counters identical for jobs 1 and 4" true
    (f1 = f4);
  List.iter
    (fun (_, _, created, (acquired, recycled, released, doubles)) ->
      Alcotest.(check int) "no double releases" 0 doubles;
      Alcotest.(check bool) "pool actually used" true (acquired > 0);
      Alcotest.(check bool) "recycling actually happens" true (recycled > 0);
      Alcotest.(check bool) "released within acquired" true
        (released <= acquired);
      Alcotest.(check bool) "wire ids cover pooled acquisitions" true
        (created >= acquired))
    f1

let runner_propagates_failures () =
  let boom = Invalid_argument "Scenario.make: no paths" in
  Alcotest.check_raises "spec validation escapes the pool" boom (fun () ->
      let topo = Core.Paper_net.topology () in
      ignore
        (Engine.Pool.map ~domains:2
           (fun _ -> Core.Scenario.make ~topo ~paths:[] ~cc:Mptcp.Algorithm.Cubic ())
           [ 1; 2 ]))

let make_rejects_zero_sampling () =
  let topo = Core.Paper_net.topology () in
  Alcotest.check_raises "sampling 0 rejected before the run"
    (Invalid_argument "Scenario.make: sampling period must be positive")
    (fun () ->
      ignore
        (Core.Scenario.make ~topo ~paths:(Core.Paper_net.tagged_paths topo)
           ~cc:Mptcp.Algorithm.Cubic ~sampling:Engine.Time.zero ()))

let validate_rejects_empty_send_buffer () =
  let topo = Core.Paper_net.topology () in
  let spec =
    Core.Scenario.make ~topo ~paths:(Core.Paper_net.tagged_paths topo)
      ~cc:Mptcp.Algorithm.Cubic ()
  in
  List.iter
    (fun bytes ->
      Alcotest.check_raises
        (Printf.sprintf "send buffer %d rejected" bytes)
        (Invalid_argument "Scenario.make: send buffer must be at least 1 byte")
        (fun () ->
          Core.Scenario.validate
            { spec with Core.Scenario.send_buffer = Some bytes }))
    [ 0; -5 ];
  Core.Scenario.validate { spec with Core.Scenario.send_buffer = Some 1 }

let figures_parallel_match () =
  let strip (f : Core.Figures.figure) = (f.Core.Figures.id, f.Core.Figures.chart, f.Core.Figures.csv) in
  Alcotest.(check bool) "charts identical across jobs" true
    (List.map strip (Core.Figures.all ~seed:1 ~jobs:1 ())
    = List.map strip (Core.Figures.all ~seed:1 ~jobs:4 ()))

let () =
  Alcotest.run "core"
    [
      ( "paper-net",
        [
          Alcotest.test_case "LP optimum (10,30,50), 90 total" `Quick
            paper_optimum;
          Alcotest.test_case "greedy Pareto totals" `Quick paper_greedy;
          Alcotest.test_case "default path selection" `Quick
            paper_tagged_default;
          Alcotest.test_case "path 2 is the shortest path" `Quick
            paper_shortest_is_path2;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "bit-for-bit determinism" `Quick
            scenario_deterministic;
          Alcotest.test_case "seeds vary safely" `Quick scenario_seed_matters;
          Alcotest.test_case "subflow reports" `Quick scenario_reports_subflows;
          Alcotest.test_case "total equals per-path sum" `Quick
            scenario_total_is_sum;
          Alcotest.test_case "rates respect bottlenecks" `Quick
            scenario_feasibility;
          Alcotest.test_case "packet trace on demand" `Quick scenario_trace;
          Alcotest.test_case "make rejects sampling 0" `Quick
            make_rejects_zero_sampling;
          Alcotest.test_case "validate rejects an empty send buffer" `Quick
            validate_rejects_empty_send_buffer;
        ] );
      ( "figures",
        [
          Alcotest.test_case "all five figures render" `Quick
            figures_all_present;
          Alcotest.test_case "lookup by id" `Quick figure_lookup;
          Alcotest.test_case "figure CSV well-formed" `Quick
            figure_csv_wellformed;
          Alcotest.test_case "fig 2c sampling shape" `Quick fig2c_shape;
        ] );
      ( "headline",
        [
          Alcotest.test_case "CUBIC reaches the 90 Mbps optimum" `Slow
            cubic_reaches_optimum;
          Alcotest.test_case "LIA stays at or below CUBIC" `Slow
            lia_stays_below_cubic;
          Alcotest.test_case "OLIA slower than CUBIC (Fig. 2b)" `Slow
            olia_slower_than_cubic;
          Alcotest.test_case "OLIA stuck when Path 1 is default" `Slow
            olia_depends_on_default_path;
        ] );
      ( "summary",
        [ Alcotest.test_case "single sweep cell" `Slow summary_single_cell ] );
      ( "runner",
        [
          Alcotest.test_case "sweep identical for jobs 1 and 4" `Slow
            runner_jobs_deterministic;
          Alcotest.test_case "scenario batch identical for jobs 1 and 4"
            `Quick runner_scenarios_deterministic;
          Alcotest.test_case "pool counters identical for jobs 1 and 4"
            `Quick runner_pool_deterministic;
          Alcotest.test_case "job failures propagate" `Quick
            runner_propagates_failures;
          Alcotest.test_case "figures identical across jobs" `Slow
            figures_parallel_match;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "scaling: n=2 trivially filled" `Slow
            scaling_two_paths;
          Alcotest.test_case "scaling: ratios sane for n=3,4" `Slow
            scaling_ratios_sane;
          Alcotest.test_case "delayed ACKs keep the scenario intact" `Slow
            delayed_ack_scenario;
        ] );
    ]
