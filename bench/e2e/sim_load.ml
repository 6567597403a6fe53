(* The three simulation workloads.  Each one is a fixed set of scenario
   specs generated from the seed; the timed window runs them round-robin,
   one [Scenario.run] plus its summary per operation, as a user of the
   library or the [run] command does. *)

type input = { label : string; spec : Core.Scenario.spec }

type def = {
  name : string;
  ccs : Mptcp.Algorithm.t list;  (* CC mix of the inputs *)
  build : quick:bool -> seed:int -> (string * (unit -> Core.Scenario.spec)) list;
      (* the inputs, as labelled constructors: set-up runs them *)
  accuracy : unit -> Report.check * (Report.metric * string) list;
      (* a workload's own accuracy check, run once per timed run *)
}

let secs = Events.Parse.time_of_s

let no_accuracy () = (Report.check "accuracy" true "not applicable", [])

(* ---- paper_grid ---- *)

(* The paper's 9 runs: 3 CCs x default path 1/2/3 on the paper net with
   16-packet drop-tail buffers, 2 s each.  Short runs give each input
   many runs in the window, and so a fastest run that the machine's
   bursts of interference have not slowed (see [run]). *)
let paper_grid =
  let cells =
    List.concat_map (fun cc -> List.map (fun d -> (cc, d)) [ 1; 2; 3 ]) (Array.to_list Gen.ccs)
  in
  {
    name = "paper_grid";
    ccs = Array.to_list Gen.ccs;
    build =
      (fun ~quick ~seed ->
        List.mapi
          (fun k (cc, default) ->
            ( Printf.sprintf "%s-d%d" (Mptcp.Algorithm.name cc) default,
              fun () ->
                let topo = Core.Paper_net.topology () in
                Core.Scenario.make ~topo
                  ~paths:(Core.Paper_net.tagged_paths ~default topo)
                  ~cc ~duration:(secs (if quick then 0.25 else 2.0))
                  ~seed:(Gen.scenario_seed seed k) () ))
          cells);
    accuracy = no_accuracy;
  }

(* ---- churn_jitter ---- *)

(* Paper net with 100 us link jitter and an RTO cap of 2, under churn
   scripts (one link action per simulated second, 2 s), for each of the
   3 CCs.  Jitter takes every packet off the jitter-free link path.

   With the RTO cap set, the connection records which subflow carries
   each chunk above the data ACK, and copies that table on every grant
   once it holds more than 64 chunks (Connection.gc_chunk_owners).  The
   table is as large as the data the send buffer lets past a stalled
   data ACK, so the inputs come in two groups:

   - 9 seeded scripts x 3 CCs with a 512 KiB connection-level send
     buffer.  Linux gives a TCP socket room for about twice its
     congestion window, and an MPTCP socket the sum of its subflows';
     here the three windows together peak at 70 packets (median over the
     108 inputs of seeds 1 to 4; 90th percentile 97), at most about
     300 KB by that rule.  The buffer holds the table to 359 chunks.  A
     run's cost follows its chaotic dynamics; summed over the 27 inputs,
     the events a seed's runs process vary by 4 % (coefficient of
     variation over seeds 1 to 12).
   - Script 0 of seed 0 x 3 CCs with the default, unbounded send buffer,
     whatever the benchmark seed.  There the copies grow with the square
     of how long the data ACK stalls: 3 CCs x 12 s cost 0.7 s to 3.3 s
     over seeds 1 to 8, and one 2.5 s run under a loss spell took 24 s.
     Fixed inputs keep that path measured without making the workload's
     cost a function of the seed. *)
let churn_send_buffer = 512 * 1024

let churn_input ~seconds ~seed ~index ?send_buffer label c cc =
  ( Printf.sprintf "%s%d-%s" label index (Mptcp.Algorithm.name cc),
    fun () ->
      let topo = Core.Paper_net.topology () in
      Core.Scenario.make ~topo
        ~paths:(Core.Paper_net.tagged_paths ~default:2 topo)
        ~cc ~duration:(Engine.Time.s seconds)
        ~seed:(Gen.scenario_seed seed ((10 * index) + c))
        ~net_config:
          { Core.Scenario.default_net_config with
            Netsim.Net.delay_jitter = Engine.Time.us 100 }
        ~rto_cap:2 ?send_buffer
        ~events:(Gen.churn_script ~seed ~index ~topo ~seconds)
        () )

let churn_jitter =
  {
    name = "churn_jitter";
    ccs = Array.to_list Gen.ccs;
    build =
      (fun ~quick ~seed ->
        let seconds = if quick then 1 else 2 in
        let ccs = Array.to_list Gen.ccs in
        List.concat
          (List.init (if quick then 3 else 9) (fun index ->
               List.mapi
                 (churn_input ~seconds ~seed ~index ~send_buffer:churn_send_buffer
                    "script")
                 ccs))
        @ List.mapi (churn_input ~seconds ~seed:0 ~index:0 "unbounded") ccs);
    accuracy = no_accuracy;
  }

(* ---- hybrid_light ---- *)

(* LIA on the paper net plus 1000 constant-rate fluid classes x 10
   flows, 30 Mbps in all, on the shortest path: the unsaturated regime in
   which the fluid model (Peng et al., arXiv:1308.3119) claims accuracy.
   8 seeded inputs of 0.25 s: a run's cost grows in proportion to its
   length, and short runs give each input more runs in the window.  LIA,
   not CUBIC, because the field's ODE step count, and so a run's cost,
   varies less across seeds under LIA (CV over 12 seeds at 2 s: 3.9 %,
   against 6.2 % under CUBIC; the 8 inputs' summed step count varies
   by 3.3 %).

   The accuracy check runs once per timed run at a fixed point, whatever
   the seed: CUBIC for 2 s at scenario seed 1, against the same run with
   the 30 Mbps as one packet-level CBR source.  A single trajectory's
   foreground goodput under fluid and under packet background differs
   by a few percent either way (the fluid model is unbiased over seeds,
   not exact per run), so the check is made at one point, as the hybrid
   accuracy tests do. *)
let bg_classes = 1000
let bg_flows = 10
let bg_total_bps = 30_000_000
let hybrid_inputs = 8

let hybrid_events topo ~packet =
  let s = Netgraph.Topology.node_id topo "s" and d = Netgraph.Topology.node_id topo "d" in
  let action =
    if packet then
      Events.Event.Traffic_start
        { src = s; dst = d; tag = 100; rate_bps = bg_total_bps; stop_at = None }
    else
      Events.Event.Background_start
        { src = s; dst = d; classes = bg_classes; flows = bg_flows; cc = None;
          rate_bps = bg_total_bps / (bg_classes * bg_flows);
          rtt = Engine.Time.ms 20 }
  in
  [ Events.Event.at action ~at:Engine.Time.zero ]

let hybrid_spec ~cc ~duration_s ~seed ~packet () =
  let topo = Core.Paper_net.topology () in
  Core.Scenario.make ~topo
    ~paths:(Core.Paper_net.tagged_paths ~default:2 topo)
    ~cc ~duration:(secs duration_s) ~seed
    ~events:(hybrid_events topo ~packet) ()

let accuracy_point = hybrid_spec ~cc:Mptcp.Algorithm.Cubic ~duration_s:2.0 ~seed:1

let hybrid_light =
  {
    name = "hybrid_light";
    ccs = [ Mptcp.Algorithm.Lia ];
    build =
      (fun ~quick ~seed ->
        List.init (if quick then 1 else hybrid_inputs) (fun k ->
            ( Printf.sprintf "lia-%d" k,
              hybrid_spec ~cc:Mptcp.Algorithm.Lia ~duration_s:0.25
                ~seed:(Gen.scenario_seed seed k) ~packet:false )));
    accuracy =
      (fun () ->
        let tail packet =
          Core.Scenario.tail_mean_mbps (Core.Scenario.run (accuracy_point ~packet ()))
        in
        let fg_h = tail false and fg_p = tail true in
        let err = 100. *. Float.abs (fg_h -. fg_p) /. fg_p in
        ( Report.check "fg_error_pct <= 5" (err <= 5.)
            (Printf.sprintf "%.3f %% (fluid %.3f vs packet %.3f Mbps)" err fg_h fg_p),
          [ (Report.metric "fg_error_pct" err "%", "lower") ] ));
  }

let all = [ paper_grid; churn_jitter; hybrid_light ]

(* ---- running ---- *)

let sim_s (i : input) = Engine.Time.to_float_s i.spec.Core.Scenario.duration

(* What a caller reads off a run: delivered bytes and the tail goodput,
   total and per path.  Observation (metrics layer, audit) must leave it
   unchanged. *)
let outcome r =
  Printf.sprintf "delivered=%d tail=%.17g paths=%s" r.Core.Scenario.delivered_bytes
    (Core.Scenario.tail_mean_mbps r)
    (String.concat ","
       (List.map
          (fun (tag, m) -> Printf.sprintf "%d:%.17g" tag m)
          (Core.Scenario.per_path_tail_mbps r)))

(* The deterministic digest of one plain run: its outcome and event
   count.  Equal specs must give equal digests. *)
let digest r o = Printf.sprintf "events=%d %s" r.Core.Scenario.events_processed o

let setup cfg def =
  Span.with_ "setup" (fun _ ->
      Array.of_list
        (List.map
           (fun (label, mk) -> { label; spec = Span.with_ "Scenario.make" (fun _ -> mk ()) })
           (def.build ~quick:cfg.Cfg.quick ~seed:cfg.Cfg.seed)))

(* Build every input and instantiate it: a zero-length [Scenario.run]
   sets up the network, connection, timed events and fluid field, and
   simulates nothing. *)
let instantiate cfg def =
  Array.iter
    (fun i -> ignore (Core.Scenario.run { i.spec with Core.Scenario.duration = Engine.Time.zero }))
    (setup cfg def)

(* One set-up sample: what a user pays before the first simulated event.
   A fresh process of this benchmark starts, runs [instantiate] and
   exits, so the sample holds runtime and library start-up, spec
   building and run set-up. *)
let setup_sample (cfg : Cfg.t) def =
  let argv =
    [ Sys.executable_name; "--setup-only"; "--workload"; def.name;
      "--seed"; string_of_int cfg.seed ]
    @ if cfg.quick then [ "--quick" ] else []
  in
  let t0 = Stat.now () in
  match Cfg.run_child (Array.of_list argv) with
  | Unix.WEXITED 0 -> Stat.now () -. t0
  | _ -> failwith (def.name ^ ": set-up process failed")

(* One operation: run and summarise. *)
let op (i : input) spec =
  Span.with_ ("run " ^ i.label) (fun _ ->
      let r = Span.with_ "Scenario.run" (fun _ -> Core.Scenario.run spec) in
      (r, Span.with_ "summary" (fun _ -> outcome r)))

(* The unmeasured warm-up rep; its results are the references. *)
let warm_up inputs = Span.with_ "warm-up" (fun _ -> Array.map (fun i -> op i i.spec) inputs)

let workload_digest refs =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (Array.to_list (Array.map (fun (r, o) -> digest r o) refs))))

(* Operations run, and what they add up to. *)
type tally = {
  per_input : Stat.Samples.t array;  (* seconds per run, by input; +inf if it failed *)
  mutable runs : int;
  mutable failed : int;
  mutable mismatches : int;  (* runs whose digest differs from the warm-up's *)
}

let tally n =
  { per_input = Array.init n (fun _ -> Stat.Samples.create ()); runs = 0; failed = 0;
    mismatches = 0 }

(* Run input [k] with [spec] (its own, or an observed variant, whose
   event count differs by the observer's own events). *)
let timed_op ?(observed = false) t inputs refs k spec =
  let a = Stat.now () in
  let record dt =
    t.runs <- t.runs + 1;
    Stat.Samples.add t.per_input.(k) dt
  in
  match op inputs.(k) spec with
  | r, o ->
    record (Stat.now () -. a);
    let ref_r, ref_o = refs.(k) in
    if (if observed then o <> ref_o else digest r o <> digest ref_r ref_o) then
      t.mismatches <- t.mismatches + 1;
    Some r
  | exception e ->
    Printf.eprintf "%s: %s\n%!" inputs.(k).label (Printexc.to_string e);
    record infinity;
    t.failed <- t.failed + 1;
    None

let checks t =
  [ Report.check "digest repeats across reps" (t.mismatches = 0)
      (Printf.sprintf "%d of %d runs differ" t.mismatches t.runs);
    Report.check "no operation failed" (t.failed = 0) (Printf.sprintf "%d failed" t.failed) ]

(* The timed run: three set-up samples, one warm-up rep, then the inputs
   round-robin until [seconds] have passed and each has run at least
   once, with one more set-up sample every half second, so that their
   median, like the other metrics, covers the whole window.

   Every input is a deterministic computation, so its repeats differ
   only by interference from the rest of the machine, which on a shared
   host comes in bursts and drifts over tens of seconds.  Each input's
   cost is therefore its fastest run in the window: throughput is the
   rate at which the input set completes at those costs, and latency
   percentiles, sim rate and event rate are taken over the same
   costs. *)
let run (cfg : Cfg.t) def =
  let inputs = setup cfg def in
  let setups = ref (List.init 3 (fun _ -> setup_sample cfg def)) in
  let n = Array.length inputs in
  let refs = warm_up inputs in
  let t = tally n in
  let t0 = Stat.now () in
  let k = ref 0 and next_setup = ref t0 in
  while Stat.now () < t0 +. cfg.seconds || !k < n do
    ignore (timed_op t inputs refs (!k mod n) inputs.(!k mod n).spec);
    incr k;
    if Stat.now () >= !next_setup then begin
      setups := setup_sample cfg def :: !setups;
      next_setup := Stat.now () +. 0.5
    end
  done;
  let rss = Stat.peak_rss_mb "self" in
  (* an input that failed once has no cost: it counts at +inf *)
  let best =
    Array.map
      (fun s ->
        let a = Stat.Samples.to_array s in
        if Array.mem infinity a then infinity else Array.fold_left Float.min infinity a)
      t.per_input
  in
  let sum f = Array.fold_left (fun acc x -> acc +. f x) 0. in
  let set_s = sum Fun.id best in
  let accuracy, extras = Span.with_ "accuracy check" (fun _ -> def.accuracy ()) in
  {
    Report.workload = def.name;
    seed = cfg.seed;
    traced = false;
    attempted = t.runs;
    failed = t.failed;
    metrics =
      Report.e2e ~setup_s:(Stat.median (Array.of_list !setups))
        ~throughput:(float_of_int n /. set_s) ~rss;
    extras =
      extras
      @ [ (Report.metric "latency_p50_ms" (1e3 *. Stat.median best) "ms", "lower");
          (Report.metric "latency_p90_ms" (1e3 *. Stat.percentile best 90.) "ms", "lower");
          (Report.metric "sim_rate" (sum sim_s inputs /. set_s) "sim-s/s", "higher");
          ( Report.metric "events_per_s"
              (sum (fun (r, _) -> float_of_int r.Core.Scenario.events_processed) refs /. set_s)
              "1/s",
            "higher" ) ];
    checks = checks t @ [ accuracy ];
    digest = workload_digest refs;
  }

(* ---- the traced run ---- *)

(* A spec as the result service runs it: metrics layer on. *)
let with_metrics (spec : Core.Scenario.spec) =
  { spec with
    Core.Scenario.obs = Some { Obs.Collect.default_conf with Obs.Collect.trace = false } }

(* One rep over every input, each spec transformed by [f]: the summed
   wall seconds and the results. *)
let rep ~name ?observed inputs refs t f =
  Span.with_ name (fun _ ->
      let a = Stat.now () in
      let rs =
        Array.mapi (fun k i -> timed_op ?observed t inputs refs k (f i.spec)) inputs
      in
      (Stat.now () -. a, List.filter_map Fun.id (Array.to_list rs)))

(* Counts from a metrics-layer rep, unit costs at this workload's
   operating point, and the ledger of the two against the fastest
   untraced rep.  An untraced rep, a metrics-layer rep and a sample of
   the unit costs take turns over the window; the fastest of each is
   kept, so that all of them come from the machine's fastest moments.
   The two reps' fastest walls give the tracing overhead.  One audited
   rep closes the run. *)
let traced (cfg : Cfg.t) def =
  let inputs = setup cfg def in
  let refs = warm_up inputs in
  let t = tally (Array.length inputs) in
  let plain = ref infinity and traced = ref infinity in
  let words_per_pkt = ref 0. and counts = ref Layers.zero and units = ref None in
  let point counts =
    { Layers.net_config = inputs.(0).spec.Core.Scenario.net_config;
      rto_cap = inputs.(0).spec.Core.Scenario.rto_cap;
      send_buffer = inputs.(0).spec.Core.Scenario.send_buffer;
      ccs = def.ccs;
      depth = Layers.mean_depth counts }
  in
  let t0 = Stat.now () in
  while Stat.now () < t0 +. cfg.seconds || !traced = infinity do
    let w0 = Gc.minor_words () in
    let wall, rs = rep ~name:"rep" inputs refs t Fun.id in
    if wall < !plain then begin
      plain := wall;
      let pkts = List.fold_left (fun acc r -> acc + r.Core.Scenario.packets_created) 0 rs in
      words_per_pkt := (Gc.minor_words () -. w0) /. float_of_int (max 1 pkts)
    end;
    let wall, rs = rep ~name:"rep (metrics on)" ~observed:true inputs refs t with_metrics in
    if wall < !traced then traced := wall;
    counts := Layers.sum (List.map Layers.of_result rs);
    let u = Layers.measure (point !counts) in
    units := Some (Option.fold ~none:u ~some:(Layers.fastest_of u) !units)
  done;
  let _, audited =
    rep ~name:"rep (audit on)" ~observed:true inputs refs t (fun (s : Core.Scenario.spec) ->
        { s with Core.Scenario.audit = true })
  in
  let violations =
    List.fold_left
      (fun acc r ->
        acc + Option.fold ~none:1 ~some:(fun a -> a.Audit.total_violations) r.Core.Scenario.audit)
      0 audited
  in
  let per_input_ms f =
    1e3 *. Stat.unit_cost ~units:(Array.length inputs) (fun () () -> Array.iteri f inputs)
  in
  let makers = Array.of_list (List.map snd (def.build ~quick:cfg.quick ~seed:cfg.seed)) in
  let core =
    { Layers.make_ms = per_input_ms (fun k _ -> ignore (makers.(k) ()));
      lp_ms = per_input_ms (fun _ i -> ignore (Core.Scenario.optimum_rates i.spec));
      summary_ms = per_input_ms (fun k _ -> ignore (outcome (fst refs.(k)))) }
  in
  let records =
    Array.to_list
      (Array.mapi
         (fun k (r, _) ->
           Serve.Store.of_result ~hash:(Core.Canon.hash inputs.(k).spec)
             ~label:inputs.(k).label ~wall_s:0. ~alloc_words:0. ~created_unix:0. r)
         refs)
  in
  let serve =
    Layers.serve_costs
      ~dir:(Filename.temp_dir ~temp_dir:cfg.tmp "store" "")
      ~form:(Gen.hot_form ~quick:cfg.quick ~seed:cfg.seed 0) ~records
  in
  let metrics, lines =
    Layers.metrics
      { Layers.units = Option.get !units; counts = !counts; wall_s = !plain; core; serve;
        trace_overhead_pct = 100. *. (!traced -. !plain) /. !plain;
        words_per_pkt = !words_per_pkt; hit_latency_us = 0.; miss_overhead_ms = 0.;
        daemon_counters = (0, 0, 0) }
  in
  List.iter print_endline lines;
  {
    Report.workload = def.name;
    seed = cfg.seed;
    traced = true;
    attempted = t.runs;
    failed = t.failed;
    metrics;
    extras = [];
    checks =
      checks t
      @ [ Report.check "audit: zero violations" (violations = 0)
            (Printf.sprintf "%d violations over %d audited runs" violations
               (List.length audited)) ];
    digest = workload_digest refs;
  }
