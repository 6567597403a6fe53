(* Observability layer: ring semantics, trace export well-formedness,
   metrics determinism across domain counts, and the guarantee that
   attaching the collector does not perturb the simulation itself. *)

let spec ?obs ?(audit = false) ?(seed = 1) () =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:2 topo in
  Core.Scenario.make ~topo ~paths ~cc:Mptcp.Algorithm.Cubic
    ~duration:(Engine.Time.ms 600) ~sampling:(Engine.Time.ms 100) ~seed
    ~audit ?obs ()

let obs_conf ?(trace = true) ?(metrics = true) () =
  { Obs.Collect.trace; metrics }

(* --- ring --- *)

let test_ring_basic () =
  let r = Obs.Ring.create ~capacity:4 in
  Alcotest.(check int) "empty length" 0 (Obs.Ring.length r);
  List.iter (Obs.Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "under capacity" [ 1; 2; 3 ] (Obs.Ring.to_list r);
  Alcotest.(check int) "no overwrites yet" 0 (Obs.Ring.overwritten r);
  List.iter (Obs.Ring.push r) [ 4; 5; 6 ];
  Alcotest.(check (list int))
    "keeps the most recent, oldest first" [ 3; 4; 5; 6 ] (Obs.Ring.to_list r);
  Alcotest.(check int) "length capped" 4 (Obs.Ring.length r);
  Alcotest.(check int) "pushed counts everything" 6 (Obs.Ring.pushed r);
  Alcotest.(check int) "overwritten = pushed - kept" 2 (Obs.Ring.overwritten r);
  Obs.Ring.clear r;
  Alcotest.(check int) "clear empties" 0 (Obs.Ring.length r);
  Obs.Ring.push r 7;
  Alcotest.(check (list int)) "usable after clear" [ 7 ] (Obs.Ring.to_list r)

let test_ring_wrap_many () =
  let cap = 7 in
  let r = Obs.Ring.create ~capacity:cap in
  for i = 1 to 100 do
    Obs.Ring.push r i
  done;
  Alcotest.(check (list int))
    "exactly the last [capacity] values"
    (List.init cap (fun i -> 100 - cap + 1 + i))
    (Obs.Ring.to_list r);
  Alcotest.(check int) "overwritten" (100 - cap) (Obs.Ring.overwritten r);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ring.create: capacity must be >= 1") (fun () ->
      ignore (Obs.Ring.create ~capacity:0))

(* --- trace export --- *)

let substr_idx s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some (i + m)
    else go (i + 1)
  in
  go 0

let float_after line key =
  Option.map
    (fun i ->
      let j = ref i in
      let num = function
        | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
        | _ -> false
      in
      while !j < String.length line && num line.[!j] do
        incr j
      done;
      float_of_string (String.sub line i (!j - i)))
    (substr_idx line key)

let run_with_trace () =
  let result =
    Core.Scenario.run (spec ~obs:(obs_conf ()) ())
  in
  match result.Core.Scenario.obs with
  | None -> Alcotest.fail "obs missing from result"
  | Some o -> (
    match Obs.Collect.trace o with
    | None -> Alcotest.fail "trace layer missing"
    | Some tr -> tr)

let chrome_lines tr =
  let path = Filename.temp_file "obs_trace" ".json" in
  let oc = open_out path in
  Obs.Trace.write_chrome tr oc;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  List.rev !lines

let test_chrome_well_formed () =
  let tr = run_with_trace () in
  Alcotest.(check bool) "recorded events" true (Obs.Trace.recorded tr > 0);
  let lines = chrome_lines tr in
  let n = List.length lines in
  Alcotest.(check bool) "has events" true (n > 2);
  Alcotest.(check string) "array open" "[" (List.nth lines 0);
  Alcotest.(check string) "array close" "]" (List.nth lines (n - 1));
  List.iteri
    (fun i line ->
      if i > 0 && i < n - 1 then begin
        let body =
          if String.length line > 0 && line.[String.length line - 1] = ','
          then String.sub line 0 (String.length line - 1)
          else line
        in
        let last_i = i = n - 2 in
        if (not last_i) && body = line then
          Alcotest.failf "line %d misses its comma: %s" i line;
        if
          String.length body < 2
          || body.[0] <> '{'
          || body.[String.length body - 1] <> '}'
        then Alcotest.failf "line %d is not an object: %s" i line
      end)
    lines

let test_chrome_monotone_per_track () =
  let tr = run_with_trace () in
  let last : (int, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun line ->
      (* skip metadata: only timed events carry "ts" *)
      match (float_after line "\"tid\":", float_after line "\"ts\":") with
      | Some tid, Some ts ->
        let tid = int_of_float tid in
        (match Hashtbl.find_opt last tid with
        | Some prev when ts < prev ->
          Alcotest.failf "track %d goes back in time: %f after %f" tid ts prev
        | _ -> ());
        Hashtbl.replace last tid ts
      | _ -> ())
    (chrome_lines tr);
  Alcotest.(check bool) "saw several tracks" true (Hashtbl.length last >= 3)

let test_trace_ring_bounded () =
  let result =
    Core.Scenario.run (spec ~obs:(obs_conf ()) ())
  in
  let tr =
    match result.Core.Scenario.obs with
    | Some o -> Option.get (Obs.Collect.trace o)
    | None -> Alcotest.fail "obs missing"
  in
  Alcotest.(check int) "kept at most capacity" 65536
    (List.length (Obs.Trace.events tr));
  Alcotest.(check bool) "overflow recorded" true (Obs.Trace.dropped tr > 0);
  (* ring order is emission order, so sim_ns is nondecreasing *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Obs.Trace.sim_ns <= b.Obs.Trace.sim_ns && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "events time-ordered" true
    (sorted (Obs.Trace.events tr))

(* --- metrics --- *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.gauge m "engine.heap_depth" (fun () -> 42.0);
  let h = Obs.Metrics.histogram m "core.rtt_s" in
  Obs.Metrics.observe h 1.0;
  Obs.Metrics.observe h 3.0;
  Obs.Metrics.set m "core.wall_time_s" 0.5;
  Obs.Metrics.snapshot m ~sim_ns:1000;
  (match Obs.Metrics.snapshots m with
  | [ snap ] ->
    Alcotest.(check int) "snapshot stamped" 1000 snap.Obs.Metrics.sim_ns;
    let names = List.map fst snap.Obs.Metrics.values in
    Alcotest.(check (list string))
      "values sorted by name"
      [
        "core.rtt_s.count"; "core.rtt_s.max"; "core.rtt_s.mean";
        "core.rtt_s.min"; "core.rtt_s.sum"; "core.wall_time_s";
        "engine.heap_depth";
      ]
      names;
    Alcotest.(check (float 1e-9))
      "histogram mean" 2.0
      (List.assoc "core.rtt_s.mean" snap.Obs.Metrics.values)
  | snaps -> Alcotest.failf "expected 1 snapshot, got %d" (List.length snaps));
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: core.wall_time_s is a value, not a gauge")
    (fun () -> Obs.Metrics.gauge m "core.wall_time_s" (fun () -> 0.0))

(* [audit.violations] is registered at the first violation, so a clean
   run's snapshot does not list it, and then holds the count so far. *)
let test_audit_violations_value () =
  let o =
    Obs.Collect.create ~sched:(Engine.Sched.create ())
      (obs_conf ~trace:false ())
  in
  let count () =
    Obs.Collect.snapshot o;
    List.assoc_opt "audit.violations" (Obs.Collect.final_metrics o)
  in
  Alcotest.(check (option (float 0.0))) "absent while clean" None (count ());
  Obs.Collect.violation o ~invariant:"a";
  Obs.Collect.violation o ~invariant:"b";
  Alcotest.(check (option (float 0.0))) "count so far" (Some 2.0) (count ())

let is_wall (name, _) =
  substr_idx name "wall" <> None

let metric_rows result =
  match result.Core.Scenario.obs with
  | Some o -> (
    match Obs.Collect.metrics o with
    | Some m ->
      List.concat_map
        (fun s ->
          List.filter_map
            (fun ((name, v) as kv) ->
              if is_wall kv then None
              else Some (s.Obs.Metrics.sim_ns, name, v))
            s.Obs.Metrics.values)
        (Obs.Metrics.snapshots m)
    | None -> Alcotest.fail "metrics layer missing")
  | None -> Alcotest.fail "obs missing"

let test_metrics_deterministic_across_jobs () =
  let specs =
    List.map
      (fun seed -> spec ~obs:(obs_conf ~trace:false ()) ~seed ())
      [ 1; 2; 3; 4 ]
  in
  let serial = Engine.Pool.map ~domains:1 Core.Scenario.run specs in
  let parallel = Engine.Pool.map ~domains:4 Core.Scenario.run specs in
  List.iter2
    (fun a b ->
      let ra = metric_rows a and rb = metric_rows b in
      Alcotest.(check int)
        "same number of metric rows" (List.length ra) (List.length rb);
      List.iter2
        (fun (ta, na, va) (tb, nb, vb) ->
          Alcotest.(check int) "same snapshot time" ta tb;
          Alcotest.(check string) "same metric name" na nb;
          if va <> vb then
            Alcotest.failf "%s differs at %d ns: %.17g vs %.17g" na ta va vb)
        ra rb)
    serial parallel

(* --- non-perturbation --- *)

let check_series_equal msg (a : Measure.Series.t) (b : Measure.Series.t) =
  Alcotest.(check (float 0.0)) (msg ^ ": t0") a.Measure.Series.t0 b.Measure.Series.t0;
  Alcotest.(check (float 0.0)) (msg ^ ": dt") a.Measure.Series.dt b.Measure.Series.dt;
  Alcotest.(check (array (float 0.0)))
    (msg ^ ": values") a.Measure.Series.values b.Measure.Series.values

let test_obs_does_not_perturb () =
  let baseline = Core.Scenario.run (spec ()) in
  let observed = Core.Scenario.run (spec ~obs:(obs_conf ()) ()) in
  Alcotest.(check int)
    "delivered bytes identical" baseline.Core.Scenario.delivered_bytes
    observed.Core.Scenario.delivered_bytes;
  Alcotest.(check int)
    "queue drops identical" baseline.Core.Scenario.queue_drops
    observed.Core.Scenario.queue_drops;
  List.iter2
    (fun (tag_a, sa) (tag_b, sb) ->
      Alcotest.(check int) "same tag" tag_a tag_b;
      check_series_equal "per-path series" sa sb)
    baseline.Core.Scenario.per_tag observed.Core.Scenario.per_tag;
  check_series_equal "total series" baseline.Core.Scenario.total
    observed.Core.Scenario.total;
  List.iter2
    (fun (a : Core.Scenario.subflow_report) (b : Core.Scenario.subflow_report) ->
      Alcotest.(check int)
        "segments_sent identical" a.Core.Scenario.segments_sent
        b.Core.Scenario.segments_sent;
      Alcotest.(check int)
        "retransmits identical" a.Core.Scenario.retransmits
        b.Core.Scenario.retransmits)
    baseline.Core.Scenario.subflows observed.Core.Scenario.subflows;
  (* Observation changes nothing above, but it is not invisible to the
     scheduler: the metrics snapshot and the audit tick are periodic
     events, one per sampling tick (100, 200, ..., 600 ms) for each
     enabled layer, and [events_processed] counts them. *)
  let audited = Core.Scenario.run (spec ~audit:true ()) in
  let both = Core.Scenario.run (spec ~obs:(obs_conf ()) ~audit:true ()) in
  let extra r =
    r.Core.Scenario.events_processed
    - baseline.Core.Scenario.events_processed
  in
  Alcotest.(check int) "obs adds one event per tick" 6 (extra observed);
  Alcotest.(check int) "audit adds one event per tick" 6 (extra audited);
  Alcotest.(check int) "both add two events per tick" 12 (extra both);
  List.iter
    (fun (_, s) ->
      Alcotest.(check int) "one cwnd probe sample per tick" 6
        (Array.length s.Measure.Series.values))
    baseline.Core.Scenario.cwnd_series

let test_obs_chains_with_audit () =
  let result = Core.Scenario.run (spec ~obs:(obs_conf ()) ~audit:true ()) in
  (match result.Core.Scenario.audit with
  | None -> Alcotest.fail "audit report missing"
  | Some rep ->
    Alcotest.(check int) "clean audited run" 0 rep.Audit.total_violations;
    Alcotest.(check bool) "audit still ran checks" true (rep.Audit.checks > 0));
  match result.Core.Scenario.obs with
  | None -> Alcotest.fail "obs missing"
  | Some o ->
    let tr = Option.get (Obs.Collect.trace o) in
    Alcotest.(check bool) "trace captured alongside audit" true
      (Obs.Trace.recorded tr > 0)

(* --- attach order --- *)

(* The paper net wired by hand rather than through [Core.Scenario], so
   the test picks the order in which the collector and the audit
   attach.  Every observer must see every event whichever comes first:
   the collector alone counts 14466 enqueues, 1054 ACK advances and 1967
   grants in these 300 ms, and must count the same with the audit
   attached after it. *)
type observer = Collector | Auditor

let watched = [ "netsim.pkts_enqueued"; "tcp.acks"; "mptcp.sched_grants" ]

let run_attached ?(trace = false) ?(until = Engine.Time.ms 300) order =
  let sched = Engine.Sched.create () in
  let rng = Engine.Rng.create 1 in
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:2 topo in
  let net =
    Netsim.Net.create ~sched ~rng ~config:Core.Scenario.default_net_config
      topo
  in
  let first = snd (List.hd paths) in
  let src = Tcp.Endpoint.create net ~node:(Netgraph.Path.src first) in
  let dst = Tcp.Endpoint.create net ~node:(Netgraph.Path.dst first) in
  let conn =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
      ~cc:Mptcp.Algorithm.Cubic ~config:Mptcp.Connection.default_config
      ~rng:(Engine.Rng.split rng) ()
  in
  let collector = ref None and auditor = ref None in
  List.iter
    (function
      | Collector ->
        let o = Obs.Collect.create ~sched (obs_conf ~trace ()) in
        Obs.Collect.attach o net conn;
        collector := Some o
      | Auditor ->
        let a = Audit.create ~sched in
        Audit.attach_net a net;
        Audit.attach_connection a ~label:"conn1" conn;
        auditor := Some a)
    order;
  Engine.Sched.run ~until sched;
  let counters =
    Option.map
      (fun o ->
        Obs.Collect.snapshot o;
        let m = Obs.Collect.final_metrics o in
        List.map (fun name -> (name, List.assoc name m)) watched)
      !collector
  in
  let report =
    Option.map
      (fun a ->
        Audit.finish a ();
        Audit.report a)
      !auditor
  in
  (counters, report, Option.bind !collector Obs.Collect.trace)

let test_attach_order () =
  let alone, _, _ = run_attached [ Collector ] in
  let _, audit_alone, _ = run_attached [ Auditor ] in
  let both, audit_both, _ = run_attached [ Collector; Auditor ] in
  let alone = Option.get alone and both = Option.get both in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " counted") true (v > 0.0))
    alone;
  Alcotest.(check (list (pair string (float 0.0))))
    "collector attached before the audit still counts everything" alone both;
  let audit_alone = Option.get audit_alone
  and audit_both = Option.get audit_both in
  Alcotest.(check int) "audit runs every check" audit_alone.Audit.checks
    audit_both.Audit.checks;
  Alcotest.(check int) "clean run" 0 audit_both.Audit.total_violations

(* Events per kind, by the name the Chrome export gives each. *)
let kind_counts tr =
  let prefix = {|{"ph":"i","s":"t","name":"|} in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if String.starts_with ~prefix line then begin
        let i = String.length prefix in
        let name = String.sub line i (String.index_from line i '"' - i) in
        Hashtbl.replace counts name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
      end)
    (chrome_lines tr);
  List.sort compare (List.of_seq (Hashtbl.to_seq counts))

(* The check above with the trace on.  The metrics read the layers' own
   counters, so only the trace subscribes to taps: this is the variant
   that fails if the collector misses events when the audit attaches
   after it, or before it.  The run is short enough that the ring keeps
   every event. *)
let test_attach_order_traced () =
  let traced order =
    match run_attached ~trace:true ~until:(Engine.Time.ms 150) order with
    | _, _, Some tr ->
      Alcotest.(check int) "ring kept every event" 0 (Obs.Trace.dropped tr);
      (Obs.Trace.recorded tr, kind_counts tr)
    | _, _, None -> Alcotest.fail "trace missing"
  in
  let alone = traced [ Collector ] in
  Alcotest.(check bool) "saw sends, ACKs, grants and link events" true
    (List.for_all
       (fun k -> List.mem_assoc k (snd alone))
       [ "tcp.sent"; "tcp.ack"; "mptcp.sched.grant"; "link.enqueue" ]);
  List.iter
    (fun order ->
      let recorded, kinds = traced order in
      Alcotest.(check int) "events recorded" (fst alone) recorded;
      Alcotest.(check (list (pair string int))) "events per kind" (snd alone)
        kinds)
    [ [ Collector; Auditor ]; [ Auditor; Collector ] ]

(* --- pinned end-of-run metrics --- *)

(* One audited paper-net run with the metrics layer on and the trace
   off: 16-packet buffers drop, the min-RTT scheduler defers, and a
   flap of the v2-v3 link loses packets on the wire, declares subflows
   dead and reinjects their chunks.  Its final snapshot is pinned name
   by name at %.17g, so a change to how any metric is counted shows
   here. *)
let pinned_script = {|(at-s 0.3 (link-down v2 v3)) (at-s 0.6 (link-up v2 v3))|}

let pinned_run () =
  let topo = Core.Paper_net.topology () in
  Core.Scenario.run
    (Core.Scenario.make ~topo
       ~paths:(Core.Paper_net.tagged_paths ~default:2 topo)
       ~cc:Mptcp.Algorithm.Cubic ~duration:(Engine.Time.ms 1500) ~audit:true
       ~obs:(obs_conf ~trace:false ())
       ~events:
         (Events.Parse.events topo (Events.Sexp.parse_string pinned_script))
       ~rto_cap:2 ())

let pinned_metrics =
  [
    "engine.events_dispatched 80896";
    "engine.heap_depth 31";
    "mptcp.delivered_bytes 8417224";
    "mptcp.reassembly_buffered 2896";
    "mptcp.reinjections 31";
    "mptcp.reinjections_total 31";
    "mptcp.sched_defers 4";
    "mptcp.sched_grants 5844";
    "mptcp.subflow.0.goodput_bps 24768332.884010542";
    "mptcp.subflow.1.goodput_bps 10931166.43681833";
    "mptcp.subflow.2.goodput_bps 9492893.7431096248";
    "netsim.bytes_delivered 31452168";
    "netsim.no_route 0";
    "netsim.pkts_delivered 40380";
    "netsim.pkts_dropped 87";
    "netsim.pkts_enqueued 40447";
    "netsim.pkts_lost_down 60";
    "netsim.pool.acquired 11851";
    "netsim.pool.live 41";
    "netsim.pool.recycled 11756";
    "tcp.acks 4724";
    "tcp.cwnd.0 8.7629196420170246";
    "tcp.cwnd.1 32.033468819585096";
    "tcp.cwnd.2 5.9171218432404178";
    "tcp.retransmits 125";
    "tcp.segments_delivered 5846";
    "tcp.segments_sent 5875";
  ]

let test_pinned_metrics () =
  let r = pinned_run () in
  (match r.Core.Scenario.audit with
  | Some rep -> Alcotest.(check int) "clean run" 0 rep.Audit.total_violations
  | None -> Alcotest.fail "audit report missing");
  let final =
    match r.Core.Scenario.obs with
    | Some o -> Obs.Collect.final_metrics o
    | None -> Alcotest.fail "obs missing"
  in
  List.iter
    (fun name ->
      if List.assoc name final = 0.0 then Alcotest.failf "%s is 0" name)
    [ "netsim.pkts_dropped"; "netsim.pkts_lost_down"; "tcp.retransmits";
      "mptcp.sched_defers"; "mptcp.reinjections" ];
  Alcotest.(check (list string))
    "final metrics" pinned_metrics
    (List.map (fun (name, v) -> Printf.sprintf "%s %.17g" name v) final)

(* --- cost of the metrics layer --- *)

(* The metrics layer samples counters the layers keep anyway, so a run
   with it on allocates about what a plain run does: words per packet
   of a 4 s CUBIC paper run (default path 2), each bracketed after a
   warm-up run as test_events' failover allocation test does, stay
   within 1.1x of the plain run's. *)
let words_per_packet ?obs () =
  let run () =
    let topo = Core.Paper_net.topology () in
    Core.Scenario.run
      (Core.Scenario.make ~topo
         ~paths:(Core.Paper_net.tagged_paths ~default:2 topo)
         ~cc:Mptcp.Algorithm.Cubic ?obs ())
  in
  ignore (run ());
  let c0 = Engine.Gctune.counters () in
  let r = run () in
  let d = Engine.Gctune.diff c0 (Engine.Gctune.counters ()) in
  Engine.Gctune.allocated_words d
  /. float_of_int r.Core.Scenario.packets_created

let test_metrics_alloc () =
  let plain = words_per_packet () in
  let metered = words_per_packet ~obs:(obs_conf ~trace:false ()) () in
  if metered > 1.1 *. plain then
    Alcotest.failf "metrics on %.1f words/packet > 1.1x plain %.1f" metered
      plain

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "push/overwrite" `Quick test_ring_basic;
          Alcotest.test_case "wrap far past capacity" `Quick
            test_ring_wrap_many;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome json well-formed" `Quick
            test_chrome_well_formed;
          Alcotest.test_case "monotone per track" `Quick
            test_chrome_monotone_per_track;
          Alcotest.test_case "ring bounded" `Quick test_trace_ring_bounded;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_metrics_deterministic_across_jobs;
          Alcotest.test_case "audit violations value" `Quick
            test_audit_violations_value;
        ] );
      ( "integration",
        [
          Alcotest.test_case "no perturbation" `Quick
            test_obs_does_not_perturb;
          Alcotest.test_case "chains with audit" `Quick
            test_obs_chains_with_audit;
          Alcotest.test_case "attach order does not matter, trace on" `Quick
            test_attach_order_traced;
          Alcotest.test_case "attach order does not matter" `Quick
            test_attach_order;
          Alcotest.test_case "pinned final metrics" `Quick
            test_pinned_metrics;
          Alcotest.test_case "metrics words/packet <= 1.1x plain" `Quick
            test_metrics_alloc;
        ] );
    ]
