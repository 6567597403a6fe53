(* Conformance tier for the dynamic-events workload pack: the scenario
   DSL parser, the Path_manager liveness registry, and golden
   goodput/completion-time pins for the headline dynamic scenarios —
   primary-path kill mid-transfer (MPTCP reroutes, single-path TCP
   stalls), WiFi->LTE handover, and the 10% lossy-link regime.  Every
   dynamic run executes under the full invariant audit, so the new
   link.down-delivery and subflow-churn checks are exercised here too. *)

open Events.Sexp

let parse = Events.Sexp.parse_string

let failover_topo () =
  Events.Parse.topology
    (parse
       {|
       ; slow primary through p1, fast backup through p2
       (topology
        (nodes a p1 p2 z)
        (links
         (a p1 (mbps 10) (delay-ms 5))
         (p1 z (mbps 10) (delay-ms 5))
         (a p2 (mbps 90) (delay-ms 5))
         (p2 z (mbps 90) (delay-ms 5))))|})

let both_paths topo =
  Mptcp.Path_manager.tag_paths
    [
      Netgraph.Path.of_names topo [ "a"; "p1"; "z" ];
      Netgraph.Path.of_names topo [ "a"; "p2"; "z" ];
    ]

(* Deep enough buffers that the 90 Mbps path runs near capacity; the
   examples/*.sexp files use the same setting. *)
let net_config = { Core.Scenario.default_net_config with limit_pkts = 64 }

let run_spec ?(scheduler = Mptcp.Scheduler.Min_rtt) ?events ?rto_cap ?duration
    ~paths ~total_bytes topo =
  Core.Scenario.run
    (Core.Scenario.make ~topo ~paths ~cc:Mptcp.Algorithm.Lia ~scheduler
       ?duration ~net_config ~total_bytes ~audit:true ?events ?rto_cap ())

let violations r =
  match r.Core.Scenario.audit with
  | None -> Alcotest.fail "audit report missing"
  | Some rep -> rep.Audit.total_violations

let check_clean name r = Alcotest.(check int) (name ^ ": audit") 0 (violations r)

let completed name r =
  match r.Core.Scenario.completed_at_s with
  | Some t -> t
  | None -> Alcotest.failf "%s: transfer did not complete" name

(* --- S-expression parser --- *)

let sexp_basics () =
  (match parse "(a (b c) d) e" with
  | [ List [ Atom "a"; List [ Atom "b"; Atom "c" ]; Atom "d" ]; Atom "e" ] ->
    ()
  | _ -> Alcotest.fail "unexpected parse");
  (match parse "; comment\n(x ; trailing\n 1.5)" with
  | [ List [ Atom "x"; Atom "1.5" ] ] -> ()
  | _ -> Alcotest.fail "comments not stripped");
  Alcotest.(check string)
    "round trip" "(a (b c) d)"
    (Events.Sexp.to_string (List.hd (parse "( a ( b c )\n d )")))

let sexp_errors () =
  let raises what input =
    match parse input with
    | exception Events.Sexp.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  raises "unbalanced open" "(a (b)";
  raises "unbalanced close" "a))";
  raises "empty input can't hide an open paren" "((()"

let parse_converters () =
  Alcotest.(check int)
    "mbps" 25_000_000
    (Events.Parse.rate_exn (List.hd (parse "(mbps 25)")));
  Alcotest.(check int)
    "bps" 1234 (Events.Parse.rate_exn (List.hd (parse "(bps 1234)")));
  Alcotest.(check bool)
    "ms" true
    (Events.Parse.duration_exn (List.hd (parse "(ms 40)")) = Engine.Time.ms 40);
  (match Events.Parse.time_of_s (-1.0) with
  | exception Events.Sexp.Parse_error _ -> ()
  | _ -> Alcotest.fail "negative time accepted");
  match Events.Parse.rate_exn (List.hd (parse "(mbps -3)")) with
  | exception Events.Sexp.Parse_error _ -> ()
  | _ -> Alcotest.fail "negative rate accepted"

let parse_actions () =
  let topo = failover_topo () in
  let evs =
    Events.Parse.events topo
      (parse
         {|(at-s 1 (link-down a p1))
           (at-s 2 (capacity-ramp a p2 (mbps 40) (over-s 2) (steps 8)))
           (at-s 2.5 (delay-set p1 z (ms 20)))
           (at-s 3 (loss-set a p1 0.1))
           (at-s 4 (subflow-close 0))
           (at-s 5 (traffic-start a z (tag 9) (mbps 20) (stop-s 8)))|})
  in
  Alcotest.(check int) "count" 6 (List.length evs);
  Alcotest.(check (list string))
    "validates" []
    (Events.Event.validate ~topo ~num_subflows:2 ~reserved_tags:[ 1; 2 ] evs);
  (match (List.hd evs).Events.Event.action with
  | Events.Event.Link_down { link } ->
    let expect =
      match Netgraph.Topology.find_link topo ~u:0 ~v:1 with
      | Some l -> l.Netgraph.Topology.id
      | None -> Alcotest.fail "a-p1 missing"
    in
    Alcotest.(check int) "link id" expect link
  | _ -> Alcotest.fail "first action not link-down");
  let rejects what src =
    match Events.Parse.events topo (parse src) with
    | exception Events.Sexp.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "unknown node" "(at-s 1 (link-down a nowhere))";
  (* Attributes are read by the shared field readers: a field with the
     wrong number of values is an error, never a silent default. *)
  (match
     Events.Parse.events topo
       (parse "(at-s 1 (capacity-ramp a p2 (mbps 5) (over-s 0.1) (steps 4)))")
   with
  | [ { Events.Event.action = Events.Event.Capacity_ramp { steps; _ }; _ } ] ->
    Alcotest.(check int) "(steps 4)" 4 steps
  | _ -> Alcotest.fail "capacity-ramp with (steps 4) did not parse");
  rejects "(steps 1 2)"
    "(at-s 1 (capacity-ramp a p2 (mbps 5) (over-s 0.1) (steps 1 2)))";
  rejects "(over-s) without a value"
    "(at-s 1 (capacity-ramp a p2 (mbps 5) (over-s)))";
  rejects "(stop-s 1 2)"
    "(at-s 1 (traffic-start a z (tag 9) (mbps 20) (stop-s 1 2)))";
  rejects "(flows 1 2)"
    "(at-s 1 (background a z (count 2) (flows 1 2) (mbps 1) (rtt-ms 20)))";
  match
    Events.Parse.topology
      (parse "(topology (nodes a z) (links (a z (mbps 10 20) (delay-ms 5))))")
  with
  | exception Events.Sexp.Parse_error _ -> ()
  | _ -> Alcotest.fail "link (mbps 10 20) accepted"

let validate_rejects () =
  let topo = failover_topo () in
  let ev src = Events.Parse.events topo (parse src) in
  let expect_error what src =
    match
      Events.Event.validate ~topo ~num_subflows:2 ~reserved_tags:[ 1; 2 ]
        (ev src)
    with
    | [] -> Alcotest.failf "%s passed validation" what
    | _ -> ()
  in
  (* raising capacity above the declared topology rate would invalidate
     the static LP bound the audit checks against *)
  expect_error "capacity above declared" "(at-s 1 (capacity-set a p1 (mbps 20)))";
  expect_error "loss above 1" "(at-s 1 (loss-set a p1 1.5))";
  expect_error "subflow out of range" "(at-s 1 (subflow-close 7))";
  expect_error "reserved traffic tag" "(at-s 1 (traffic-start a z (tag 2) (mbps 1)))";
  Alcotest.(check (list string))
    "in-range events pass" []
    (Events.Event.validate ~topo ~num_subflows:2 ~reserved_tags:[ 1; 2 ]
       (ev "(at-s 1 (capacity-set a p1 (mbps 5)))"))

let expfile_examples () =
  (* every checked-in scenario file must parse and validate; cwd is
     test/ under `dune runtest` but the root under `dune exec` *)
  let dir =
    match
      List.find_opt
        (fun d -> Sys.file_exists (Filename.concat d "failover_topo.sexp"))
        [ "../examples"; "examples" ]
    with
    | Some d -> d
    | None -> Alcotest.fail "examples directory not found"
  in
  List.iter
    (fun (t, x) ->
      let _topo, spec =
        Core.Expfile.load
          ~topo_file:(Filename.concat dir t)
          ~xp_file:(Filename.concat dir x)
      in
      ignore (spec : Core.Scenario.spec))
    [
      ("failover_topo.sexp", "failover_xp.sexp");
      ("failover_topo.sexp", "tcp_killed_xp.sexp");
      ("failover_topo.sexp", "lossy_xp.sexp");
      ("handover_topo.sexp", "handover_xp.sexp");
    ]

(* --- Path_manager.Liveness (satellite: deactivate/reactivate hook) --- *)

let liveness_basics () =
  let topo = failover_topo () in
  let lv = Mptcp.Path_manager.Liveness.create (both_paths topo) in
  let log = ref [] in
  Mptcp.Path_manager.Liveness.set_on_change lv
    (Some (fun ~tag ~active -> log := (tag, active) :: !log));
  Alcotest.(check int) "all start active" 2
    (Mptcp.Path_manager.Liveness.active_count lv);
  Alcotest.(check bool) "deactivate transitions" true
    (Mptcp.Path_manager.Liveness.deactivate lv ~tag:1);
  Alcotest.(check bool) "deactivate is idempotent" false
    (Mptcp.Path_manager.Liveness.deactivate lv ~tag:1);
  Alcotest.(check bool) "now inactive" false
    (Mptcp.Path_manager.Liveness.is_active lv ~tag:1);
  Alcotest.(check bool) "other path untouched" true
    (Mptcp.Path_manager.Liveness.is_active lv ~tag:2);
  Alcotest.(check bool) "reactivate transitions" true
    (Mptcp.Path_manager.Liveness.reactivate lv ~tag:1);
  Alcotest.(check bool) "reactivate is idempotent" false
    (Mptcp.Path_manager.Liveness.reactivate lv ~tag:1);
  Alcotest.(check int) "churn counts transitions only" 2
    (Mptcp.Path_manager.Liveness.churn lv);
  Alcotest.(check (list (pair int bool)))
    "hook saw both transitions, in order"
    [ (1, false); (1, true) ]
    (List.rev !log);
  match Mptcp.Path_manager.Liveness.is_active lv ~tag:9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown tag accepted"

(* --- Headline goldens --- *)

(* Primary-path kill at 50% of a 100 MB transfer: MPTCP must finish
   within 1.2x the no-failure completion time (the paper-level
   resilience claim), while a single-path flow pinned to the killed
   path never completes. *)
let failover_100mb () =
  let topo = failover_topo () in
  let total_bytes = 100_000_000 in
  let duration = Engine.Time.s 20 in
  let baseline =
    run_spec ~paths:(both_paths topo) ~total_bytes ~duration topo
  in
  check_clean "baseline" baseline;
  let t0 = completed "baseline" baseline in
  let kill_at = Engine.Time.of_float_s (t0 /. 2.0) in
  let link =
    match Netgraph.Topology.find_link topo ~u:0 ~v:1 with
    | Some l -> l.Netgraph.Topology.id
    | None -> Alcotest.fail "a-p1 missing"
  in
  let events = [ Events.Event.(at (Link_down { link }) ~at:kill_at) ] in
  let failover =
    run_spec ~paths:(both_paths topo) ~total_bytes ~duration ~events
      ~rto_cap:2 topo
  in
  check_clean "failover" failover;
  let t1 = completed "failover" failover in
  if t1 > 1.2 *. t0 then
    Alcotest.failf "failover too slow: %.2fs vs %.2fs no-failure (>1.2x)" t1
      t0;
  Alcotest.(check int) "one liveness transition" 1
    failover.Core.Scenario.subflow_churn;
  Alcotest.(check int) "every byte arrived" total_bytes
    failover.Core.Scenario.delivered_bytes;
  (* same kill, single path: stalls at whatever crossed before the cut *)
  let pinned =
    Mptcp.Path_manager.tag_paths [ Netgraph.Path.of_names topo [ "a"; "p1"; "z" ] ]
  in
  let stalled =
    run_spec ~paths:pinned ~total_bytes ~duration ~events topo
  in
  check_clean "single-path" stalled;
  (match stalled.Core.Scenario.completed_at_s with
  | None -> ()
  | Some t -> Alcotest.failf "single-path completed at %.2fs?!" t);
  (* 10 Mbps until the kill, then nothing: far below the total *)
  let ceiling =
    int_of_float (10e6 /. 8.0 *. (t0 /. 2.0 +. 1.0))
  in
  if stalled.Core.Scenario.delivered_bytes > ceiling then
    Alcotest.failf "single-path kept delivering after the kill: %d > %d"
      stalled.Core.Scenario.delivered_bytes ceiling

(* WiFi -> LTE handover: capacity ramp down, delay jump, then the
   association drops; the transfer must still complete, with the dead
   subflow detected (liveness churn). *)
let handover () =
  let topo =
    Events.Parse.topology
      (parse
         {|(topology
            (nodes phone wifi lte server)
            (links
             (phone wifi (mbps 50) (delay-ms 3))
             (phone lte (mbps 30) (delay-ms 25))
             (wifi server (mbps 100) (delay-ms 5))
             (lte server (mbps 100) (delay-ms 5))))|})
  in
  let paths =
    Mptcp.Path_manager.tag_paths
      [
        Netgraph.Path.of_names topo [ "phone"; "wifi"; "server" ];
        Netgraph.Path.of_names topo [ "phone"; "lte"; "server" ];
      ]
  in
  let events =
    Events.Parse.events topo
      (parse
         {|(at-s 0.8 (capacity-ramp phone wifi (mbps 2) (over-s 1) (steps 5)))
           (at-s 1.5 (delay-set phone wifi (ms 40)))
           (at-s 2 (link-down phone wifi))|})
  in
  let r =
    run_spec ~paths ~total_bytes:30_000_000 ~duration:(Engine.Time.s 15)
      ~events ~rto_cap:2 topo
  in
  check_clean "handover" r;
  let t = completed "handover" r in
  if t < 2.0 then Alcotest.failf "finished before the handover (%.2fs)" t;
  Alcotest.(check int) "wifi subflow declared dead" 1
    r.Core.Scenario.subflow_churn;
  Alcotest.(check int) "every byte arrived" 30_000_000
    r.Core.Scenario.delivered_bytes

(* 10% random loss on the primary from 0.5 s: loss-based congestion
   control collapses there and the clean backup carries the load. *)
let lossy_regime () =
  let topo = failover_topo () in
  let events =
    Events.Parse.events topo (parse "(at-s 0.5 (loss-set a p1 0.1))")
  in
  let r =
    Core.Scenario.run
      (Core.Scenario.make ~topo ~paths:(both_paths topo)
         ~cc:Mptcp.Algorithm.Lia ~duration:(Engine.Time.s 4) ~net_config
         ~audit:true ~events ())
  in
  check_clean "lossy" r;
  let tails = Core.Scenario.per_path_tail_mbps r in
  let tail tag = List.assoc tag tails in
  if tail 1 > 2.0 then
    Alcotest.failf "lossy path still fast: %.1f Mbps" (tail 1);
  if tail 2 < 60.0 then
    Alcotest.failf "clean path under-used: %.1f Mbps" (tail 2);
  if tail 2 < 10.0 *. tail 1 then
    Alcotest.failf "load did not migrate: %.1f vs %.1f Mbps" (tail 2) (tail 1)

(* Link repair + subflow reactivation: down at 1 s kills the subflow
   (rto-cap), up at 2.5 s plus an explicit subflow-add brings it back —
   two liveness transitions and a completed transfer. *)
let down_up_recovery () =
  let topo = failover_topo () in
  let events =
    Events.Parse.events topo
      (parse
         {|(at-s 1 (link-down a p1))
           (at-s 2.5 (link-up a p1))
           (at-s 2.6 (subflow-add 0))|})
  in
  (* unbounded transfer so the tail window (last quarter of 10 s) sits
     well after the dead sender's backed-off retransmit reconnects *)
  let r =
    Core.Scenario.run
      (Core.Scenario.make ~topo ~paths:(both_paths topo)
         ~cc:Mptcp.Algorithm.Lia ~duration:(Engine.Time.s 10) ~net_config
         ~audit:true ~events ~rto_cap:2 ())
  in
  check_clean "down-up" r;
  Alcotest.(check int) "down then up" 2 r.Core.Scenario.subflow_churn;
  (* the revived path must carry real traffic again *)
  let tail1 = List.assoc 1 (Core.Scenario.per_path_tail_mbps r) in
  if tail1 < 4.0 then
    Alcotest.failf "revived subflow idle: %.1f Mbps tail" tail1

(* Dynamic runs are a pure function of the spec: same events, same
   result, bit for bit. *)
let dynamic_determinism () =
  let run () =
    let topo = failover_topo () in
    let events =
      Events.Parse.events topo
        (parse
           {|(at-s 0.4 (link-down a p1))
             (at-s 0.9 (capacity-set a p2 (mbps 40)))
             (at-s 1.3 (traffic-start p2 z (tag 9) (mbps 15) (stop-s 2.5)))|})
    in
    let r =
      run_spec ~paths:(both_paths topo) ~total_bytes:8_000_000
        ~duration:(Engine.Time.s 6) ~events ~rto_cap:2 topo
    in
    ( r.Core.Scenario.delivered_bytes,
      r.Core.Scenario.completed_at_s,
      r.Core.Scenario.subflow_churn,
      r.Core.Scenario.cross_traffic_bytes,
      r.Core.Scenario.events_processed,
      r.Core.Scenario.packets_created,
      violations r )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical replay" true (a = b);
  let _, completed_at, churn, cross, _, _, bad = a in
  Alcotest.(check int) "audit clean" 0 bad;
  Alcotest.(check int) "churn" 1 churn;
  Alcotest.(check bool) "transfer completed" true (completed_at <> None);
  Alcotest.(check bool) "cross traffic flowed" true (cross > 1_000_000)

(* --- failover allocation regression --- *)

(* A flap of the paper net's s-v1 bottleneck kills subflows 1 and 2 at
   once; until the rto_cap declares them dead, the data ACK stalls while
   subflow 3 keeps mapping fresh data, so the chunk-ownership table
   grows with the stall.  Its per-grant cost must not grow with it: the
   run's allocated words per packet, bracketed after a warm-up run (as
   bench/main.ml's alloc_profile does), stay within 2x those of the
   plain paper sim bracketed the same way.  Both counts are
   deterministic per build.  bench/main.ml gates the same scenario. *)
let failover_script =
  {|(at-s 0.05 (link-down s v1)) (at-s 0.65 (link-up s v1))
    (at-s 1.05 (loss-set v2 v3 0.05)) (at-s 1.85 (loss-set v2 v3 0))|}

let paper_run ?(failover = false) ?(audit = false) () =
  let topo = Core.Paper_net.topology () in
  Core.Scenario.run
    (Core.Scenario.make ~topo
       ~paths:(Core.Paper_net.tagged_paths ~default:2 topo)
       ~cc:Mptcp.Algorithm.Cubic ~duration:(Engine.Time.s 2) ~audit
       ?events:
         (if failover then
            Some (Events.Parse.events topo (parse failover_script))
          else None)
       ?rto_cap:(if failover then Some 2 else None)
       ())

let words_per_packet run =
  ignore (run ());
  let c0 = Engine.Gctune.counters () in
  let r = run () in
  let d = Engine.Gctune.diff c0 (Engine.Gctune.counters ()) in
  ( r,
    Engine.Gctune.allocated_words d
    /. float_of_int r.Core.Scenario.packets_created )

let failover_alloc () =
  let _, plain = words_per_packet (fun () -> paper_run ()) in
  let r, failover = words_per_packet (fun () -> paper_run ~failover:true ()) in
  (* the flap must actually take the failover path *)
  if r.Core.Scenario.subflow_churn < 2 then
    Alcotest.failf "flap declared %d subflows dead"
      r.Core.Scenario.subflow_churn;
  if failover > 2.0 *. plain then
    Alcotest.failf "failover %.1f words/packet > 2x plain %.1f" failover plain;
  check_clean "failover alloc" (paper_run ~failover:true ~audit:true ())

let () =
  Alcotest.run "events"
    [
      ( "parser",
        [
          Alcotest.test_case "sexp basics" `Quick sexp_basics;
          Alcotest.test_case "sexp errors" `Quick sexp_errors;
          Alcotest.test_case "converters" `Quick parse_converters;
          Alcotest.test_case "actions" `Quick parse_actions;
          Alcotest.test_case "validate rejects" `Quick validate_rejects;
          Alcotest.test_case "example files load" `Quick expfile_examples;
        ] );
      ( "liveness",
        [ Alcotest.test_case "transitions and hook" `Quick liveness_basics ] );
      ( "golden",
        [
          Alcotest.test_case "failover 100MB" `Slow failover_100mb;
          Alcotest.test_case "wifi-lte handover" `Slow handover;
          Alcotest.test_case "lossy regime" `Slow lossy_regime;
          Alcotest.test_case "down-up recovery" `Slow down_up_recovery;
          Alcotest.test_case "determinism" `Slow dynamic_determinism;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "failover words/packet <= 2x plain" `Quick
            failover_alloc;
        ] );
    ]
