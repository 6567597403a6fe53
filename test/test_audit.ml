(* Tests for the invariant-audit subsystem: the paper-figure grid runs
   clean under the full checker, deliberate misbehaviour (an
   oversubscribing qdisc, a duplicated wire packet) is caught with a
   usable report, and audited runs are deterministic across worker
   counts. *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

let paper_spec ?net_config ~cc ~default ?(duration = 2) () =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default topo in
  Core.Scenario.make ~topo ~paths ~cc ?net_config
    ~duration:(Engine.Time.s duration) ~sampling:(Engine.Time.ms 100)
    ~audit:true ()

let report_exn r =
  match r.Core.Scenario.audit with
  | Some rep -> rep
  | None -> Alcotest.fail "audited run returned no report"

(* Acceptance gate for the subsystem itself: every paper-figure cell
   (congestion control x default path) is violation-free, and the
   conservation ledger closes exactly. *)
let paper_grid_clean () =
  let grid =
    List.concat_map
      (fun cc -> List.map (fun d -> (cc, d)) [ 1; 2; 3 ])
      Mptcp.Algorithm.[ Cubic; Lia; Olia ]
  in
  let specs = List.map (fun (cc, default) -> paper_spec ~cc ~default ()) grid in
  let results = Engine.Pool.map Core.Scenario.run specs in
  List.iter2
    (fun (cc, d) r ->
      let rep = report_exn r in
      if rep.Audit.total_violations > 0 then
        Alcotest.failf "%s default=%d:@.%s" (Mptcp.Algorithm.name cc) d
          (Format.asprintf "%a" Audit.pp_report rep);
      Alcotest.(check bool) "performed checks" true (rep.Audit.checks > 0);
      let l = rep.Audit.ledger in
      Alcotest.(check int) "ledger closes" l.Audit.injected_pkts
        (l.Audit.delivered_pkts + l.Audit.dropped_pkts + l.Audit.no_route_pkts
        + l.Audit.lost_down_pkts + l.Audit.inflight_pkts);
      Alcotest.(check bool) "traffic flowed" true (l.Audit.delivered_pkts > 0))
    grid results

(* The deliberately broken qdisc admits past the buffer limit; the
   occupancy invariant must fire, with a timestamped, self-describing
   report. *)
let broken_qdisc_caught () =
  let net_config =
    { Netsim.Net.qdisc = Netsim.Qdisc.Broken_oversubscribe; limit_pkts = 4;
      delay_jitter = Engine.Time.zero }
  in
  let spec =
    paper_spec ~cc:Mptcp.Algorithm.Cubic ~default:2 ~net_config ~duration:1 ()
  in
  let rep = report_exn (Core.Scenario.run spec) in
  Alcotest.(check bool) "violations found" true (rep.Audit.total_violations > 0);
  let occ =
    List.filter
      (fun v -> v.Audit.invariant = "link.occupancy")
      rep.Audit.violations
  in
  Alcotest.(check bool) "occupancy invariant fired" true (occ <> []);
  let text = Format.asprintf "%a" Audit.pp_violation (List.hd occ) in
  Alcotest.(check bool) "report names the invariant" true
    (contains text "link.occupancy");
  Alcotest.(check bool) "report is timestamped" true (contains text "[t=");
  let full = Format.asprintf "%a" Audit.pp_report rep in
  Alcotest.(check bool) "full report renders the ledger" true
    (contains full "injected")

(* Injecting the same wire packet twice is a conservation forgery the
   ledger must spot. *)
let duplicate_inject_caught () =
  let b = Netgraph.Topology.builder () in
  let a = Netgraph.Topology.add_node b "a" in
  let z = Netgraph.Topology.add_node b "z" in
  let lid =
    Netgraph.Topology.add_link b ~u:a ~v:z
      ~capacity_bps:(Netgraph.Topology.mbps 10) ~delay:(Engine.Time.ms 1)
  in
  let topo = Netgraph.Topology.build b in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 1) topo in
  let audit = Audit.create ~sched in
  Audit.attach_net audit net;
  Netsim.Net.install_route net ~node:a ~dst:z ~tag:1 ~link:lid;
  let p =
    Packet.make_plain ~id:(Netsim.Net.fresh_packet_id net) ~src:a ~dst:z ~tag:1
      ~born:0 ~size:1500
  in
  Netsim.Net.inject net ~at:a p;
  Netsim.Net.inject net ~at:a p;
  Engine.Sched.run sched;
  Audit.finish audit ();
  Alcotest.(check bool) "duplicate flagged" true
    (List.exists
       (fun v -> v.Audit.invariant = "conservation.duplicate-packet")
       (Audit.violations audit))

(* Audited runs must stay bit-for-bit reproducible whatever the domain
   count: same summaries, same check counts, zero violations on both
   sides. *)
let determinism_across_jobs () =
  let specs =
    List.map
      (fun cc -> paper_spec ~cc ~default:2 ~duration:1 ())
      Mptcp.Algorithm.[ Cubic; Lia; Olia ]
  in
  let r1 = Engine.Pool.map ~domains:1 Core.Scenario.run specs in
  let r4 = Engine.Pool.map ~domains:4 Core.Scenario.run specs in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "delivered bytes" a.Core.Scenario.delivered_bytes
        b.Core.Scenario.delivered_bytes;
      Alcotest.(check int) "events processed" a.Core.Scenario.events_processed
        b.Core.Scenario.events_processed;
      Alcotest.(check int) "queue drops" a.Core.Scenario.queue_drops
        b.Core.Scenario.queue_drops;
      Alcotest.(check (float 1e-9)) "tail mean"
        (Core.Scenario.tail_mean_mbps a)
        (Core.Scenario.tail_mean_mbps b);
      let ra = report_exn a and rb = report_exn b in
      Alcotest.(check int) "same check count" ra.Audit.checks rb.Audit.checks;
      Alcotest.(check int) "clean at jobs=1" 0 ra.Audit.total_violations;
      Alcotest.(check int) "clean at jobs=4" 0 rb.Audit.total_violations)
    r1 r4

let () =
  Alcotest.run "audit"
    [
      ( "paper-grid",
        [ Alcotest.test_case "cc x default path, all clean" `Quick
            paper_grid_clean ] );
      ( "misbehaviour",
        [
          Alcotest.test_case "broken qdisc caught" `Quick broken_qdisc_caught;
          Alcotest.test_case "duplicate inject caught" `Quick
            duplicate_inject_caught;
        ] );
      ( "determinism",
        [ Alcotest.test_case "jobs=1 vs jobs=4" `Quick determinism_across_jobs ]
      );
    ]
