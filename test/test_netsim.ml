(* Tests for the network simulator: exact link timing, FIFO queueing and
   tail drop, (dst, tag) forwarding, taps, RED behaviour, and the
   cross-traffic generators. *)

let ms = Engine.Time.ms
let us = Engine.Time.us
let mb = Netgraph.Topology.mbps

let fresh = ref 0

let plain ~src ~dst ?(tag = 1) ?(size = 1500) () =
  incr fresh;
  Packet.make_plain ~id:!fresh ~src ~dst ~tag ~born:0 ~size

(* Two-node fixture with one configurable link. *)
let two_nodes ?(capacity = mb 12) ?(delay = ms 1) ?(config = Netsim.Net.default_config) () =
  let b = Netgraph.Topology.builder () in
  let a = Netgraph.Topology.add_node b "a" in
  let z = Netgraph.Topology.add_node b "z" in
  let lid = Netgraph.Topology.add_link b ~u:a ~v:z ~capacity_bps:capacity ~delay in
  let topo = Netgraph.Topology.build b in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 1) ~config topo in
  Netsim.Net.install_route net ~node:a ~dst:z ~tag:1 ~link:lid;
  Netsim.Net.install_route net ~node:z ~dst:a ~tag:1 ~link:lid;
  (sched, net, a, z, lid)

let link_timing_exact () =
  (* 1500 B at 12 Mbps = exactly 1 ms serialization + 1 ms propagation. *)
  let sched, net, a, z, _ = two_nodes () in
  let arrived = ref Engine.Time.zero in
  Netsim.Net.attach_host net ~node:z (fun _ -> arrived := Engine.Sched.now sched);
  Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ());
  Engine.Sched.run sched;
  Alcotest.(check int) "tx + prop" (ms 2) !arrived

let link_serializes_back_to_back () =
  (* Two packets: second arrives one serialization time after the first. *)
  let sched, net, a, z, _ = two_nodes () in
  let times = ref [] in
  Netsim.Net.attach_host net ~node:z (fun _ ->
      times := Engine.Sched.now sched :: !times);
  Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ());
  Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ());
  Engine.Sched.run sched;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check int) "first" (ms 2) t1;
    Alcotest.(check int) "second is one tx later" (ms 3) t2
  | _ -> Alcotest.fail "expected two arrivals"

let fifo_order () =
  let sched, net, a, z, _ = two_nodes () in
  let ids = ref [] in
  Netsim.Net.attach_host net ~node:z (fun p -> ids := p.Packet.id :: !ids);
  let sent = List.init 5 (fun _ ->
      let p = plain ~src:a ~dst:z () in
      Netsim.Net.inject net ~at:a p;
      p.Packet.id) in
  Engine.Sched.run sched;
  Alcotest.(check (list int)) "FIFO" sent (List.rev !ids)

let tail_drop_when_full () =
  let config = { Netsim.Net.default_config with Netsim.Net.limit_pkts = 5 } in
  let sched, net, a, z, lid = two_nodes ~config () in
  let count = ref 0 in
  Netsim.Net.attach_host net ~node:z (fun _ -> incr count);
  (* Burst of 20 into a 5-packet buffer (+1 in the serializer). *)
  for _ = 1 to 20 do
    Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ())
  done;
  Engine.Sched.run sched;
  Alcotest.(check int) "delivered = buffer + in-service" 6 !count;
  let st = Netsim.Linkq.stats (Netsim.Net.linkq net ~link:lid ~dir:Netsim.Net.Fwd) in
  Alcotest.(check int) "dropped the rest" 14 st.Netsim.Linkq.dropped;
  Alcotest.(check int) "net-wide counter" 14 (Netsim.Net.total_drops net)

let full_duplex_independent () =
  (* Traffic in both directions at once must not interfere: each
     direction has its own serializer. *)
  let sched, net, a, z, _ = two_nodes () in
  let t_az = ref Engine.Time.zero and t_za = ref Engine.Time.zero in
  Netsim.Net.attach_host net ~node:z (fun _ -> t_az := Engine.Sched.now sched);
  Netsim.Net.attach_host net ~node:a (fun _ -> t_za := Engine.Sched.now sched);
  Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ());
  Netsim.Net.inject net ~at:z (plain ~src:z ~dst:a ());
  Engine.Sched.run sched;
  Alcotest.(check int) "a->z" (ms 2) !t_az;
  Alcotest.(check int) "z->a unaffected" (ms 2) !t_za

(* Three-node fixture to exercise forwarding by tag. *)
let triangle () =
  let b = Netgraph.Topology.builder () in
  let s = Netgraph.Topology.add_node b "s" in
  let m1 = Netgraph.Topology.add_node b "m1" in
  let m2 = Netgraph.Topology.add_node b "m2" in
  let d = Netgraph.Topology.add_node b "d" in
  let link u v =
    Netgraph.Topology.add_link b ~u ~v ~capacity_bps:(mb 10) ~delay:(us 100)
  in
  let _ = link s m1 and _ = link s m2 in
  let _ = link m1 d and _ = link m2 d in
  let topo = Netgraph.Topology.build b in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 1) topo in
  (sched, net, topo, s, m1, m2, d)

let tag_forwarding () =
  let sched, net, topo, s, m1, m2, d = triangle () in
  Netsim.Net.install_path net ~tag:1 (Netgraph.Path.of_names topo [ "s"; "m1"; "d" ]);
  Netsim.Net.install_path net ~tag:2 (Netgraph.Path.of_names topo [ "s"; "m2"; "d" ]);
  let via1 = ref 0 and via2 = ref 0 in
  Engine.Tap.subscribe (Netsim.Net.arrival_tap net ~node:m1) (fun _ -> incr via1);
  Engine.Tap.subscribe (Netsim.Net.arrival_tap net ~node:m2) (fun _ -> incr via2);
  let delivered = ref 0 in
  Netsim.Net.attach_host net ~node:d (fun _ -> incr delivered);
  Netsim.Net.inject net ~at:s (plain ~src:s ~dst:d ~tag:1 ());
  Netsim.Net.inject net ~at:s (plain ~src:s ~dst:d ~tag:2 ());
  Netsim.Net.inject net ~at:s (plain ~src:s ~dst:d ~tag:2 ());
  Engine.Sched.run sched;
  Alcotest.(check int) "tag 1 via m1" 1 !via1;
  Alcotest.(check int) "tag 2 via m2" 2 !via2;
  Alcotest.(check int) "all delivered" 3 !delivered

let reverse_route_installed () =
  let sched, net, topo, s, _, _, d = triangle () in
  Netsim.Net.install_path net ~tag:1 (Netgraph.Path.of_names topo [ "s"; "m1"; "d" ]);
  let back = ref 0 in
  Netsim.Net.attach_host net ~node:s (fun _ -> incr back);
  Netsim.Net.inject net ~at:d (plain ~src:d ~dst:s ~tag:1 ());
  Engine.Sched.run sched;
  Alcotest.(check int) "reverse path works" 1 !back

let no_route_counted () =
  let sched, net, _, s, _, _, d = triangle () in
  Netsim.Net.inject net ~at:s (plain ~src:s ~dst:d ~tag:77 ());
  Engine.Sched.run sched;
  Alcotest.(check int) "no-route drop counted" 1 (Netsim.Net.no_route_drops net)

let route_table_growth_and_reinstall () =
  (* A hub with three spokes holds 42 routes — far more than a route
     table's initial size — then one key moves to another link.  For
     every key, Net.route and the queue a packet actually enters must
     agree; an unknown key still counts as a no-route drop. *)
  let b = Netgraph.Topology.builder () in
  let hub = Netgraph.Topology.add_node b "hub" in
  let spokes =
    Array.init 3 (fun i -> Netgraph.Topology.add_node b (Printf.sprintf "s%d" i))
  in
  let links =
    Array.map
      (fun v ->
        Netgraph.Topology.add_link b ~u:hub ~v ~capacity_bps:(mb 100)
          ~delay:(ms 1))
      spokes
  in
  let topo = Netgraph.Topology.build b in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 1) topo in
  let installed = ref [] in
  Array.iteri
    (fun i dst ->
      for tag = 1 to 14 do
        let link = links.((i + tag) mod 3) in
        Netsim.Net.install_route net ~node:hub ~dst ~tag ~link;
        installed := ((dst, tag), link) :: !installed
      done)
    spokes;
  let moved = (spokes.(1), 5) in
  let moved_to = links.((1 + 5 + 1) mod 3) in
  Netsim.Net.install_route net ~node:hub ~dst:(fst moved) ~tag:(snd moved)
    ~link:moved_to;
  installed := (moved, moved_to) :: List.remove_assoc moved !installed;
  let enqueued link =
    (Netsim.Linkq.stats (Netsim.Net.linkq net ~link ~dir:Netsim.Net.Fwd))
      .Netsim.Linkq.enqueued
  in
  List.iter
    (fun ((dst, tag), link) ->
      let ctx = Printf.sprintf "dst %d tag %d" dst tag in
      Alcotest.(check (option int)) (ctx ^ ": Net.route") (Some link)
        (Netsim.Net.route net ~node:hub ~dst ~tag);
      let before = Array.map enqueued links in
      Netsim.Net.inject net ~at:hub (plain ~src:hub ~dst ~tag ());
      let entered =
        List.filter
          (fun i -> enqueued links.(i) > before.(i))
          [ 0; 1; 2 ]
        |> List.map (fun i -> links.(i))
      in
      Alcotest.(check (list int)) (ctx ^ ": forwarded on") [ link ] entered)
    !installed;
  Alcotest.(check (option int)) "unknown key has no route" None
    (Netsim.Net.route net ~node:hub ~dst:spokes.(0) ~tag:99);
  let total () = Array.fold_left (fun acc l -> acc + enqueued l) 0 links in
  let before = total () in
  Netsim.Net.inject net ~at:hub (plain ~src:hub ~dst:spokes.(0) ~tag:99 ());
  Alcotest.(check int) "unknown key enters no queue" before (total ());
  Alcotest.(check int) "unknown key counted as no-route" 1
    (Netsim.Net.no_route_drops net)

let install_route_validation () =
  let _, net, _, s, _, _, _ = triangle () in
  Alcotest.(check bool) "wrong endpoint rejected" true
    (try
       (* link 2 is m1-d; s is not an endpoint. *)
       Netsim.Net.install_route net ~node:s ~dst:0 ~tag:1 ~link:2;
       false
     with Invalid_argument _ -> true)

let double_host_rejected () =
  let _, net, _, s, _, _, _ = triangle () in
  Netsim.Net.attach_host net ~node:s (fun _ -> ());
  Alcotest.check_raises "second host"
    (Invalid_argument "Net.attach_host: host already attached") (fun () ->
      Netsim.Net.attach_host net ~node:s (fun _ -> ()))

let utilisation_counter () =
  let sched, net, a, z, lid = two_nodes () in
  Netsim.Net.attach_host net ~node:z (fun _ -> ());
  for _ = 1 to 6 do
    Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ())
  done;
  Engine.Sched.run ~until:(ms 12) sched;
  (* 6 ms of transmission over 12 ms elapsed = 50%. *)
  let q = Netsim.Net.linkq net ~link:lid ~dir:Netsim.Net.Fwd in
  Alcotest.(check (float 0.01)) "utilisation" 0.5
    (Netsim.Linkq.utilisation q ~now:(Engine.Sched.now sched))

let delay_jitter_spreads_arrivals () =
  (* With jitter on, inter-arrival times vary and may even reorder;
     without it the timing is exact. *)
  let run jitter =
    let b = Netgraph.Topology.builder () in
    let a = Netgraph.Topology.add_node b "a" in
    let z = Netgraph.Topology.add_node b "z" in
    let lid = Netgraph.Topology.add_link b ~u:a ~v:z
        ~capacity_bps:(mb 100) ~delay:(ms 5) in
    let topo = Netgraph.Topology.build b in
    let sched = Engine.Sched.create () in
    let config = { Netsim.Net.qdisc = Netsim.Qdisc.Drop_tail; limit_pkts = 50;
                   delay_jitter = jitter } in
    let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 7) ~config topo in
    Netsim.Net.install_route net ~node:a ~dst:z ~tag:1 ~link:lid;
    let times = ref [] in
    Netsim.Net.attach_host net ~node:z (fun _ ->
        times := Engine.Sched.now sched :: !times);
    for _ = 1 to 20 do
      Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ())
    done;
    Engine.Sched.run sched;
    List.rev !times
  in
  let exact = run Engine.Time.zero in
  let gaps l = List.map2 (fun a b -> b - a) (List.filteri (fun i _ -> i < 19) l)
      (List.tl l) in
  let distinct l = List.length (List.sort_uniq compare l) in
  Alcotest.(check int) "exact timing: one gap value" 1 (distinct (gaps exact));
  let jittered = run (ms 2) in
  Alcotest.(check bool) "jitter: many gap values" true
    (distinct (gaps jittered) > 5);
  Alcotest.(check int) "all still delivered" 20 (List.length jittered)

(* --- link failure --- *)

let link_down_destroys_packets () =
  let sched, net, a, z, lid = two_nodes () in
  let delivered = ref 0 in
  Netsim.Net.attach_host net ~node:z (fun _ -> incr delivered);
  Netsim.Net.set_link_up net ~link:lid false;
  Alcotest.(check bool) "reported down" false (Netsim.Net.link_is_up net ~link:lid);
  for _ = 1 to 5 do
    Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ())
  done;
  Engine.Sched.run sched;
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  let st = Netsim.Linkq.stats (Netsim.Net.linkq net ~link:lid ~dir:Netsim.Net.Fwd) in
  Alcotest.(check int) "all counted as lost" 5 st.Netsim.Linkq.lost_down

let link_down_mid_flight () =
  (* A packet already past the serializer when the cut happens must not
     arrive. *)
  let sched, net, a, z, lid = two_nodes () in
  let delivered = ref 0 in
  Netsim.Net.attach_host net ~node:z (fun _ -> incr delivered);
  Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ());
  (* Serialization ends at 1 ms; cut at 1.5 ms, before the 2 ms arrival. *)
  ignore (Engine.Sched.at sched (Engine.Time.us 1500) (fun () ->
      Netsim.Net.set_link_up net ~link:lid false));
  Engine.Sched.run sched;
  Alcotest.(check int) "lost mid-flight" 0 !delivered

let short_flap_loses_wire_packets () =
  (* 1500 B at 100 Mbps serializes in 120 us and arrives at 1.12 ms.  A
     flap from 0.5 ms to 0.6 ms cuts the wire under it: the packet must
     be lost even though the link is up again when it would arrive —
     on the jitter-free flight ring and on the jittered closure path. *)
  List.iter
    (fun jitter ->
      let config = { Netsim.Net.default_config with delay_jitter = jitter } in
      let sched, net, a, z, lid =
        two_nodes ~capacity:(mb 100) ~delay:(ms 1) ~config ()
      in
      Netsim.Net.attach_host net ~node:z (fun _ -> ());
      Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ());
      ignore (Engine.Sched.at sched (us 500) (fun () ->
          Netsim.Net.set_link_up net ~link:lid false));
      ignore (Engine.Sched.at sched (us 600) (fun () ->
          Netsim.Net.set_link_up net ~link:lid true));
      Engine.Sched.run sched;
      let st = Netsim.Linkq.stats (Netsim.Net.linkq net ~link:lid ~dir:Netsim.Net.Fwd) in
      let ctx = Printf.sprintf "jitter %dns: " jitter in
      Alcotest.(check int) (ctx ^ "delivered") 0 st.Netsim.Linkq.delivered;
      Alcotest.(check int) (ctx ^ "lost_down") 1 st.Netsim.Linkq.lost_down;
      (* The restored link carries a packet sent after the flap. *)
      Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ());
      Engine.Sched.run sched;
      Alcotest.(check int) (ctx ^ "delivered after the flap") 1
        st.Netsim.Linkq.delivered)
    [ Engine.Time.zero; us 10 ]

let link_restore () =
  let sched, net, a, z, lid = two_nodes () in
  let delivered = ref 0 in
  Netsim.Net.attach_host net ~node:z (fun _ -> incr delivered);
  Netsim.Net.set_link_up net ~link:lid false;
  Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ());
  Netsim.Net.set_link_up net ~link:lid true;
  Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ());
  Engine.Sched.run sched;
  Alcotest.(check int) "flows again after restore" 1 !delivered

let link_down_flushes_queue () =
  let sched, net, a, z, lid = two_nodes () in
  Netsim.Net.attach_host net ~node:z (fun _ -> ());
  for _ = 1 to 10 do
    Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ())
  done;
  (* 9 packets queued behind the one in service. *)
  Netsim.Net.set_link_up net ~link:lid false;
  let q = Netsim.Net.linkq net ~link:lid ~dir:Netsim.Net.Fwd in
  Alcotest.(check int) "queue flushed" 0 (Netsim.Linkq.queue_pkts q);
  Alcotest.(check int) "flushed packets counted" 9
    (Netsim.Linkq.stats q).Netsim.Linkq.lost_down;
  Engine.Sched.run sched

(* Conservation: every injected packet is accounted for exactly once. *)
let qcheck_link_conservation =
  QCheck.Test.make ~name:"link conserves packets (enqueued+dropped, delivered)"
    ~count:100
    QCheck.(pair (1 -- 60) (2 -- 20))
    (fun (burst, limit) ->
      let config =
        { Netsim.Net.qdisc = Netsim.Qdisc.Drop_tail; limit_pkts = limit;
          delay_jitter = Engine.Time.zero }
      in
      let sched, net, a, z, lid = two_nodes ~config () in
      let delivered = ref 0 in
      Netsim.Net.attach_host net ~node:z (fun _ -> incr delivered);
      for _ = 1 to burst do
        Netsim.Net.inject net ~at:a (plain ~src:a ~dst:z ())
      done;
      Engine.Sched.run sched;
      let st =
        Netsim.Linkq.stats (Netsim.Net.linkq net ~link:lid ~dir:Netsim.Net.Fwd)
      in
      st.Netsim.Linkq.enqueued + st.Netsim.Linkq.dropped = burst
      && st.Netsim.Linkq.delivered = st.Netsim.Linkq.enqueued
      && !delivered = st.Netsim.Linkq.delivered)

(* --- qdisc --- *)

let red_drops_before_full () =
  (* Sustained overload: RED must drop early, drop-tail only when full. *)
  let run qdisc =
    let config = { Netsim.Net.qdisc; limit_pkts = 30; delay_jitter = Engine.Time.zero } in
    let sched, net, a, z, lid = two_nodes ~capacity:(mb 10) ~config () in
    Netsim.Net.attach_host net ~node:z (fun _ -> ());
    (* 15 Mbps into a 10 Mbps link for 2 s. *)
    let _ =
      Netsim.Traffic.cbr ~net ~src:a ~dst:z ~tag:1 ~rate_bps:(mb 15)
        ~stop_at:(Engine.Time.s 2) ()
    in
    Engine.Sched.run ~until:(Engine.Time.s 3) sched;
    let q = Netsim.Net.linkq net ~link:lid ~dir:Netsim.Net.Fwd in
    (Netsim.Linkq.stats q).Netsim.Linkq.dropped
  in
  let red = run (Netsim.Qdisc.Red Netsim.Qdisc.default_red) in
  let dt = run Netsim.Qdisc.Drop_tail in
  Alcotest.(check bool) "both drop under overload" true (red > 0 && dt > 0);
  (* RED keeps the average queue near min_th, so its drop count under the
     same offered load is at least as high as tail-drop's. *)
  Alcotest.(check bool) "red drops early" true (red >= dt)

let qdisc_unit () =
  let rng = Engine.Rng.create 3 in
  let st = Netsim.Qdisc.make_state Netsim.Qdisc.Drop_tail in
  Alcotest.(check bool) "drop-tail admits below limit" true
    (Netsim.Qdisc.admit Netsim.Qdisc.Drop_tail st ~queue_pkts:9 ~limit_pkts:10 ~rng);
  Alcotest.(check bool) "drop-tail drops at limit" false
    (Netsim.Qdisc.admit Netsim.Qdisc.Drop_tail st ~queue_pkts:10 ~limit_pkts:10 ~rng);
  let red = Netsim.Qdisc.Red Netsim.Qdisc.default_red in
  let st = Netsim.Qdisc.make_state red in
  (* With a persistently long queue, the EWMA average must eventually
     exceed max_th and force drops. *)
  let forced = ref false in
  for _ = 1 to 20_000 do
    if not (Netsim.Qdisc.admit red st ~queue_pkts:25 ~limit_pkts:100 ~rng) then
      forced := true
  done;
  Alcotest.(check bool) "red eventually drops" true !forced;
  Alcotest.(check bool) "avg tracked" true (Netsim.Qdisc.avg_queue st > 15.0)

let codel_defeats_bufferbloat () =
  (* CoDel's design case: a responsive TCP flow through a deep buffer.
     Drop-tail lets CUBIC fill all 100 packets (~120 ms of standing
     queue); CoDel holds the sojourn near its 5 ms target while keeping
     the link busy. *)
  let run qdisc =
    let b = Netgraph.Topology.builder () in
    let a = Netgraph.Topology.add_node b "a" in
    let z = Netgraph.Topology.add_node b "z" in
    ignore
      (Netgraph.Topology.add_link b ~u:a ~v:z ~capacity_bps:(mb 10)
         ~delay:(ms 5));
    let topo = Netgraph.Topology.build b in
    let sched = Engine.Sched.create () in
    let config = { Netsim.Net.qdisc; limit_pkts = 100;
                   delay_jitter = Engine.Time.zero } in
    let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 4) ~config topo in
    Netsim.Net.install_route net ~node:a ~dst:z ~tag:1 ~link:0;
    Netsim.Net.install_route net ~node:z ~dst:a ~tag:1 ~link:0;
    let src = Tcp.Endpoint.create net ~node:a in
    let dst = Tcp.Endpoint.create net ~node:z in
    let flow = Tcp.Flow.start ~src ~dst ~tag:1 ~conn:1 () in
    Engine.Sched.run ~until:(Engine.Time.s 12) sched;
    let srtt =
      match Tcp.Sender.srtt (Tcp.Flow.sender flow) with
      | Some v -> v
      | None -> 0
    in
    (srtt, Tcp.Flow.bytes_delivered flow)
  in
  let dt_rtt, dt_bytes = run Netsim.Qdisc.Drop_tail in
  let cd_rtt, cd_bytes = run (Netsim.Qdisc.Codel Netsim.Qdisc.default_codel) in
  Alcotest.(check bool)
    (Printf.sprintf "drop-tail bufferbloat visible (srtt %.1f ms)"
       (float_of_int dt_rtt /. 1e6))
    true
    (dt_rtt > ms 60);
  Alcotest.(check bool)
    (Printf.sprintf "codel tames it (srtt %.1f ms)"
       (float_of_int cd_rtt /. 1e6))
    true
    (cd_rtt < ms 30);
  Alcotest.(check bool)
    (Printf.sprintf "throughput preserved (%.1f vs %.1f MB)"
       (float_of_int cd_bytes /. 1e6)
       (float_of_int dt_bytes /. 1e6))
    true
    (float_of_int cd_bytes > 0.85 *. float_of_int dt_bytes)

let codel_idle_below_target () =
  (* A trickle that never builds a queue must never be dropped. *)
  let config = { Netsim.Net.qdisc = Netsim.Qdisc.Codel Netsim.Qdisc.default_codel;
                 limit_pkts = 30; delay_jitter = Engine.Time.zero } in
  let sched, net, a, z, lid = two_nodes ~capacity:(mb 10) ~config () in
  let got = ref 0 in
  Netsim.Net.attach_host net ~node:z (fun _ -> incr got);
  let _ = Netsim.Traffic.cbr ~net ~src:a ~dst:z ~tag:1 ~rate_bps:(mb 2)
      ~stop_at:(Engine.Time.s 2) () in
  Engine.Sched.run sched;
  let st = Netsim.Linkq.stats (Netsim.Net.linkq net ~link:lid ~dir:Netsim.Net.Fwd) in
  Alcotest.(check int) "no drops below target" 0 st.Netsim.Linkq.dropped;
  Alcotest.(check bool) "everything arrives" true (!got > 300)

(* --- traffic --- *)

let cbr_rate () =
  let sched, net, a, z, _ = two_nodes ~capacity:(mb 100) () in
  let bytes = ref 0 in
  Netsim.Net.attach_host net ~node:z (fun p -> bytes := !bytes + p.Packet.size);
  let src =
    Netsim.Traffic.cbr ~net ~src:a ~dst:z ~tag:1 ~rate_bps:(mb 12)
      ~stop_at:(Engine.Time.s 1) ()
  in
  Engine.Sched.run ~until:(Engine.Time.s 2) sched;
  (* 12 Mbps for 1 s = 1.5 MB (1000 packets of 1500 B; the tick at
     exactly t = 1 s is past stop_at). *)
  Alcotest.(check int) "packets" 1000 (Netsim.Traffic.packets_sent src);
  Alcotest.(check bool) "delivered about 1.5 MB" true
    (!bytes >= 1_499_000 && !bytes <= 1_502_000)

let cbr_stop () =
  let sched, net, a, z, _ = two_nodes () in
  Netsim.Net.attach_host net ~node:z (fun _ -> ());
  let src = Netsim.Traffic.cbr ~net ~src:a ~dst:z ~tag:1 ~rate_bps:(mb 12) () in
  ignore (Engine.Sched.at sched (ms 100) (fun () -> Netsim.Traffic.stop src));
  Engine.Sched.run ~until:(Engine.Time.s 1) sched;
  let sent = Netsim.Traffic.packets_sent src in
  Alcotest.(check bool) "stopped around 100 packets" true
    (sent >= 99 && sent <= 102)

let cbr_recycles_through_pool () =
  (* A CBR-only run acquires every packet from the net's pool and gets
     each back at its terminal fate: every acquire beyond the most
     packets ever in the network at once is served from the freelist,
     and the live heap does not grow with the run's length. *)
  let sched, net, a, z, _ = two_nodes ~capacity:(mb 100) () in
  Netsim.Net.attach_host net ~node:z (fun _ -> ());
  let pool = Netsim.Net.pool net in
  let peak = ref 0 in
  Engine.Tap.subscribe (Netsim.Net.inject_tap net ~node:a) (fun _ ->
      peak := max !peak (Packet.Pool.live pool));
  let src = Netsim.Traffic.cbr ~net ~src:a ~dst:z ~tag:1 ~rate_bps:(mb 50) () in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  Engine.Sched.run ~until:(Engine.Time.s 2) sched;
  let short = live_words () in
  Engine.Sched.run ~until:(Engine.Time.s 20) sched;
  let long = live_words () in
  let sent = Netsim.Traffic.packets_sent src in
  let st = Packet.Pool.stats pool in
  Alcotest.(check int) "acquired = sent" sent st.Packet.Pool.acquired;
  Alcotest.(check bool)
    (Printf.sprintf "recycled %d >= sent %d - in flight %d"
       st.Packet.Pool.recycled sent !peak)
    true
    (!peak < 10 && st.Packet.Pool.recycled >= sent - !peak);
  Alcotest.(check bool)
    (Printf.sprintf "live heap flat: %d words at 2 s, %d at 20 s" short long)
    true
    (long - short < 4096)

let on_off_duty_cycle () =
  let sched, net, a, z, _ = two_nodes ~capacity:(mb 100) () in
  let bytes = ref 0 in
  Netsim.Net.attach_host net ~node:z (fun p -> bytes := !bytes + p.Packet.size);
  let _ =
    Netsim.Traffic.on_off ~net ~rng:(Engine.Rng.create 5) ~src:a ~dst:z ~tag:1
      ~rate_bps:(mb 20) ~mean_on:(ms 100) ~mean_off:(ms 100)
      ~stop_at:(Engine.Time.s 20) ()
  in
  Engine.Sched.run ~until:(Engine.Time.s 21) sched;
  (* ~50% duty cycle of 20 Mbps over 20 s = ~25 MB; allow wide slack. *)
  let mbytes = float_of_int !bytes /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "on/off mean rate plausible (%.1f MB)" mbytes)
    true
    (mbytes > 15.0 && mbytes < 35.0)

(* --- pktring --- *)

(* The ring holds packet slots: the cases push small ints. *)

let pktring_fifo_across_growth () =
  (* Start tiny so several doublings happen mid-stream. *)
  let r = Netsim.Pktring.create ~capacity:2 () in
  for i = 1 to 100 do
    Netsim.Pktring.push r i ~stamp:(i * 10)
  done;
  Alcotest.(check int) "length" 100 (Netsim.Pktring.length r);
  Alcotest.(check bool) "capacity grew" true (Netsim.Pktring.capacity r >= 100);
  for i = 1 to 100 do
    Alcotest.(check int) "head stamp" (i * 10) (Netsim.Pktring.head_stamp r);
    Alcotest.(check int) "FIFO order" i (Netsim.Pktring.pop r)
  done;
  Alcotest.(check bool) "empty" true (Netsim.Pktring.is_empty r)

let pktring_wraparound () =
  (* Interleave pushes and pops so head walks around the ring without
     triggering growth, then force one growth from a wrapped state. *)
  let r = Netsim.Pktring.create ~capacity:4 () in
  let next = ref 0 and expect = ref 0 in
  let push () = incr next; Netsim.Pktring.push r !next ~stamp:!next in
  let pop () =
    incr expect;
    Alcotest.(check int) "wrap FIFO" !expect (Netsim.Pktring.pop r)
  in
  push (); push (); push ();
  pop (); pop ();
  (* head is now mid-array; fill past the physical end. *)
  push (); push (); push ();
  Alcotest.(check int) "still 4 capacity" 4 (Netsim.Pktring.capacity r);
  (* One more push forces a grow while the ring is wrapped. *)
  push ();
  for _ = 1 to 5 do pop () done;
  Alcotest.(check bool) "drained" true (Netsim.Pktring.is_empty r)

let pktring_iter_and_clear () =
  let r = Netsim.Pktring.create ~capacity:4 () in
  (* Wrap the ring first so iter must follow the head offset. *)
  Netsim.Pktring.push r 90 ~stamp:0;
  ignore (Netsim.Pktring.pop r);
  for i = 1 to 4 do Netsim.Pktring.push r i ~stamp:i done;
  let seen = ref [] in
  Netsim.Pktring.iter r (fun s -> seen := s :: !seen);
  Alcotest.(check (list int)) "iter oldest first" [ 1; 2; 3; 4 ]
    (List.rev !seen);
  Netsim.Pktring.clear r;
  Alcotest.(check int) "cleared" 0 (Netsim.Pktring.length r);
  Alcotest.(check bool)
    "empty ops raise" true
    (try ignore (Netsim.Pktring.pop r); false with Invalid_argument _ -> true);
  Alcotest.(check bool)
    "head_stamp raises when empty" true
    (try ignore (Netsim.Pktring.head_stamp r); false
     with Invalid_argument _ -> true)

let pktring_does_not_retain_popped () =
  (* A popped element's place is reused by the next push: no growth
     while the ring has room, and FIFO order holds across the reuse. *)
  let r = Netsim.Pktring.create ~capacity:2 () in
  Netsim.Pktring.push r 1 ~stamp:1;
  Netsim.Pktring.push r 2 ~stamp:2;
  ignore (Netsim.Pktring.pop r);
  Netsim.Pktring.push r 3 ~stamp:3;
  Alcotest.(check int) "no growth needed after pop" 2
    (Netsim.Pktring.capacity r);
  Alcotest.(check int) "order preserved" 2 (Netsim.Pktring.pop r);
  Alcotest.(check int) "order preserved" 3 (Netsim.Pktring.pop r)

let () =
  Alcotest.run "netsim"
    [
      ( "link",
        [
          Alcotest.test_case "timing is exact" `Quick link_timing_exact;
          Alcotest.test_case "serialization back to back" `Quick
            link_serializes_back_to_back;
          Alcotest.test_case "FIFO order" `Quick fifo_order;
          Alcotest.test_case "tail drop when full" `Quick tail_drop_when_full;
          Alcotest.test_case "full duplex independence" `Quick
            full_duplex_independent;
          Alcotest.test_case "utilisation counter" `Quick utilisation_counter;
          Alcotest.test_case "delay jitter spreads arrivals" `Quick
            delay_jitter_spreads_arrivals;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "per-tag routes" `Quick tag_forwarding;
          Alcotest.test_case "reverse route installed" `Quick
            reverse_route_installed;
          Alcotest.test_case "missing route counted" `Quick no_route_counted;
          Alcotest.test_case "route table growth and re-install" `Quick
            route_table_growth_and_reinstall;
          Alcotest.test_case "install validation" `Quick
            install_route_validation;
          Alcotest.test_case "one host per node" `Quick double_host_rejected;
        ] );
      ( "failure",
        [
          Alcotest.test_case "down link destroys arrivals" `Quick
            link_down_destroys_packets;
          Alcotest.test_case "mid-flight packets lost" `Quick
            link_down_mid_flight;
          Alcotest.test_case "restore resumes delivery" `Quick link_restore;
          Alcotest.test_case "short flap loses packets on the wire" `Quick
            short_flap_loses_wire_packets;
          Alcotest.test_case "queue flushed on cut" `Quick
            link_down_flushes_queue;
        ] );
      ( "qdisc",
        [
          QCheck_alcotest.to_alcotest qcheck_link_conservation;
          Alcotest.test_case "admit/drop decisions" `Quick qdisc_unit;
          Alcotest.test_case "RED drops under sustained load" `Quick
            red_drops_before_full;
          Alcotest.test_case "CoDel defeats bufferbloat" `Quick
            codel_defeats_bufferbloat;
          Alcotest.test_case "CoDel leaves light traffic alone" `Quick
            codel_idle_below_target;
        ] );
      ( "pktring",
        [
          Alcotest.test_case "FIFO across growth" `Quick
            pktring_fifo_across_growth;
          Alcotest.test_case "wraparound and grow-while-wrapped" `Quick
            pktring_wraparound;
          Alcotest.test_case "iter, clear, empty ops" `Quick
            pktring_iter_and_clear;
          Alcotest.test_case "popped slots are reusable" `Quick
            pktring_does_not_retain_popped;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "CBR rate" `Quick cbr_rate;
          Alcotest.test_case "CBR stop" `Quick cbr_stop;
          Alcotest.test_case "on/off duty cycle" `Quick on_off_duty_cycle;
          Alcotest.test_case "CBR packets recycle through the pool" `Quick
            cbr_recycles_through_pool;
        ] );
    ]
