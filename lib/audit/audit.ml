type violation = {
  at : Engine.Time.t;
  invariant : string;
  detail : string;
}

type ledger = {
  injected_pkts : int;
  injected_bytes : int;
  delivered_pkts : int;
  delivered_bytes : int;
  dropped_pkts : int;
  dropped_bytes : int;
  no_route_pkts : int;
  lost_down_pkts : int;
  inflight_pkts : int;
  inflight_bytes : int;
}

type report = {
  violations : violation list;
  total_violations : int;
  checks : int;
  ledger : ledger;
}

type conn_watch = {
  c_label : string;
  conn : Mptcp.Connection.t;
  mutable last_data_ack : int;
  mutable last_data_ack_rx : int;
}

type t = {
  sched : Engine.Sched.t;
  mutable violations_rev : violation list;
  mutable n_violations : int;
  mutable checks : int;
  live : (int, int) Hashtbl.t; (* wire id -> size in bytes *)
  mutable injected_pkts : int;
  mutable injected_bytes : int;
  mutable delivered_pkts : int;
  mutable delivered_bytes : int;
  mutable dropped_pkts : int;
  mutable dropped_bytes : int;
  mutable no_route_pkts : int;
  mutable lost_down_pkts : int;
  mutable nets : Netsim.Net.t list;
  mutable conns : conn_watch list;
  mutable finished : bool;
  tap : violation Engine.Tap.t;
}

(* Violation records kept; the count is always exact. *)
let max_violations = 50

let create ~sched =
  {
    sched;
    violations_rev = [];
    n_violations = 0;
    checks = 0;
    live = Hashtbl.create 256;
    injected_pkts = 0;
    injected_bytes = 0;
    delivered_pkts = 0;
    delivered_bytes = 0;
    dropped_pkts = 0;
    dropped_bytes = 0;
    no_route_pkts = 0;
    lost_down_pkts = 0;
    nets = [];
    conns = [];
    finished = false;
    tap = Engine.Tap.create ();
  }

let violate t ~invariant detail =
  t.n_violations <- t.n_violations + 1;
  let v = { at = Engine.Sched.now t.sched; invariant; detail } in
  if t.n_violations <= max_violations then
    t.violations_rev <- v :: t.violations_rev;
  Engine.Tap.emit t.tap v

let tap t = t.tap

(* One invariant evaluation; [detail] is only built on failure. *)
let check t ~invariant cond detail =
  t.checks <- t.checks + 1;
  if not cond then violate t ~invariant (detail ())

(* --- packet conservation --- *)

let track_inject t ~node p =
  t.checks <- t.checks + 1;
  if Hashtbl.mem t.live p.Packet.id then
    violate t ~invariant:"conservation.duplicate-packet"
      (Printf.sprintf
         "packet id %d (size %dB) injected at node %d while already live"
         p.Packet.id p.Packet.size node)
  else begin
    Hashtbl.replace t.live p.Packet.id p.Packet.size;
    t.injected_pkts <- t.injected_pkts + 1;
    t.injected_bytes <- t.injected_bytes + p.Packet.size
  end

(* Transition a packet out of the live set; [false] means it was never
   (or no longer) tracked — itself a conservation violation. *)
let settle t p ~fate =
  t.checks <- t.checks + 1;
  if Hashtbl.mem t.live p.Packet.id then begin
    Hashtbl.remove t.live p.Packet.id;
    true
  end
  else begin
    violate t ~invariant:"conservation.unknown-packet"
      (Printf.sprintf "packet id %d reached fate %S but was never injected \
                       (or already settled)"
         p.Packet.id fate);
    false
  end

let assert_live t p ~where =
  check t ~invariant:"conservation.unknown-packet"
    (Hashtbl.mem t.live p.Packet.id)
    (fun () ->
      Printf.sprintf "packet id %d observed %s but is not live" p.Packet.id
        where)

let attach_net t net =
  t.nets <- net :: t.nets;
  for node = 0 to Netgraph.Topology.num_nodes (Netsim.Net.topology net) - 1 do
    Engine.Tap.subscribe (Netsim.Net.inject_tap net ~node) (fun p ->
        track_inject t ~node p);
    (* an arrival at the packet's destination is its host delivery *)
    Engine.Tap.subscribe (Netsim.Net.arrival_tap net ~node) (fun p ->
        if p.Packet.dst = node && settle t p ~fate:"host delivery" then begin
          t.delivered_pkts <- t.delivered_pkts + 1;
          t.delivered_bytes <- t.delivered_bytes + p.Packet.size
        end);
    Engine.Tap.subscribe (Netsim.Net.no_route_tap net ~node) (fun p ->
        if settle t p ~fate:(Printf.sprintf "no route at node %d" node) then
          t.no_route_pkts <- t.no_route_pkts + 1)
  done;
  Netsim.Net.iter_linkqs net (fun ~link ~dir q ->
      let dir_name =
        match dir with Netsim.Net.Fwd -> "fwd" | Netsim.Net.Rev -> "rev"
      in
      Engine.Tap.subscribe (Netsim.Linkq.tap q) (function
        | Netsim.Linkq.Enqueued p ->
          assert_live t p
            ~where:(Printf.sprintf "enqueued on link %d/%s" link dir_name);
          check t ~invariant:"link.occupancy"
            (Netsim.Linkq.queue_pkts q <= Netsim.Linkq.limit_pkts q)
            (fun () ->
              Printf.sprintf
                "link %d/%s: %d packets queued exceeds limit %d after \
                 admitting packet id %d"
                link dir_name
                (Netsim.Linkq.queue_pkts q)
                (Netsim.Linkq.limit_pkts q)
                p.Packet.id)
        | Netsim.Linkq.Delivered p ->
          assert_live t p
            ~where:(Printf.sprintf "delivered by link %d/%s" link dir_name);
          check t ~invariant:"link.down-delivery"
            (Netsim.Linkq.is_up q)
            (fun () ->
              Printf.sprintf
                "link %d/%s: packet id %d delivered while the link is down"
                link dir_name p.Packet.id)
        | Netsim.Linkq.Dropped p ->
          if
            settle t p
              ~fate:(Printf.sprintf "qdisc drop on link %d/%s" link dir_name)
          then begin
            t.dropped_pkts <- t.dropped_pkts + 1;
            t.dropped_bytes <- t.dropped_bytes + p.Packet.size
          end
        | Netsim.Linkq.Lost_down p ->
          if
            settle t p
              ~fate:(Printf.sprintf "lost on downed link %d/%s" link dir_name)
          then t.lost_down_pkts <- t.lost_down_pkts + 1))

(* --- per-subflow transport invariants --- *)

let attach_sender t ~label s =
  let mss = Tcp.Sender.mss s in
  let last_una = ref (Tcp.Sender.snd_una s) in
  Engine.Tap.subscribe (Tcp.Sender.tap s)
    (fun ev ->
      let cw = Tcp.Sender.cwnd s in
      check t ~invariant:"tcp.cwnd"
        (Float.is_finite cw && cw >= 1.0 -. 1e-9)
        (fun () ->
          Printf.sprintf "%s: cwnd=%g outside [1, +inf)" label cw);
      let ss = Tcp.Sender.ssthresh s in
      check t ~invariant:"tcp.ssthresh"
        (Float.is_finite ss && ss >= Tcp.Cc.min_cwnd -. 1e-9)
        (fun () ->
          Printf.sprintf "%s: ssthresh=%g below CC floor %g" label ss
            Tcp.Cc.min_cwnd);
      match ev with
      | Tcp.Sender.Seg_sent { seq; len; retx } ->
        check t ~invariant:"tcp.segment"
          (len > 0 && len <= mss && seq >= Tcp.Sender.snd_una s)
          (fun () ->
            Printf.sprintf
              "%s: sent%s seq=%d len=%d outside (0, mss=%d] or below \
               snd_una=%d"
              label
              (if retx then " (retx)" else "")
              seq len mss (Tcp.Sender.snd_una s))
      | Tcp.Sender.Ack_advanced { una } ->
        check t ~invariant:"tcp.ack-monotone"
          (una > !last_una && una <= Tcp.Sender.snd_nxt s)
          (fun () ->
            Printf.sprintf
              "%s: snd_una advanced to %d (previous %d, snd_nxt %d)" label
              una !last_una (Tcp.Sender.snd_nxt s));
        last_una := max !last_una una;
        check t ~invariant:"tcp.pipe"
          (Tcp.Sender.pipe_consistent s)
          (fun () ->
            Printf.sprintf
              "%s: incremental pipe diverged from scoreboard recount"
              label);
        check t ~invariant:"tcp.scoreboard"
          (Tcp.Sender.scoreboard_consistent s)
          (fun () ->
            Printf.sprintf
              "%s: flat scoreboard inconsistent (contiguity or SACK \
               counter drift)"
              label)
      | Tcp.Sender.Cwnd_changed _ | Tcp.Sender.State_changed _ ->
        (* observability events; window sanity is re-checked above on
           every event anyway *)
        ())

let attach_receiver t ~label r =
  let expected = ref (Tcp.Receiver.rcv_nxt r) in
  Engine.Tap.subscribe (Tcp.Receiver.tap r)
    (fun (Tcp.Receiver.Delivered { seq; len }) ->
      check t ~invariant:"tcp.rx-order"
        (len > 0 && seq <= !expected
        && seq + len > !expected
        && Tcp.Receiver.rcv_nxt r = seq + len)
        (fun () ->
          Printf.sprintf
            "%s: delivered seq=%d len=%d but expected prefix up to %d \
             (rcv_nxt now %d)"
            label seq len !expected (Tcp.Receiver.rcv_nxt r));
      expected := max !expected (seq + len))

let attach_connection t ~label conn =
  t.conns <-
    {
      c_label = label;
      conn;
      last_data_ack = Mptcp.Connection.data_ack conn;
      last_data_ack_rx = Mptcp.Connection.data_ack_rx conn;
    }
    :: t.conns;
  (* Scheduler-decision invariants: the scheduler must never map data
     onto a dead subflow, liveness transitions must actually alternate
     (a repeated down or up for the same subflow means the idempotence
     guard broke), and every (re)mapping must leave the chunk-ownership
     ring sound. *)
  let active = Array.make (Mptcp.Connection.subflow_count conn) true in
  let owners ~what ~dseq =
    check t ~invariant:"mptcp.chunk-owners"
      (Mptcp.Connection.owners_consistent conn)
      (fun () ->
        Printf.sprintf
          "%s: chunk-ownership ring inconsistent after %s of dseq %d \
           (order, overlap, owner index or end past next_dseq)"
          label what dseq)
  in
  Engine.Tap.subscribe (Mptcp.Connection.tap conn)
    (function
    | Mptcp.Connection.Sched_grant { subflow; dseq; len = _ } ->
      check t ~invariant:"mptcp.grant-inactive"
        (active.(subflow) && Mptcp.Connection.subflow_active conn subflow)
        (fun () ->
          Printf.sprintf
            "%s: scheduler granted dseq %d to inactive subflow %d" label
            dseq subflow);
      owners ~what:"grant" ~dseq
    | Mptcp.Connection.Reinjected { dseq; _ } ->
      owners ~what:"reinjection" ~dseq
    | Mptcp.Connection.Subflow_state { subflow; active = a } ->
      check t ~invariant:"mptcp.subflow-churn"
        (active.(subflow) <> a)
        (fun () ->
          Printf.sprintf
            "%s: subflow %d reported %s twice in a row" label subflow
            (if a then "active" else "inactive"));
      active.(subflow) <- a
    | Mptcp.Connection.Sched_defer _ -> ());
  for i = 0 to Mptcp.Connection.subflow_count conn - 1 do
    let sub_label = Printf.sprintf "%s/sf%d" label i in
    attach_sender t ~label:sub_label (Mptcp.Connection.subflow_sender conn i);
    attach_receiver t ~label:sub_label
      (Mptcp.Connection.subflow_receiver conn i)
  done

let tick t =
  List.iter
    (fun w ->
      let da = Mptcp.Connection.data_ack w.conn in
      check t ~invariant:"mptcp.data-ack-monotone" (da >= w.last_data_ack)
        (fun () ->
          Printf.sprintf "%s: DATA_ACK went backwards: %d after %d" w.c_label
            da w.last_data_ack);
      w.last_data_ack <- max w.last_data_ack da;
      let rx = Mptcp.Connection.data_ack_rx w.conn in
      check t ~invariant:"mptcp.data-ack-monotone"
        (rx >= w.last_data_ack_rx && rx <= da)
        (fun () ->
          Printf.sprintf
            "%s: sender-side DATA_ACK %d outside [%d (previous), %d \
             (receiver cumulative)]"
            w.c_label rx w.last_data_ack_rx da);
      w.last_data_ack_rx <- max w.last_data_ack_rx rx;
      let delivered = Mptcp.Connection.delivered_bytes w.conn in
      let buffered = Mptcp.Connection.reassembly_buffered w.conn in
      let mapped = Mptcp.Connection.mapped_bytes w.conn in
      check t ~invariant:"mptcp.reassembly-ledger"
        (delivered >= 0 && buffered >= 0 && delivered + buffered <= mapped)
        (fun () ->
          Printf.sprintf
            "%s: delivered %dB + buffered %dB exceeds %dB mapped onto \
             subflows"
            w.c_label delivered buffered mapped))
    t.conns

(* --- LP feasibility --- *)

let check_lp t ~topo ~paths ~measured_bps ?(tolerance = 0.05) () =
  (match paths with [] -> invalid_arg "Audit.check_lp: no paths" | _ -> ());
  if Array.length measured_bps <> List.length paths then
    invalid_arg "Audit.check_lp: one measurement per path required";
  Array.iteri
    (fun j x ->
      check t ~invariant:"lp.measurement"
        (Float.is_finite x && x >= -1.0)
        (fun () -> Printf.sprintf "path %d: measured rate %g bps" j x))
    measured_bps;
  let finite x = if Float.is_finite x then x else 0.0 in
  let sys = Netgraph.Constraints.extract topo paths in
  (* One shared checker decides feasibility for the audit and the fluid
     validator alike (Netgraph.Constraints.violations); the audit only
     adds per-row bookkeeping and messages on top. *)
  let viols =
    Netgraph.Constraints.violations ~slack_frac:tolerance ~slack_abs:1e6 sys
      ~x:(Array.map finite measured_bps)
  in
  Array.iteri
    (fun i _ ->
      let viol =
        List.find_opt (fun v -> v.Netgraph.Constraints.row = i) viols
      in
      check t ~invariant:"lp.feasibility" (viol = None) (fun () ->
          let v = Option.get viol in
          let l =
            Netgraph.Topology.link topo v.Netgraph.Constraints.link_id
          in
          Printf.sprintf
            "link %s-%s: measured %.2f Mbps exceeds capacity %.2f Mbps \
             (tolerance %.0f%%)"
            (Netgraph.Topology.node_name topo l.Netgraph.Topology.u)
            (Netgraph.Topology.node_name topo l.Netgraph.Topology.v)
            (v.Netgraph.Constraints.load_bps /. 1e6)
            (v.Netgraph.Constraints.cap_bps /. 1e6)
            (tolerance *. 100.)))
    sys.Netgraph.Constraints.a;
  let first = List.hd paths in
  let src = Netgraph.Path.src first and dst = Netgraph.Path.dst first in
  let mf = float_of_int (Netgraph.Maxflow.max_flow topo ~src ~dst) in
  let total =
    Array.fold_left (fun acc x -> acc +. finite x) 0.0 measured_bps
  in
  check t ~invariant:"lp.maxflow-bound"
    (total <= (mf *. (1. +. tolerance)) +. 1e6)
    (fun () ->
      Printf.sprintf
        "total measured %.2f Mbps exceeds the %.2f Mbps max-flow bound"
        (total /. 1e6) (mf /. 1e6))

(* --- end-of-run sweep --- *)

let finish t ?elapsed () =
  if not t.finished then begin
    t.finished <- true;
    let elapsed =
      match elapsed with Some e -> e | None -> Engine.Sched.now t.sched
    in
    let elapsed_s = Engine.Time.to_float_s elapsed in
    let q_dropped = ref 0 and q_lost = ref 0 in
    List.iter
      (fun net ->
        Netsim.Net.iter_linkqs net (fun ~link ~dir q ->
            let dir_name =
              match dir with Netsim.Net.Fwd -> "fwd" | Netsim.Net.Rev -> "rev"
            in
            let st = Netsim.Linkq.stats q in
            q_dropped := !q_dropped + st.Netsim.Linkq.dropped;
            q_lost := !q_lost + st.Netsim.Linkq.lost_down;
            check t ~invariant:"link.occupancy"
              (Netsim.Linkq.queue_pkts q <= Netsim.Linkq.limit_pkts q)
              (fun () ->
                Printf.sprintf "link %d/%s: final occupancy %d exceeds limit %d"
                  link dir_name
                  (Netsim.Linkq.queue_pkts q)
                  (Netsim.Linkq.limit_pkts q));
            (* The capacity integral over every effective-rate regime
               bounds delivered bits even when events re-rated the link
               or a fluid background claimed a share mid-run; two wire
               MTUs of slack cover boundary packets. *)
            let cap_bits = Netsim.Linkq.capacity_bits q ~now:elapsed in
            check t ~invariant:"link.rate"
              (elapsed_s <= 0.0
              || float_of_int (st.Netsim.Linkq.bytes_delivered * 8)
                 <= (cap_bits *. 1.01) +. 24_000.)
              (fun () ->
                Printf.sprintf
                  "link %d/%s: delivered %dB in %.3fs exceeds the link's \
                   %.0f-bit capacity budget"
                  link dir_name st.Netsim.Linkq.bytes_delivered elapsed_s
                  cap_bits);
            (* A packet in the serializer at the horizon had its whole
               tx time charged up front; a fluid background can slow the
               serializer well below nominal, so the slack must assume
               the in-flight packet transmits at the slowest effective
               rate the link ever served at. *)
            let busy_slack =
              Engine.Time.tx_time ~bits:24_000
                ~rate_bps:(Netsim.Linkq.min_effective_rate_bps q)
            in
            check t ~invariant:"link.busy"
              (st.Netsim.Linkq.busy_ns <= Engine.Time.add elapsed busy_slack)
              (fun () ->
                Printf.sprintf
                  "link %d/%s: serializer busy %dns over an elapsed %dns"
                  link dir_name st.Netsim.Linkq.busy_ns elapsed)))
      t.nets;
    let no_route =
      List.fold_left
        (fun acc net -> acc + Netsim.Net.no_route_drops net)
        0 t.nets
    in
    check t ~invariant:"conservation.ledger"
      (!q_dropped = t.dropped_pkts)
      (fun () ->
        Printf.sprintf
          "queues report %d qdisc drops but the ledger settled %d" !q_dropped
          t.dropped_pkts);
    check t ~invariant:"conservation.ledger" (!q_lost = t.lost_down_pkts)
      (fun () ->
        Printf.sprintf
          "queues report %d link-down losses but the ledger settled %d"
          !q_lost t.lost_down_pkts);
    check t ~invariant:"conservation.ledger" (no_route = t.no_route_pkts)
      (fun () ->
        Printf.sprintf
          "the network reports %d no-route drops but the ledger settled %d"
          no_route t.no_route_pkts);
    check t ~invariant:"conservation.ledger"
      (t.injected_pkts
      = t.delivered_pkts + t.dropped_pkts + t.no_route_pkts
        + t.lost_down_pkts + Hashtbl.length t.live)
      (fun () ->
        Printf.sprintf
          "injected %d <> delivered %d + dropped %d + no-route %d + \
           lost-down %d + in-flight %d"
          t.injected_pkts t.delivered_pkts t.dropped_pkts t.no_route_pkts
          t.lost_down_pkts (Hashtbl.length t.live))
  end

(* --- reporting --- *)

let violations t = List.rev t.violations_rev

let ledger t =
  let inflight_bytes = Hashtbl.fold (fun _ size acc -> acc + size) t.live 0 in
  {
    injected_pkts = t.injected_pkts;
    injected_bytes = t.injected_bytes;
    delivered_pkts = t.delivered_pkts;
    delivered_bytes = t.delivered_bytes;
    dropped_pkts = t.dropped_pkts;
    dropped_bytes = t.dropped_bytes;
    no_route_pkts = t.no_route_pkts;
    lost_down_pkts = t.lost_down_pkts;
    inflight_pkts = Hashtbl.length t.live;
    inflight_bytes;
  }

let report t =
  {
    violations = violations t;
    total_violations = t.n_violations;
    checks = t.checks;
    ledger = ledger t;
  }

let pp_violation fmt v =
  Format.fprintf fmt "[t=%.6fs] %s: %s"
    (Engine.Time.to_float_s v.at)
    v.invariant v.detail

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>audit: %d violation%s over %d checks@,\
     ledger: injected %d pkts (%dB), delivered %d (%dB), qdisc-dropped %d \
     (%dB), no-route %d, lost-down %d, in-flight %d (%dB)@,"
    r.total_violations
    (if r.total_violations = 1 then "" else "s")
    r.checks r.ledger.injected_pkts r.ledger.injected_bytes
    r.ledger.delivered_pkts r.ledger.delivered_bytes r.ledger.dropped_pkts
    r.ledger.dropped_bytes r.ledger.no_route_pkts r.ledger.lost_down_pkts
    r.ledger.inflight_pkts r.ledger.inflight_bytes;
  List.iter (fun v -> Format.fprintf fmt "  %a@," pp_violation v) r.violations;
  if r.total_violations > List.length r.violations then
    Format.fprintf fmt "  ... and %d more@,"
      (r.total_violations - List.length r.violations);
  Format.fprintf fmt "@]"
