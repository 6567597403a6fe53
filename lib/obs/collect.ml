type conf = { trace : bool; metrics : bool }

let default_conf = { trace = true; metrics = true }

type t = {
  sched : Engine.Sched.t;
  trace : Trace.t option;
  metrics : Metrics.t option;
  mutable violations : int;
}

let create ~sched (conf : conf) =
  {
    sched;
    trace =
      (if conf.trace then Some (Trace.create ()) else None);
    metrics = (if conf.metrics then Some (Metrics.create ()) else None);
    violations = 0;
  }

let trace t = t.trace
let metrics t = t.metrics
let now_ns t = Engine.Sched.now t.sched

let rec_trace t kind ~track ?a ?b ?label () =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.record tr kind ~sim_ns:(now_ns t) ~track ?a ?b ?label ()

(* --- tracks --- *)

let track_loop = 0
let track_mptcp = 1
let track_audit = 2
let track_meta = 3
let track_subflow i = 10 + i
let track_link ~link ~dir = 100 + (2 * link) + dir

(* --- metrics: gauges over the counters each layer keeps --- *)

let register_gauges m sched net conn =
  let count name f = Metrics.gauge m name (fun () -> float_of_int (f ())) in
  let sum xs f () = Array.fold_left (fun acc x -> acc + f x) 0 xs in
  count "engine.events_dispatched" (fun () ->
      Engine.Sched.events_processed sched);
  count "engine.heap_depth" (fun () -> Engine.Sched.queue_length sched);
  (* GC counters are process-wide and scheduling-dependent, so — like
     wall-clock gauges — their names carry "wall" to opt out of
     cross-run determinism comparisons. *)
  let gc0 = Engine.Gctune.counters () in
  let gc () = Engine.Gctune.counters () in
  count "gc.wall.minor_collections" (fun () ->
      (gc ()).Engine.Gctune.minor_collections
      - gc0.Engine.Gctune.minor_collections);
  count "gc.wall.major_collections" (fun () ->
      (gc ()).Engine.Gctune.major_collections
      - gc0.Engine.Gctune.major_collections);
  Metrics.gauge m "gc.wall.promoted_words" (fun () ->
      (gc ()).Engine.Gctune.promoted_words -. gc0.Engine.Gctune.promoted_words);
  Metrics.gauge m "gc.wall.allocated_words" (fun () ->
      Engine.Gctune.allocated_words (Engine.Gctune.diff gc0 (gc ())));
  let queues = ref [] in
  Netsim.Net.iter_linkqs net (fun ~link:_ ~dir:_ q -> queues := q :: !queues);
  let queues = Array.of_list !queues in
  let links f = sum queues (fun q -> f (Netsim.Linkq.stats q)) in
  count "netsim.pkts_enqueued" (links (fun s -> s.Netsim.Linkq.enqueued));
  count "netsim.pkts_dropped" (links (fun s -> s.Netsim.Linkq.dropped));
  count "netsim.pkts_delivered" (links (fun s -> s.Netsim.Linkq.delivered));
  count "netsim.bytes_delivered"
    (links (fun s -> s.Netsim.Linkq.bytes_delivered));
  count "netsim.pkts_lost_down" (links (fun s -> s.Netsim.Linkq.lost_down));
  count "netsim.no_route" (fun () -> Netsim.Net.no_route_drops net);
  (* Freelist health: recycled/live counts are functions of the
     deterministic simulation, so they are safe to compare across job
     counts. *)
  let pool = Netsim.Net.pool net in
  count "netsim.pool.acquired" (fun () ->
      (Packet.Pool.stats pool).Packet.Pool.acquired);
  count "netsim.pool.recycled" (fun () ->
      (Packet.Pool.stats pool).Packet.Pool.recycled);
  count "netsim.pool.live" (fun () -> Packet.Pool.live pool);
  let n = Mptcp.Connection.subflow_count conn in
  let senders = Array.init n (Mptcp.Connection.subflow_sender conn) in
  let subflows f = sum senders (fun s -> f (Tcp.Sender.stats s)) in
  (* the sender's [segments_sent] includes its retransmissions *)
  count "tcp.segments_sent"
    (subflows (fun s -> s.Tcp.Sender.segments_sent - s.Tcp.Sender.retransmits));
  count "tcp.retransmits" (subflows (fun s -> s.Tcp.Sender.retransmits));
  count "tcp.acks" (subflows (fun s -> s.Tcp.Sender.acks));
  count "tcp.segments_delivered"
    (sum (Array.init n (Mptcp.Connection.subflow_receiver conn))
       Tcp.Receiver.delivered);
  let connection name f = count name (fun () -> f conn) in
  connection "mptcp.sched_grants" Mptcp.Connection.sched_grants;
  connection "mptcp.sched_defers" Mptcp.Connection.sched_defers;
  (* one count under two names, both kept for the readers of either *)
  connection "mptcp.reinjections" Mptcp.Connection.reinjections;
  connection "mptcp.reinjections_total" Mptcp.Connection.reinjections;
  connection "mptcp.delivered_bytes" Mptcp.Connection.delivered_bytes;
  connection "mptcp.reassembly_buffered" Mptcp.Connection.reassembly_buffered;
  Array.iteri
    (fun i sender ->
      Metrics.gauge m (Printf.sprintf "tcp.cwnd.%d" i) (fun () ->
          Tcp.Sender.cwnd sender);
      Metrics.gauge m (Printf.sprintf "mptcp.subflow.%d.goodput_bps" i)
        (fun () ->
          Tcp.Sender.throughput_bps sender ~now:(Engine.Sched.now sched)))
    senders

(* --- trace: one record per tap event --- *)

let subscribe_trace t tr net conn =
  let record = rec_trace t in
  Trace.name_track tr track_loop "event-loop";
  Trace.name_track tr track_mptcp "mptcp-scheduler";
  Trace.name_track tr track_audit "audit";
  Trace.name_track tr track_meta "metrics";
  Engine.Tap.subscribe (Engine.Sched.tap t.sched) (fun _when ->
      record Trace.Loop_dispatch ~track:track_loop ());
  Netsim.Net.iter_linkqs net (fun ~link ~dir q ->
      let dir_i = match dir with Netsim.Net.Fwd -> 0 | Rev -> 1 in
      let track = track_link ~link ~dir:dir_i in
      Trace.name_track tr track
        (Printf.sprintf "link%d.%s" link (if dir_i = 0 then "fwd" else "rev"));
      let packet kind p =
        record kind ~track ~a:p.Packet.id ~b:p.Packet.size ()
      in
      Engine.Tap.subscribe (Netsim.Linkq.tap q) (function
        | Netsim.Linkq.Enqueued p -> packet Trace.Link_enqueue p
        | Netsim.Linkq.Dropped p -> packet Trace.Link_drop p
        | Netsim.Linkq.Delivered p -> packet Trace.Link_dequeue p
        | Netsim.Linkq.Lost_down p -> packet Trace.Link_lost p));
  Engine.Tap.subscribe (Mptcp.Connection.tap conn) (function
    | Mptcp.Connection.Sched_grant { subflow; dseq; len } ->
      record Trace.Sched_grant ~track:track_mptcp ~a:dseq ~b:len
        ~label:(Printf.sprintf "sf%d" subflow) ()
    | Mptcp.Connection.Sched_defer { subflow; preferred } ->
      record Trace.Sched_defer ~track:track_mptcp ~a:subflow
        ~b:(match preferred with Some j -> j | None -> -1)
        ()
    | Mptcp.Connection.Reinjected { subflow; dseq; len; owner = _ } ->
      record Trace.Reinject ~track:track_mptcp ~a:dseq ~b:len
        ~label:(Printf.sprintf "sf%d" subflow) ()
    | Mptcp.Connection.Subflow_state { subflow; active } ->
      record Trace.Subflow_state ~track:track_mptcp ~a:subflow
        ~b:(if active then 1 else 0)
        ~label:(Printf.sprintf "sf%d" subflow) ());
  for i = 0 to Mptcp.Connection.subflow_count conn - 1 do
    let track = track_subflow i in
    Trace.name_track tr track (Printf.sprintf "subflow%d" i);
    Engine.Tap.subscribe
      (Tcp.Sender.tap (Mptcp.Connection.subflow_sender conn i))
      (function
        | Tcp.Sender.Seg_sent { seq; len; retx } ->
          record
            (if retx then Trace.Tcp_retransmit else Trace.Tcp_sent)
            ~track ~a:seq ~b:len ()
        | Tcp.Sender.Ack_advanced { una } ->
          record Trace.Tcp_ack ~track ~a:una ()
        | Tcp.Sender.Cwnd_changed { cwnd } ->
          (* milli-MSS: integer payload keeps the event unboxed-friendly *)
          record Trace.Tcp_cwnd ~track ~a:(int_of_float (cwnd *. 1000.0)) ()
        | Tcp.Sender.State_changed { state } ->
          let code, label =
            match state with
            | Tcp.Sender.Open -> (0, "open")
            | Tcp.Sender.Recovery -> (1, "recovery")
            | Tcp.Sender.Loss -> (2, "loss")
          in
          record Trace.Tcp_state ~track ~a:code ~label ());
    Engine.Tap.subscribe
      (Tcp.Receiver.tap (Mptcp.Connection.subflow_receiver conn i))
      (fun (Tcp.Receiver.Delivered { seq; len }) ->
        record Trace.Tcp_rx ~track ~a:seq ~b:len ())
  done

let attach t net conn =
  Option.iter (fun m -> register_gauges m t.sched net conn) t.metrics;
  Option.iter (fun tr -> subscribe_trace t tr net conn) t.trace

(* --- audit bridge and snapshots --- *)

let set_value t name x =
  match t.metrics with None -> () | Some m -> Metrics.set m name x

let violation t ~invariant =
  t.violations <- t.violations + 1;
  set_value t "audit.violations" (float_of_int t.violations);
  rec_trace t Trace.Audit_violation ~track:track_audit ~label:invariant ()

let snapshot t =
  match t.metrics with
  | None -> ()
  | Some m ->
    Metrics.snapshot m ~sim_ns:(now_ns t);
    rec_trace t Trace.Metrics_snapshot ~track:track_meta ()

(* "wall" appears in every wall-clock-derived metric name by
   convention (core.wall_time_s, core.wall_events_per_s), so dropping
   on substring keeps the returned list deterministic. *)
let wall_metric name =
  let n = String.length name and sub = "wall" in
  let rec at i =
    if i + 4 > n then false
    else if String.sub name i 4 = sub then true
    else at (i + 1)
  in
  at 0

let final_metrics t =
  match t.metrics with
  | None -> []
  | Some m -> (
    match Metrics.latest m with
    | None -> []
    | Some s ->
      List.filter
        (fun (name, _) -> not (wall_metric name))
        s.Metrics.values)
