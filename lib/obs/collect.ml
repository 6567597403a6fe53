type conf = { trace : bool; metrics : bool; trace_capacity : int }

let default_conf = { trace = true; metrics = true; trace_capacity = 65536 }

type t = {
  sched : Engine.Sched.t;
  trace : Trace.t option;
  metrics : Metrics.t option;
}

let create ~sched (conf : conf) =
  {
    sched;
    trace =
      (if conf.trace then Some (Trace.create ~capacity:conf.trace_capacity ())
       else None);
    metrics = (if conf.metrics then Some (Metrics.create ()) else None);
  }

let trace t = t.trace
let metrics t = t.metrics
let enabled t = t.trace <> None || t.metrics <> None
let now_ns t = Engine.Sched.now t.sched

let rec_trace t kind ~track ?a ?b ?label () =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.record tr kind ~sim_ns:(now_ns t) ~track ?a ?b ?label ()

(* A counter, or [None] when the metrics layer is off. *)
let counter t name = Option.map (fun m -> Metrics.counter m name) t.metrics
let bump ?by = function None -> () | Some c -> Metrics.incr ?by c

(* --- tracks --- *)

let track_loop = 0
let track_mptcp = 1
let track_audit = 2
let track_meta = 3
let track_subflow i = 10 + i
let track_link ~link ~dir = 100 + (2 * link) + dir

(* --- engine --- *)

let attach_sched t sched =
  if enabled t then begin
    (match t.trace with
    | Some tr ->
      Trace.name_track tr track_loop "event-loop";
      Trace.name_track tr track_mptcp "mptcp-scheduler";
      Trace.name_track tr track_audit "audit";
      Trace.name_track tr track_meta "metrics"
    | None -> ());
    let count =
      match t.metrics with
      | None -> ignore
      | Some m ->
        Metrics.gauge m "engine.heap_depth" (fun () ->
            float_of_int (Engine.Sched.queue_length sched));
        (* GC counters are process-wide and scheduling-dependent, so —
           like wall-clock gauges — their names carry "wall" to opt out
           of cross-run determinism comparisons. *)
        let gc0 = Engine.Gctune.counters () in
        Metrics.gauge m "gc.wall.minor_collections" (fun () ->
            float_of_int
              ((Engine.Gctune.counters ()).Engine.Gctune.minor_collections
              - gc0.Engine.Gctune.minor_collections));
        Metrics.gauge m "gc.wall.major_collections" (fun () ->
            float_of_int
              ((Engine.Gctune.counters ()).Engine.Gctune.major_collections
              - gc0.Engine.Gctune.major_collections));
        Metrics.gauge m "gc.wall.promoted_words" (fun () ->
            (Engine.Gctune.counters ()).Engine.Gctune.promoted_words
            -. gc0.Engine.Gctune.promoted_words);
        Metrics.gauge m "gc.wall.allocated_words" (fun () ->
            Engine.Gctune.allocated_words
              (Engine.Gctune.diff gc0 (Engine.Gctune.counters ())));
        let c = Metrics.counter m "engine.events_dispatched" in
        fun () -> Metrics.incr c
    in
    let tap _when = count (); rec_trace t Trace.Loop_dispatch ~track:track_loop () in
    Engine.Tap.subscribe (Engine.Sched.tap sched) tap
  end

(* --- network --- *)

let attach_net t net =
  if enabled t then begin
    let counter = counter t in
    let enq = counter "netsim.pkts_enqueued"
    and drp = counter "netsim.pkts_dropped"
    and dlv = counter "netsim.pkts_delivered"
    and dlv_b = counter "netsim.bytes_delivered"
    and lost = counter "netsim.pkts_lost_down"
    and nort = counter "netsim.no_route" in
    (* Freelist health: recycled/live counts are functions of the
       deterministic simulation, so they are safe to compare across
       job counts. *)
    (match t.metrics with
    | Some m ->
      let pool = Netsim.Net.pool net in
      Metrics.gauge m "netsim.pool.acquired" (fun () ->
          float_of_int (Packet.Pool.stats pool).Packet.Pool.acquired);
      Metrics.gauge m "netsim.pool.recycled" (fun () ->
          float_of_int (Packet.Pool.stats pool).Packet.Pool.recycled);
      Metrics.gauge m "netsim.pool.live" (fun () ->
          float_of_int (Packet.Pool.live pool))
    | None -> ());
    Netsim.Net.iter_linkqs net (fun ~link ~dir q ->
        let dir_i = match dir with Netsim.Net.Fwd -> 0 | Rev -> 1 in
        let track = track_link ~link ~dir:dir_i in
        (match t.trace with
        | Some tr ->
          Trace.name_track tr track
            (Printf.sprintf "link%d.%s" link
               (if dir_i = 0 then "fwd" else "rev"))
        | None -> ());
        Engine.Tap.subscribe (Netsim.Linkq.tap q) (function
          | Netsim.Linkq.Enqueued p ->
            bump enq;
            rec_trace t Trace.Link_enqueue ~track ~a:p.Packet.id
              ~b:p.Packet.size ()
          | Netsim.Linkq.Dropped p ->
            bump drp;
            rec_trace t Trace.Link_drop ~track ~a:p.Packet.id
              ~b:p.Packet.size ()
          | Netsim.Linkq.Delivered p ->
            bump dlv;
            bump ~by:p.Packet.size dlv_b;
            rec_trace t Trace.Link_dequeue ~track ~a:p.Packet.id
              ~b:p.Packet.size ()
          | Netsim.Linkq.Lost_down p ->
            bump lost;
            rec_trace t Trace.Link_lost ~track ~a:p.Packet.id
              ~b:p.Packet.size ()));
    for node = 0 to Netgraph.Topology.num_nodes (Netsim.Net.topology net) - 1 do
      Engine.Tap.subscribe (Netsim.Net.no_route_tap net ~node) (fun _ ->
          bump nort)
    done
  end

(* --- TCP / MPTCP --- *)

let attach_connection t conn =
  if enabled t then begin
    let counter = counter t in
    let sent = counter "tcp.segments_sent"
    and retx = counter "tcp.retransmits"
    and acks = counter "tcp.acks"
    and rxs = counter "tcp.segments_delivered"
    and grants = counter "mptcp.sched_grants"
    and defers = counter "mptcp.sched_defers"
    and reinj = counter "mptcp.reinjections" in
    (match t.metrics with
    | Some m ->
      Metrics.gauge m "mptcp.delivered_bytes" (fun () ->
          float_of_int (Mptcp.Connection.delivered_bytes conn));
      Metrics.gauge m "mptcp.reassembly_buffered" (fun () ->
          float_of_int (Mptcp.Connection.reassembly_buffered conn));
      Metrics.gauge m "mptcp.reinjections_total" (fun () ->
          float_of_int (Mptcp.Connection.reinjections conn))
    | None -> ());
    let conn_tap ev =
      match ev with
      | Mptcp.Connection.Sched_grant { subflow; dseq; len } ->
        bump grants;
        rec_trace t Trace.Sched_grant ~track:track_mptcp ~a:dseq ~b:len
          ~label:(Printf.sprintf "sf%d" subflow) ()
      | Mptcp.Connection.Sched_defer { subflow; preferred } ->
        bump defers;
        rec_trace t Trace.Sched_defer ~track:track_mptcp ~a:subflow
          ~b:(match preferred with Some j -> j | None -> -1)
          ()
      | Mptcp.Connection.Reinjected { subflow; dseq; len; owner = _ } ->
        bump reinj;
        rec_trace t Trace.Reinject ~track:track_mptcp ~a:dseq ~b:len
          ~label:(Printf.sprintf "sf%d" subflow) ()
      | Mptcp.Connection.Subflow_state { subflow; active } ->
        rec_trace t Trace.Subflow_state ~track:track_mptcp ~a:subflow
          ~b:(if active then 1 else 0)
          ~label:(Printf.sprintf "sf%d" subflow) ()
    in
    Engine.Tap.subscribe (Mptcp.Connection.tap conn) conn_tap;
    for i = 0 to Mptcp.Connection.subflow_count conn - 1 do
      let track = track_subflow i in
      let sender = Mptcp.Connection.subflow_sender conn i in
      let receiver = Mptcp.Connection.subflow_receiver conn i in
      (match t.trace with
      | Some tr -> Trace.name_track tr track (Printf.sprintf "subflow%d" i)
      | None -> ());
      (match t.metrics with
      | Some m ->
        Metrics.gauge m (Printf.sprintf "tcp.cwnd.%d" i) (fun () ->
            Tcp.Sender.cwnd sender);
        Metrics.gauge m (Printf.sprintf "mptcp.subflow.%d.goodput_bps" i)
          (fun () ->
            Tcp.Sender.throughput_bps sender ~now:(Engine.Sched.now t.sched))
      | None -> ());
      let sender_tap ev =
        match ev with
        | Tcp.Sender.Seg_sent { seq; len; retx = is_retx } ->
          if is_retx then begin
            bump retx;
            rec_trace t Trace.Tcp_retransmit ~track ~a:seq ~b:len ()
          end
          else begin
            bump sent;
            rec_trace t Trace.Tcp_sent ~track ~a:seq ~b:len ()
          end
        | Tcp.Sender.Ack_advanced { una } ->
          bump acks;
          rec_trace t Trace.Tcp_ack ~track ~a:una ()
        | Tcp.Sender.Cwnd_changed { cwnd } ->
          (* milli-MSS: integer payload keeps the event unboxed-friendly *)
          rec_trace t Trace.Tcp_cwnd ~track
            ~a:(int_of_float (cwnd *. 1000.0))
            ()
        | Tcp.Sender.State_changed { state } ->
          let code, label =
            match state with
            | Tcp.Sender.Open -> (0, "open")
            | Tcp.Sender.Recovery -> (1, "recovery")
            | Tcp.Sender.Loss -> (2, "loss")
          in
          rec_trace t Trace.Tcp_state ~track ~a:code ~label ()
      in
      Engine.Tap.subscribe (Tcp.Sender.tap sender) sender_tap;
      let receiver_tap (Tcp.Receiver.Delivered { seq; len }) =
        bump rxs;
        rec_trace t Trace.Tcp_rx ~track ~a:seq ~b:len ()
      in
      Engine.Tap.subscribe (Tcp.Receiver.tap receiver) receiver_tap
    done
  end

(* --- audit bridge and snapshots --- *)

let violation t ~invariant =
  bump (counter t "audit.violations");
  rec_trace t Trace.Audit_violation ~track:track_audit ~label:invariant ()

let snapshot t =
  match t.metrics with
  | None -> ()
  | Some m ->
    Metrics.snapshot m ~sim_ns:(now_ns t);
    rec_trace t Trace.Metrics_snapshot ~track:track_meta ()

let set_value t name x =
  match t.metrics with None -> () | Some m -> Metrics.set m name x

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
