type config = {
  sender : Tcp.Sender.config;
  scheduler : Scheduler.policy;
  send_buffer : int option;
  start_jitter : Engine.Time.t;
  delayed_ack : bool;
  reinjection : bool;
  rto_cap : int option;
}

let default_config =
  {
    sender = Tcp.Sender.default_config;
    scheduler = Scheduler.Min_rtt;
    send_buffer = None;
    start_jitter = Engine.Time.zero;
    delayed_ack = false;
    reinjection = false;
    rto_cap = None;
  }

let join_delay = Engine.Time.ms 10

type subflow = {
  index : int;
  tag : Packet.tag;
  mutable sender : Tcp.Sender.t option; (* set during establishment *)
  mutable receiver : Tcp.Receiver.t option;
  mutable joined : bool; (* false until the subflow's start time *)
  mutable rx_bytes : int;
  mutable cursor : int; (* Redundant scheduler: private stream position *)
}

type event =
  | Sched_grant of { subflow : int; dseq : int; len : int }
  | Sched_defer of { subflow : int; preferred : int option }
  | Reinjected of { subflow : int; dseq : int; len : int; owner : int }
  | Subflow_state of { subflow : int; active : bool }

type t = {
  sched : Engine.Sched.t;
  config : config;
  subflows : subflow array;
  reassembly : Reassembly.t;
  total_bytes : int option;
  rr_cursor : int ref;
  mutable next_dseq : int;
  mutable data_ack_rx : int; (* highest DATA_ACK seen by the sender side *)
  (* Which subflow each connection-level chunk was (last) mapped to, for
     reinjection and failover; a grant first trims the chunks that start
     below data_ack_rx. *)
  chunks : Chunks.t;
  liveness : Path_manager.Liveness.t;
  mutable pending : (int * int * int) list;
      (* (dseq, len, dead owner) chunks orphaned by a deactivation,
         ascending by dseq; drained by live subflows before new data *)
  mutable reinjections : int;
  mutable sched_grants : int;
  mutable sched_defers : int;
  mutable completed_at : Engine.Time.t option;
  tap : event Engine.Tap.t;
}

(* Chunk ownership is needed both for opportunistic reinjection and to
   find what a freshly-dead subflow was carrying. *)
let track_owners t = t.config.reinjection || Option.is_some t.config.rto_cap

(* Emit sites test this before building their event: an unobserved
   connection allocates nothing and calls nothing per grant. *)
let[@inline] observed t = Array.length t.tap.Engine.Tap.subs > 0

let sender_exn sf =
  match sf.sender with Some s -> s | None -> assert false

let window_space sender =
  let w =
    int_of_float (Tcp.Sender.cwnd sender *. float_of_int (Tcp.Sender.mss sender))
  in
  Int.max 0 (w - Tcp.Sender.in_flight_bytes sender)

let subflow_is_active t sf =
  Path_manager.Liveness.is_active t.liveness ~tag:sf.tag

(* The scheduler's view of subflow [i] ([Scheduler.decide]'s
   accessors).  Before its first RTT sample a subflow counts as 10 ms
   away, a LAN-scale guess. *)
let default_srtt = Engine.Time.ms 10

let subflow_srtt_ns t i =
  match Tcp.Sender.srtt (sender_exn t.subflows.(i)) with
  | Some v -> v
  | None -> default_srtt

let subflow_window_space t i =
  let sf = t.subflows.(i) in
  (* A subflow that has not joined yet, or whose path is dead, must
     never attract data. *)
  if sf.joined && subflow_is_active t sf then window_space (sender_exn sf)
  else 0

let conn_window_open t =
  match t.config.send_buffer with
  | None -> true
  | Some cap -> t.next_dseq - t.data_ack_rx < cap

(* Opportunistic reinjection (Raiciu et al., NSDI 2012): when the
   connection-level window blocks subflow [sf], re-send the blocking
   chunk (the first un-data-acked one) on [sf] and penalize the subflow
   that originally carried it. *)
let reinject t sf =
  let i = Chunks.find t.chunks t.data_ack_rx in
  if i < 0 || Chunks.owner_at t.chunks i = sf.index then None
  else begin
    let owner = Chunks.owner_at t.chunks i and len = Chunks.len_at t.chunks i in
    Chunks.replace t.chunks ~dseq:t.data_ack_rx ~len ~owner:sf.index;
    t.reinjections <- t.reinjections + 1;
    if observed t then
      Engine.Tap.emit t.tap
        (Reinjected { subflow = sf.index; dseq = t.data_ack_rx; len; owner });
    Tcp.Sender.penalize (sender_exn t.subflows.(owner));
    Some { Tcp.Sender.dss = Some { Packet.dseq = t.data_ack_rx; dlen = len };
           len }
  end

let remaining t ~from =
  match t.total_bytes with
  | None -> max_int
  | Some total -> total - from

(* Hand [sf] the oldest chunk orphaned by a subflow death, if any.
   These are already-mapped connection-level bytes, so they bypass the
   connection window (re-sending them is what un-blocks it). *)
let grant_pending t sf ~max_len =
  let rec pop () =
    match t.pending with
    | [] -> None
    | (dseq, len, owner) :: rest ->
      if dseq + len <= t.data_ack_rx then begin
        (* Already delivered another way (e.g. a redundant copy). *)
        t.pending <- rest;
        pop ()
      end
      else begin
        let granted = Int.min len max_len in
        t.pending <-
          (if granted < len then (dseq + granted, len - granted, owner) :: rest
           else rest);
        Chunks.replace t.chunks ~dseq ~len:granted ~owner:sf.index;
        t.reinjections <- t.reinjections + 1;
        if observed t then
          Engine.Tap.emit t.tap
            (Reinjected { subflow = sf.index; dseq; len = granted; owner });
        Some
          { Tcp.Sender.dss = Some { Packet.dseq; dlen = granted };
            len = granted }
      end
  in
  pop ()

(* Data source for one subflow: consulted by its sender whenever the
   congestion window opens. *)
let source t sf ~max_len =
  if not (subflow_is_active t sf) then None
  else
    match t.config.scheduler with
  | Scheduler.Redundant ->
    let len = Int.min max_len (remaining t ~from:sf.cursor) in
    if len <= 0 then None
    else begin
      let dseq = sf.cursor in
      sf.cursor <- dseq + len;
      t.sched_grants <- t.sched_grants + 1;
      if observed t then
        Engine.Tap.emit t.tap
          (Sched_grant { subflow = sf.index; dseq; len });
      Some { Tcp.Sender.dss = Some { Packet.dseq; dlen = len }; len }
    end
  | Scheduler.Min_rtt | Scheduler.Round_robin ->
    (match grant_pending t sf ~max_len with
    | Some _ as g -> g
    | None ->
    let len = Int.min max_len (remaining t ~from:t.next_dseq) in
    if len <= 0 then None
    else if not (conn_window_open t) then
      if t.config.reinjection then reinject t sf else None
    else begin
      match
        Scheduler.decide t.config.scheduler ~cursor:t.rr_cursor
          ~requester:sf.index ~count:(Array.length t.subflows)
          ~srtt_ns:subflow_srtt_ns ~window_space:subflow_window_space t
      with
      | Scheduler.Grant ->
        let dseq = t.next_dseq in
        t.next_dseq <- dseq + len;
        if track_owners t then begin
          Chunks.trim_below t.chunks t.data_ack_rx;
          Chunks.append t.chunks ~dseq ~len ~owner:sf.index
        end;
        t.sched_grants <- t.sched_grants + 1;
        if observed t then
          Engine.Tap.emit t.tap
            (Sched_grant { subflow = sf.index; dseq; len });
        Some { Tcp.Sender.dss = Some { Packet.dseq; dlen = len }; len }
      | Scheduler.Defer preferred ->
        t.sched_defers <- t.sched_defers + 1;
        if observed t then
          Engine.Tap.emit t.tap
            (Sched_defer { subflow = sf.index; preferred });
        (match preferred with
        | Some j
          when j <> sf.index && t.subflows.(j).joined
               && subflow_is_active t t.subflows.(j) ->
          (* Hand the transmission opportunity to the preferred subflow,
             outside the requester's send loop. *)
          Engine.Sched.after_anon t.sched Engine.Time.zero (fun () ->
              Tcp.Sender.kick (sender_exn t.subflows.(j)))
        | Some _ | None -> ());
        None
    end)

(* Wake every live joined subflow (except [but]) so orphaned chunks and
   freed window get picked up outside the current call stack. *)
let kick_live t ?(but = -1) () =
  Array.iter
    (fun sf ->
      if sf.index <> but && sf.joined && subflow_is_active t sf then
        Engine.Sched.after_anon t.sched Engine.Time.zero (fun () ->
            Tcp.Sender.kick (sender_exn sf)))
    t.subflows

let deactivate_subflow t i =
  let sf = t.subflows.(i) in
  if Path_manager.Liveness.deactivate t.liveness ~tag:sf.tag then begin
    Engine.Tap.emit t.tap (Subflow_state { subflow = i; active = false });
    (* Orphan the chunks the dead subflow was carrying: everything it
       owns at or above the connection-level cumulative ACK must be
       re-sent by a live subflow.  Scanning the ring from the top down
       builds the list in ascending dseq order. *)
    let orphans = ref [] in
    for k = Chunks.length t.chunks - 1 downto 0 do
      let dseq = Chunks.dseq_at t.chunks k and len = Chunks.len_at t.chunks k in
      if Chunks.owner_at t.chunks k = i && dseq + len > t.data_ack_rx then
        orphans := (dseq, len, i) :: !orphans
    done;
    t.pending <-
      List.merge (fun (a, _, _) (b, _, _) -> compare a b) !orphans t.pending;
    kick_live t ~but:i ()
  end

let reactivate_subflow t i =
  let sf = t.subflows.(i) in
  if Path_manager.Liveness.reactivate t.liveness ~tag:sf.tag then begin
    Engine.Tap.emit t.tap (Subflow_state { subflow = i; active = true });
    (match sf.sender with
    | Some s ->
      (* a stale timeout run from before the repair must not re-trip
         the rto_cap on the next (backed-off) expiry *)
      Tcp.Sender.forgive_timeouts s;
      if sf.joined then
        Engine.Sched.after_anon t.sched Engine.Time.zero (fun () ->
            Tcp.Sender.kick s)
    | None -> ())
  end

let establish ~net ~src ~dst ~conn ~paths ~cc ?(config = default_config)
    ?rng ?total_bytes () =
  if paths = [] then invalid_arg "Connection.establish: no paths";
  let sched = Netsim.Net.sched net in
  Path_manager.install net paths;
  let subflows =
    Array.of_list
      (List.mapi
         (fun index (tag, _) ->
           { index; tag; sender = None; receiver = None; joined = false;
             rx_bytes = 0; cursor = 0 })
         paths)
  in
  let t =
    {
      sched;
      config;
      subflows;
      reassembly = Reassembly.create ();
      total_bytes;
      rr_cursor = ref 0;
      next_dseq = 0;
      data_ack_rx = 0;
      chunks = Chunks.create ();
      liveness = Path_manager.Liveness.create paths;
      pending = [];
      reinjections = 0;
      sched_grants = 0;
      sched_defers = 0;
      completed_at = None;
      tap = Engine.Tap.create ();
    }
  in
  let fresh_id () = Netsim.Net.fresh_packet_id net in
  let pool = Netsim.Net.pool net in
  (* One flat coupled-CC group for the whole connection, refreshed in
     place from each subflow's sender — the per-ACK sibling snapshot
     this replaces allocated a record array every time a coupled
     controller looked around. *)
  let cc_group = Tcp.Cc.group_create (Array.length t.subflows) in
  let group () =
    Array.iteri
      (fun i sf -> Tcp.Sender.sync_group_slot (sender_exn sf) cc_group i)
      t.subflows;
    cc_group
  in
  let src_node = Tcp.Endpoint.node src and dst_node = Tcp.Endpoint.node dst in
  Array.iter
    (fun sf ->
      (* Receiver side. *)
      let receiver =
        Tcp.Receiver.create ~sched ~conn ~subflow:sf.index ~addr:dst_node
          ~peer:src_node ~tag:sf.tag ~fresh_id
          ~transmit:(fun p -> Netsim.Net.inject net ~at:dst_node p)
          ~pool
          ~on_deliver:(fun ~seq:_ ~len ~dss ->
            sf.rx_bytes <- sf.rx_bytes + len;
            (match dss with
            | Some { Packet.dseq; dlen } ->
              Reassembly.insert t.reassembly ~dseq ~len:dlen
            | None ->
              (* MPTCP data always carries a mapping. *)
              assert false);
            match (t.total_bytes, t.completed_at) with
            | Some total, None
              when Reassembly.delivered_bytes t.reassembly >= total ->
              t.completed_at <- Some (Engine.Sched.now sched)
            | _ -> ())
          ~data_ack:(fun () -> Reassembly.next_expected t.reassembly)
          ~delayed_ack:config.delayed_ack ()
      in
      sf.receiver <- Some receiver;
      Tcp.Endpoint.register dst ~conn ~subflow:sf.index (fun p ->
          Tcp.Receiver.handle_data receiver p);
      (* Sender side. *)
      let sender =
        Tcp.Sender.create ~sched ~config:config.sender ~conn ~subflow:sf.index
          ~src:src_node ~dst:dst_node ~tag:sf.tag ~fresh_id
          ~transmit:(fun p -> Netsim.Net.inject net ~at:src_node p)
          ~pool
          ~source:(fun ~max_len -> source t sf ~max_len)
          ~cc:(Algorithm.factory cc) ~group
          ~self_index:(fun () -> sf.index)
          ()
      in
      sf.sender <- Some sender;
      (match config.rto_cap with
      | Some cap ->
        Tcp.Sender.set_on_timeout sender
          (Some
             (fun () ->
               if Tcp.Sender.consecutive_timeouts sender >= cap then
                 deactivate_subflow t sf.index))
      | None -> ());
      Tcp.Endpoint.register src ~conn ~subflow:sf.index (fun p ->
          let tcp = Packet.tcp_exn p in
          let advanced = tcp.Packet.data_ack > t.data_ack_rx in
          if advanced then t.data_ack_rx <- tcp.Packet.data_ack;
          Tcp.Sender.handle_ack sender tcp;
          (* Freed connection-level buffer may unblock other subflows. *)
          if advanced && Option.is_some t.config.send_buffer then
            Array.iter
              (fun other ->
                if other.index <> sf.index then
                  Tcp.Sender.kick (sender_exn other))
              t.subflows))
    subflows;
  (* Default subflow starts at time zero; the rest join later.  The
     per-subflow jitter desynchronises the slow starts, as scheduling
     noise would on a real host. *)
  let jitter () =
    match rng with
    | Some rng when Engine.Time.( > ) config.start_jitter Engine.Time.zero ->
      Engine.Rng.uniform_time rng ~lo:Engine.Time.zero ~hi:config.start_jitter
    | Some _ | None -> Engine.Time.zero
  in
  Array.iter
    (fun sf ->
      let when_ =
        Engine.Time.add (jitter ())
          (if sf.index = 0 then Engine.Time.zero else join_delay)
      in
      Engine.Sched.at_anon sched when_ (fun () ->
          sf.joined <- true;
          Tcp.Sender.kick (sender_exn sf)))
    subflows;
  t

let subflow_count t = Array.length t.subflows
let subflow_sender t i = sender_exn t.subflows.(i)

let subflow_receiver t i =
  match t.subflows.(i).receiver with Some r -> r | None -> assert false

let subflow_tag t i = t.subflows.(i).tag
let subflow_rx_bytes t i = t.subflows.(i).rx_bytes
let delivered_bytes t = Reassembly.delivered_bytes t.reassembly
let data_ack t = Reassembly.next_expected t.reassembly
let reassembly_buffered t = Reassembly.buffered_bytes t.reassembly
let completed_at t = t.completed_at
let reinjections t = t.reinjections
let sched_grants t = t.sched_grants
let sched_defers t = t.sched_defers
let data_ack_rx t = t.data_ack_rx
let liveness t = t.liveness
let subflow_active t i = subflow_is_active t t.subflows.(i)

let owners_consistent t =
  Chunks.consistent t.chunks ~owners:(Array.length t.subflows)
    ~limit:t.next_dseq

let tap t = t.tap

(* Distinct connection-level bytes handed to any subflow so far.  The
   Redundant scheduler maps per-subflow cursors over the same stream, so
   the union of mapped ranges is the largest cursor, not next_dseq. *)
let mapped_bytes t =
  Array.fold_left (fun acc sf -> Int.max acc sf.cursor) t.next_dseq t.subflows

let total_throughput_bps t ~now =
  let dt = Engine.Time.to_float_s now in
  if dt <= 0.0 then 0.0
  else float_of_int (delivered_bytes t * 8) /. dt
