type chunk = { dss : Packet.dss option; len : int }
type source = max_len:int -> chunk option

type config = {
  mss : int;
  ecn : bool;
  initial_rto : Engine.Time.t;
  min_rto : Engine.Time.t;
  max_rto : Engine.Time.t;
}

let default_config =
  {
    mss = Packet.default_mss;
    ecn = false;
    initial_rto = Engine.Time.s 1;
    min_rto = Engine.Time.ms 200;
    max_rto = Engine.Time.s 60;
  }

type stats = {
  mutable segments_sent : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable fast_recoveries : int;
  mutable bytes_acked : int;
  mutable acks : int;
}

let initial_cwnd = 10.0
let initial_ssthresh = 1e9
let dupack_threshold = 3

type cc_state = Open | Recovery | Loss

type event =
  | Seg_sent of { seq : int; len : int; retx : bool }
  | Ack_advanced of { una : int }
  | Cwnd_changed of { cwnd : float }
  | State_changed of { state : cc_state }

type t = {
  sched : Engine.Sched.t;
  config : config;
  conn : int;
  subflow : int;
  src : Packet.addr;
  dst : Packet.addr;
  tag : Packet.tag;
  fresh_id : unit -> int;
  transmit : Packet.t -> unit;
  pool : Packet.Pool.t option;
  data_ecn : Packet.ecn option;
      (* the [?ecn] argument of every data segment's acquire, built
         once: passing [~ecn] would box a fresh [Some] per segment *)
  source : source;
  rtt : Rtt.t;
  mutable cc : Cc.instance option; (* set right after creation *)
  mutable cwnd : float;
  mutable ssthresh : float;
  sb : Scoreboard.t;
      (* outstanding segments, oldest first: the flat ring that replaced
         the [Map.Make(Int)] scoreboard (see scoreboard.ml's header for
         why the access pattern makes a ring exact) *)
  mutable pipe_bytes : int;
      (* RFC 6675 pipe, maintained incrementally across scoreboard flag
         transitions: the old O(n) fold ran once per packet inside the
         send loop, turning every window into a quadratic walk *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_max : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable recovery_epoch : int;
  mutable highest_sacked : int; (* end of the highest SACKed range seen *)
  mutable holes_below : int;
      (* loss-marking cursor: every segment ending at or below this has
         been considered by [mark_lost_holes] in the current recovery *)
  mutable hole_seq : int;
      (* retransmission cursor: no unhandled hole starts below this.
         Pulled back whenever a segment below it is marked lost, reset
         on entering recovery — so [next_hole] is amortised O(1) instead
         of a scan from the left edge per call *)
  rto_timer : Engine.Sched.timer;
      (* one handle for the sender's life: the RTO is re-armed on every
         ACK, in place ([Engine.Sched.rearm_after]) *)
  mutable established : bool;
  mutable first_send : Engine.Time.t option;
  (* OLIA loss intervals: bytes acked since the last loss event, and in
     the previous inter-loss interval. *)
  mutable interval_cur : int;
  mutable interval_prev : int;
  mutable ecn_react_until : int; (* no second ECN response before this seq *)
  mutable consecutive_timeouts : int;
      (* RTO expiries since the last forward ACK progress — the liveness
         signal a path manager caps to declare the path dead *)
  mutable on_timeout : (unit -> unit) option;
      (* liveness callback, not a [tap] subscriber: it changes the run
         (failover), and subscribing it would make every ACK build a
         [Cwnd_changed] event *)
  tap : event Engine.Tap.t;
  stats : stats;
}

(* Emit sites test this before building their event: an unobserved
   sender allocates nothing and calls nothing per segment or ACK. *)
let[@inline] observed t = Array.length t.tap.Engine.Tap.subs > 0

let cc_exn t =
  match t.cc with
  | Some cc -> cc
  | None -> assert false

let default_srtt_s = 0.01 (* before any sample: 10 ms, a LAN-scale guess *)

let srtt_s t =
  match Rtt.srtt t.rtt with
  | Some v -> Engine.Time.to_float_s v
  | None -> default_srtt_s

(* Refresh this subflow's slot of the coupled-CC group in place: plain
   float/flag stores into the flat arrays, no snapshot records.  The
   previous design rebuilt a boxed sibling-record array on every ACK of
   every subflow. *)
let sync_group_slot t (g : Cc.group) i =
  g.Cc.cwnds.(i) <- t.cwnd;
  g.Cc.srtts.(i) <- srtt_s t;
  g.Cc.loss_intervals.(i) <-
    float_of_int (Int.max t.interval_cur t.interval_prev);
  Cc.group_set_established g i t.established

(* --- SACK scoreboard --- *)

(* Scoreboard flag transitions funnel through these helpers so the
   incremental pipe stays consistent: a segment counts toward the pipe
   exactly while it is neither SACKed nor marked lost. *)
let mark_sacked t p =
  if Scoreboard.mark_sacked t.sb p then
    if not (Scoreboard.lost_at t.sb p) then
      t.pipe_bytes <- t.pipe_bytes - Scoreboard.len_at t.sb p

let mark_lost t p =
  if not (Scoreboard.lost_at t.sb p || Scoreboard.sacked_at t.sb p) then begin
    Scoreboard.mark_lost t.sb p;
    t.pipe_bytes <- t.pipe_bytes - Scoreboard.len_at t.sb p;
    let s = Scoreboard.seq_at t.sb p in
    if s < t.hole_seq then t.hole_seq <- s
  end

let process_sack t blocks =
  List.iter
    (fun (s, e) ->
      if e > s then begin
        if e > t.highest_sacked then t.highest_sacked <- e;
        (* Outstanding segments are contiguous, so the block covers the
           run of segments from the first starting at or above [s] up
           to the last ending at or below [e] — a binary search and a
           walk over the covered range, where the map version visited
           every outstanding segment per block. *)
        let sb = t.sb in
        let n = Scoreboard.length sb in
        let i = ref (Scoreboard.lower_bound sb s) in
        let inside = ref true in
        while !inside && !i < n do
          let p = Scoreboard.idx sb !i in
          if Scoreboard.end_at sb p <= e then begin
            if not (Scoreboard.sacked_at sb p) then mark_sacked t p;
            incr i
          end
          else inside := false
        done
      end)
    blocks

(* RFC 6675-flavoured pipe: bytes believed in flight.  SACKed segments
   have arrived; segments marked lost are out of the network until their
   retransmission (which clears the mark) puts them back. *)
let pipe t = t.pipe_bytes

(* The scoreboard walk [pipe] used to be; kept as the oracle the
   invariant auditor compares the incremental counter against. *)
let pipe_scoreboard t = Scoreboard.pipe_recount t.sb

let pipe_consistent t = t.pipe_bytes = pipe_scoreboard t

let scoreboard_consistent t = Scoreboard.consistent t.sb

(* Mark as lost every unsacked segment with SACKed data wholly above it
   that has not already been retransmitted in this recovery (RFC 6675
   IsLost, simplified to the one-block criterion).  The [holes_below]
   cursor makes the repeated per-ACK calls walk only the range newly
   covered by [highest_sacked]: below the cursor every segment is
   already lost, SACKed, or retransmitted in this epoch, and none of
   those can become a fresh candidate within the epoch. *)
let mark_lost_holes t =
  if t.highest_sacked > t.holes_below then begin
    let sb = t.sb in
    let n = Scoreboard.length sb in
    let i0 = Scoreboard.lower_bound sb t.holes_below in
    let i = ref (if i0 > 0 then i0 - 1 else 0) in
    let inside = ref true in
    while !inside && !i < n do
      let p = Scoreboard.idx sb !i in
      if Scoreboard.end_at sb p <= t.highest_sacked then begin
        if
          (not (Scoreboard.sacked_at sb p))
          && Scoreboard.epoch_at sb p < t.recovery_epoch
        then mark_lost t p;
        incr i
      end
      else inside := false
    done;
    t.holes_below <- t.highest_sacked
  end

(* Next retransmission candidate under SACK: the lowest lost segment not
   yet retransmitted in this recovery.  Resumes from the [hole_seq]
   cursor; segments skipped are SACKed or already retransmitted in this
   epoch, neither of which can turn back into a candidate, and any
   late marking below the cursor pulls it back (see [mark_lost]). *)
let next_hole t =
  let sb = t.sb in
  let n = Scoreboard.length sb in
  let i = ref (Scoreboard.lower_bound sb t.hole_seq) in
  let found = ref (-1) in
  while !found < 0 && !i < n do
    let p = Scoreboard.idx sb !i in
    if
      Scoreboard.lost_at sb p
      && (not (Scoreboard.sacked_at sb p))
      && Scoreboard.epoch_at sb p < t.recovery_epoch
    then found := p
    else incr i
  done;
  if !found >= 0 then t.hole_seq <- Scoreboard.seq_at sb !found
  else if n > 0 then t.hole_seq <- Scoreboard.end_seq sb;
  !found

(* --- timers --- *)

(* Restart the retransmission timer, or stop it with nothing
   outstanding. *)
let rec arm_rto t =
  if Scoreboard.is_empty t.sb then Engine.Sched.cancel t.rto_timer
  else Engine.Sched.rearm_after t.rto_timer (Rtt.rto t.rtt)

(* --- transmission --- *)

and send_seg t p ~is_retx =
  let now = Engine.Sched.now t.sched in
  (match t.first_send with
  | None -> t.first_send <- Some now
  | Some _ -> ());
  t.established <- true;
  let sb = t.sb in
  let seq = Scoreboard.seq_at sb p and len = Scoreboard.len_at sb p in
  Scoreboard.set_sent_at sb p now;
  if Scoreboard.lost_at sb p then begin
    Scoreboard.clear_lost sb p;
    if not (Scoreboard.sacked_at sb p) then
      t.pipe_bytes <- t.pipe_bytes + len
  end;
  if is_retx then begin
    Scoreboard.incr_retx sb p;
    t.stats.retransmits <- t.stats.retransmits + 1
  end;
  t.stats.segments_sent <- t.stats.segments_sent + 1;
  let pkt =
    Packet.Pool.acquire_tcp ?pool:t.pool ~id:(t.fresh_id ()) ~src:t.src
      ~dst:t.dst ~tag:t.tag ~born:now ?ecn:t.data_ecn ~conn:t.conn
      ~subflow:t.subflow ~kind:Packet.Data ~seq ~payload:len ~ack:0 ~sack:[]
      ~ece:false ~dss:(Scoreboard.dss_at sb p) ~data_ack:0 ()
  in
  t.transmit pkt;
  if observed t then
    Engine.Tap.emit t.tap (Seg_sent { seq; len; retx = is_retx });
  if not (Engine.Sched.pending t.rto_timer) then arm_rto t

and window_bytes t = int_of_float (t.cwnd *. float_of_int t.config.mss)

and try_send t =
  let budget = ref 1000 in
  let continue = ref true in
  while !continue && !budget > 0 do
    decr budget;
    if pipe t >= window_bytes t then continue := false
    else begin
      (* Highest priority: SACK hole retransmission during recovery. *)
      let hole = if t.in_recovery then next_hole t else -1 in
      if hole >= 0 then begin
        Scoreboard.set_epoch t.sb hole t.recovery_epoch;
        send_seg t hole ~is_retx:true
      end
      else if t.snd_nxt < t.snd_max then begin
        (* Go-back-N resend of an already-mapped segment (post-RTO);
           skip segments the scoreboard knows have arrived. *)
        let p = Scoreboard.find t.sb t.snd_nxt in
        if p >= 0 then begin
          if Scoreboard.sacked_at t.sb p then
            t.snd_nxt <- Scoreboard.end_at t.sb p
          else begin
            send_seg t p ~is_retx:true;
            t.snd_nxt <- Scoreboard.end_at t.sb p
          end
        end
        else begin
          (* Hole created by an odd partial ACK: skip to the next known
             segment boundary. *)
          let i = Scoreboard.lower_bound t.sb (t.snd_nxt + 1) in
          if i < Scoreboard.length t.sb then
            t.snd_nxt <- Scoreboard.seq_at t.sb (Scoreboard.idx t.sb i)
          else t.snd_nxt <- t.snd_max
        end
      end
      else begin
        match t.source ~max_len:t.config.mss with
        | None -> continue := false
        | Some { dss; len } ->
          if len <= 0 || len > t.config.mss then
            invalid_arg "Sender: source returned an invalid chunk length";
          let p = Scoreboard.append t.sb ~seq:t.snd_nxt ~len ~dss in
          t.pipe_bytes <- t.pipe_bytes + len;
          send_seg t p ~is_retx:false;
          t.snd_nxt <- t.snd_nxt + len;
          t.snd_max <- Int.max t.snd_max t.snd_nxt
      end
    end
  done

(* --- loss events --- *)

and loss_event t =
  t.interval_prev <- t.interval_cur;
  t.interval_cur <- 0

and on_rto t =
  if not (Scoreboard.is_empty t.sb) then begin
    t.stats.timeouts <- t.stats.timeouts + 1;
    t.consecutive_timeouts <- t.consecutive_timeouts + 1;
    loss_event t;
    (cc_exn t).Cc.on_rto ();
    Rtt.backoff t.rtt;
    t.in_recovery <- false;
    t.dupacks <- 0;
    if observed t then
      Engine.Tap.emit t.tap (State_changed { state = Loss });
    (* Everything unacknowledged and unSACKed is presumed lost; rewind
       and let the (collapsed) window re-send, skipping SACKed segments
       (RFC 6675 section 5.1). *)
    for i = 0 to Scoreboard.length t.sb - 1 do
      mark_lost t (Scoreboard.idx t.sb i)
    done;
    t.snd_nxt <- t.snd_una;
    arm_rto t;
    try_send t;
    match t.on_timeout with None -> () | Some f -> f ()
  end

let create ~sched ~config ~conn ~subflow ~src ~dst ~tag ~fresh_id ~transmit
    ?pool ~source ~cc ?group ?self_index () =
  let fire_rto = ref ignore in
  let t =
    {
      sched; config; conn; subflow; src; dst; tag; fresh_id; transmit; pool;
      data_ecn = (if config.ecn then Some Packet.Ect else None);
      source;
      rtt =
        Rtt.create ~initial_rto:config.initial_rto ~min_rto:config.min_rto
          ~max_rto:config.max_rto ();
      cc = None;
      cwnd = initial_cwnd;
      ssthresh = initial_ssthresh;
      sb = Scoreboard.create ();
      pipe_bytes = 0;
      snd_una = 0;
      snd_nxt = 0;
      snd_max = 0;
      dupacks = 0;
      in_recovery = false;
      recover = 0;
      recovery_epoch = 0;
      highest_sacked = 0;
      holes_below = 0;
      hole_seq = 0;
      rto_timer = Engine.Sched.idle_timer sched (fun () -> !fire_rto ());
      established = false;
      first_send = None;
      interval_cur = 0;
      interval_prev = 0;
      ecn_react_until = 0;
      consecutive_timeouts = 0;
      on_timeout = None;
      tap = Engine.Tap.create ();
      stats =
        { segments_sent = 0; retransmits = 0; timeouts = 0;
          fast_recoveries = 0; bytes_acked = 0; acks = 0 };
    }
  in
  let group =
    match group with
    | Some f -> f
    | None ->
      (* Single-path default: a one-slot group refreshed from this
         sender alone. *)
      let g = Cc.group_create 1 in
      fun () ->
        sync_group_slot t g 0;
        g
  in
  let self_index = match self_index with Some f -> f | None -> fun () -> 0 in
  let ctx =
    {
      Cc.now_s = (fun () -> Engine.Time.to_float_s (Engine.Sched.now sched));
      mss = config.mss;
      get_cwnd = (fun () -> t.cwnd);
      set_cwnd =
        (fun w ->
          t.cwnd <- Float.max 1.0 w;
          if observed t then
            Engine.Tap.emit t.tap (Cwnd_changed { cwnd = t.cwnd }));
      get_ssthresh = (fun () -> t.ssthresh);
      set_ssthresh = (fun w -> t.ssthresh <- Float.max Cc.min_cwnd w);
      srtt_s = (fun () -> srtt_s t);
      group;
      self_index;
    }
  in
  t.cc <- Some (cc ctx);
  fire_rto := (fun () -> on_rto t);
  t

let enter_recovery t =
  t.in_recovery <- true;
  if observed t then
    Engine.Tap.emit t.tap (State_changed { state = Recovery });
  t.recover <- t.snd_max;
  t.recovery_epoch <- t.recovery_epoch + 1;
  t.holes_below <- 0;
  t.hole_seq <- 0;
  t.stats.fast_recoveries <- t.stats.fast_recoveries + 1;
  loss_event t;
  (cc_exn t).Cc.on_loss ();
  mark_lost_holes t;
  (* The segment at snd_una is the surest hole: the duplicate ACKs prove
     data above it arrived. *)
  if not (Scoreboard.is_empty t.sb) then begin
    let p = Scoreboard.idx t.sb 0 in
    if not (Scoreboard.sacked_at t.sb p) then mark_lost t p
  end;
  let hole = next_hole t in
  if hole >= 0 then begin
    Scoreboard.set_epoch t.sb hole t.recovery_epoch;
    send_seg t hole ~is_retx:true
  end;
  arm_rto t

let sacked_segments t = Scoreboard.sacked_count t.sb

(* ECN response (RFC 3168 section 6.1.2): treat an ECN Echo like a loss
   for the congestion controller, at most once per window of data. *)
let react_to_ece t (tcp : Packet.tcp) =
  if
    t.config.ecn && tcp.Packet.ece && (not t.in_recovery)
    && t.snd_una >= t.ecn_react_until
  then begin
    loss_event t;
    (cc_exn t).Cc.on_loss ();
    t.ecn_react_until <- t.snd_nxt
  end

let handle_ack t (tcp : Packet.tcp) =
  react_to_ece t tcp;
  process_sack t tcp.Packet.sack;
  if t.in_recovery then mark_lost_holes t;
  let a = tcp.Packet.ack in
  if a > t.snd_una then begin
    let newly = a - t.snd_una in
    t.stats.bytes_acked <- t.stats.bytes_acked + newly;
    t.interval_cur <- t.interval_cur + newly;
    (* Drop covered segments from the front; RTT sample from the newest
       segment that was never retransmitted (Karn's rule).  [-1] is the
       no-sample sentinel — send times are never negative. *)
    let sample = ref (-1) in
    let dropping = ref true in
    while !dropping && not (Scoreboard.is_empty t.sb) do
      let p = Scoreboard.idx t.sb 0 in
      if Scoreboard.end_at t.sb p <= a then begin
        if Scoreboard.retx_at t.sb p = 0 then
          sample := Scoreboard.sent_at t.sb p;
        if
          not (Scoreboard.sacked_at t.sb p || Scoreboard.lost_at t.sb p)
        then t.pipe_bytes <- t.pipe_bytes - Scoreboard.len_at t.sb p;
        Scoreboard.pop_front t.sb
      end
      else dropping := false
    done;
    if !sample >= 0 then
      Rtt.sample t.rtt (Engine.Time.diff (Engine.Sched.now t.sched) !sample);
    t.snd_una <- a;
    if t.snd_nxt < a then t.snd_nxt <- a;
    t.consecutive_timeouts <- 0;
    t.stats.acks <- t.stats.acks + 1;
    if observed t then Engine.Tap.emit t.tap (Ack_advanced { una = a });
    t.dupacks <- 0;
    if not t.in_recovery then (cc_exn t).Cc.on_ack ~acked:newly
    else if a >= t.recover then begin
      (* Full ACK: recovery complete.  A partial ACK stays in recovery,
         and the hole logic in [try_send] retransmits what remains. *)
      t.in_recovery <- false;
      if observed t then Engine.Tap.emit t.tap (State_changed { state = Open })
    end;
    arm_rto t;
    try_send t
  end
  else if not (Scoreboard.is_empty t.sb) then begin
    (* Duplicate ACK. *)
    t.dupacks <- t.dupacks + 1;
    (* Recovery starts at three duplicate ACKs, or as soon as three
       segments above [snd_una] are SACKed (RFC 6675's DupThresh). *)
    if t.in_recovery then try_send t
    else if
      t.dupacks = dupack_threshold || sacked_segments t >= dupack_threshold
    then begin
      enter_recovery t;
      try_send t
    end
  end

let kick t = try_send t

let penalize t =
  if not t.in_recovery then begin
    loss_event t;
    (cc_exn t).Cc.on_loss ()
  end
let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let in_recovery t = t.in_recovery
let in_flight_bytes t = t.snd_nxt - t.snd_una
let srtt t = Rtt.srtt t.rtt
let stats t = t.stats
let mss t = t.config.mss
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let tap t = t.tap
let set_on_timeout t f = t.on_timeout <- f
let consecutive_timeouts t = t.consecutive_timeouts
let forgive_timeouts t = t.consecutive_timeouts <- 0

let throughput_bps t ~now =
  match t.first_send with
  | None -> 0.0
  | Some t0 ->
    let dt = Engine.Time.to_float_s (Engine.Time.diff now t0) in
    if dt <= 0.0 then 0.0
    else float_of_int (t.stats.bytes_acked * 8) /. dt
