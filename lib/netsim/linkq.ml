type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable bytes_delivered : int;
  mutable busy_ns : int;
  mutable lost_down : int;
  mutable marked : int;
}

type event =
  | Enqueued of Packet.t
  | Dropped of Packet.t
  | Delivered of Packet.t
  | Lost_down of Packet.t

type t = {
  sched : Engine.Sched.t;
  rng : Engine.Rng.t;
  mutable rate_bps : int;
  mutable delay : Engine.Time.t;
  mutable loss : float;
  jitter : Engine.Time.t;
  qdisc : Qdisc.t;
  qstate : Qdisc.state;
  limit_pkts : int;
  deliver : Packet.t -> unit;
  release : Packet.t -> unit;
      (* terminal fates owned by this queue (drop, link-down loss) hand
         the packet back to the owner's freelist *)
  pool : Packet.Pool.t;
      (* gives every packet the queue holds its slot: the ring and the
         scheduler's events carry slots, not records.  A packet's
         {!Packet.Pool.stamp} holds [cuts] at its transmission while it
         is on the wire. *)
  queue : Pktring.t; (* flat ring: packet slots + enqueue timestamps *)
  mutable busy : bool;
  mutable up : bool;
  mutable cuts : int;
      (* times the link has gone down: a packet whose transmission
         predates the latest cut was on the wire when it happened, and
         never arrives even if the link is back up by then *)
  mutable last_arrival : Engine.Time.t;
      (* latest scheduled no-jitter arrival: a delay decrease must not
         let a later packet overtake one already on the wire (a
         jitter-free wire delivers in order), so arrivals are clamped
         to be monotone *)
  mutable bg_occupancy : float;
      (* fluid background queue sharing this buffer (packets); the qdisc
         sees it on top of the real ring, so background load costs the
         packet side buffer space without materialising packets *)
  mutable bg_rate_bps : int;
      (* bandwidth the fluid background claims; the serializer drains at
         [rate - bg], floored (see [effective_rate_bps]) *)
  mutable min_eff_rate_bps : int;
      (* slowest effective rate any packet may have serialized at, for
         the audit's busy-time slack *)
  mutable cap_bits_before : float;
      (* capacity integral over past effective-rate regimes, up to
         [rate_since] — the bound on *delivered* bits, so it integrates
         what the serializer can actually drain, not the nominal rate *)
  mutable rate_since : Engine.Time.t;
  tap : event Engine.Tap.t;
  mutable tx_done : Engine.Sched.handler;
      (* the serializer is free: start the next packet *)
  mutable arrival : Engine.Sched.handler;
      (* the packet in the argument's slot reaches the far end *)
  stats : stats;
}

(* Emit sites test this before building their event, so an unobserved
   queue allocates nothing and calls nothing per packet. *)
let[@inline] observed t = Array.length t.tap.Engine.Tap.subs > 0

(* What the packet side may drain: nominal rate minus the background's
   bandwidth share, floored at 1/64 of nominal so a saturating fluid
   field slows the serializer rather than stalling it (a stalled
   serializer would never re-check the share, and its tx events would
   land arbitrarily far out on the wheel). *)
let effective_rate_bps t =
  let floor_bps = Int.max 1 (t.rate_bps asr 6) in
  Int.max floor_bps (t.rate_bps - t.bg_rate_bps)

(* Close the capacity integral over the regime ending now, at the rate
   that regime drained at.  Every change to [rate_bps] or [bg_rate_bps]
   must call this first so audit bounds stay exact. *)
let close_capacity t =
  let now = Engine.Sched.now t.sched in
  t.cap_bits_before <-
    t.cap_bits_before
    +. (float_of_int (effective_rate_bps t)
        *. (float_of_int (Engine.Time.diff now t.rate_since) /. 1e9));
  t.rate_since <- now

let rec create ~sched ~rng ~rate_bps ~delay ?(jitter = Engine.Time.zero) ~qdisc
    ~limit_pkts ~deliver ?(release = ignore) ~pool () =
  if rate_bps <= 0 then invalid_arg "Linkq.create: rate must be positive";
  if limit_pkts < 1 then invalid_arg "Linkq.create: limit must be >= 1";
  if Engine.Time.( < ) jitter Engine.Time.zero then
    invalid_arg "Linkq.create: negative jitter";
  let t =
    {
      sched; rng; rate_bps; delay; loss = 0.0; jitter; qdisc;
      qstate = Qdisc.make_state qdisc;
      limit_pkts; deliver; release; pool;
      queue = Pktring.create ~capacity:(Int.min 64 (limit_pkts + 1)) ();
      busy = false;
      up = true;
      cuts = 0;
      last_arrival = Engine.Time.zero;
      bg_occupancy = 0.0;
      bg_rate_bps = 0;
      min_eff_rate_bps = rate_bps;
      cap_bits_before = 0.0;
      rate_since = Engine.Sched.now sched;
      tap = Engine.Tap.create ();
      tx_done = Engine.Sched.unregistered;
      arrival = Engine.Sched.unregistered;
      stats =
        { enqueued = 0; dropped = 0; delivered = 0; bytes_delivered = 0;
          busy_ns = 0; lost_down = 0; marked = 0 };
    }
  in
  t.tx_done <- Engine.Sched.register sched (fun _ -> start_tx t);
  t.arrival <-
    Engine.Sched.register sched (fun slot ->
        arrive t (Packet.Pool.packet t.pool slot)
          ~cuts:(Packet.Pool.stamp t.pool slot));
  t

(* A packet in flight when the link goes down never arrives: [cuts] is
   the link's cut count when the packet started transmission. *)
and arrive t p ~cuts =
  if t.up && cuts = t.cuts then begin
    t.stats.delivered <- t.stats.delivered + 1;
    t.stats.bytes_delivered <- t.stats.bytes_delivered + p.Packet.size;
    if observed t then Engine.Tap.emit t.tap (Delivered p);
    t.deliver p
  end
  else begin
    t.stats.lost_down <- t.stats.lost_down + 1;
    if observed t then Engine.Tap.emit t.tap (Lost_down p);
    t.release p
  end

and start_tx t =
  if Pktring.is_empty t.queue then t.busy <- false
  else begin
    let enqueued_at = Pktring.head_stamp t.queue in
    let slot = Pktring.pop t.queue in
    let p = Packet.Pool.packet t.pool slot in
    let now = Engine.Sched.now t.sched in
    (* CoDel inspects the head packet's sojourn time and may discard it
       (and keep discarding) before anything is serialized. *)
    if
      Qdisc.dequeue_drop t.qdisc t.qstate
        ~sojourn:(Engine.Time.diff now enqueued_at) ~now
    then begin
      t.stats.dropped <- t.stats.dropped + 1;
      if observed t then Engine.Tap.emit t.tap (Dropped p);
      t.release p;
      start_tx t
    end
    else begin
      t.busy <- true;
      let tx =
        Engine.Time.tx_time ~bits:(Packet.wire_bits p)
          ~rate_bps:(effective_rate_bps t)
      in
      t.stats.busy_ns <- t.stats.busy_ns + tx;
      (* Last bit on the wire at [now + tx]: the serializer is free then
         ([tx_done]), and the packet arrives one propagation delay
         later.  Both events are scheduled here, [tx_done] first so
         that a zero-delay link frees the serializer before
         delivering. *)
      Engine.Sched.after_call t.sched tx t.tx_done 0;
      Packet.Pool.set_stamp t.pool slot t.cuts;
      if t.jitter = Engine.Time.zero then begin
        (* The wire delivers in order, even if [set_delay] shrank the
           delay while packets were on it. *)
        let at =
          let nominal = Engine.Time.add now (Engine.Time.add tx t.delay) in
          if Engine.Time.( < ) nominal t.last_arrival then t.last_arrival
          else nominal
        in
        t.last_arrival <- at;
        Engine.Sched.at_call t.sched at t.arrival slot
      end
      else begin
        let prop =
          Engine.Time.add t.delay
            (Engine.Rng.uniform_time t.rng ~lo:Engine.Time.zero ~hi:t.jitter)
        in
        Engine.Sched.after_call t.sched (Engine.Time.add tx prop) t.arrival
          slot
      end
    end
  end

let enqueue t p =
  (* The buffer limit counts queued packets only; the one in the
     serializer has already left the queue (tc semantics). *)
  if not t.up then begin
    t.stats.lost_down <- t.stats.lost_down + 1;
    if observed t then Engine.Tap.emit t.tap (Lost_down p);
    t.release p
  end
  else if t.loss > 0.0 && Engine.Rng.float t.rng 1.0 < t.loss then begin
    (* Random wire loss (lossy-regime scenarios).  Counted as a drop so
       the conservation ledger needs no new fate; the [loss > 0.0] guard
       keeps the rng stream untouched on loss-free links. *)
    t.stats.dropped <- t.stats.dropped + 1;
    if observed t then Engine.Tap.emit t.tap (Dropped p);
    t.release p
  end
  else begin
    let admit () =
      t.stats.enqueued <- t.stats.enqueued + 1;
      Pktring.push t.queue (Packet.Pool.slot t.pool p)
        ~stamp:(Engine.Sched.now t.sched);
      if observed t then Engine.Tap.emit t.tap (Enqueued p);
      if not t.busy then start_tx t
    in
    match
      Qdisc.decide t.qdisc t.qstate
        ~queue_pkts:(Pktring.length t.queue + int_of_float t.bg_occupancy)
        ~limit_pkts:t.limit_pkts
        ~ecn_capable:(p.Packet.ecn <> Packet.Not_ect)
        ~rng:t.rng
    with
    | Qdisc.Admit -> admit ()
    | Qdisc.Mark ->
      p.Packet.ecn <- Packet.Ce;
      t.stats.marked <- t.stats.marked + 1;
      admit ()
    | Qdisc.Drop ->
      t.stats.dropped <- t.stats.dropped + 1;
      if observed t then Engine.Tap.emit t.tap (Dropped p);
      t.release p
  end

let queue_pkts t = Pktring.length t.queue
let stats t = t.stats
let rate_bps t = t.rate_bps
let limit_pkts t = t.limit_pkts

let set_rate t rate_bps =
  if rate_bps <= 0 then invalid_arg "Linkq.set_rate: rate must be positive";
  if rate_bps <> t.rate_bps then begin
    (* Close the capacity integral over the old regime so the audit's
       link.rate bound stays exact across re-rating.  The packet in the
       serializer (if any) keeps its old transmission time; the new rate
       applies from the next [start_tx]. *)
    close_capacity t;
    t.rate_bps <- rate_bps;
    let eff = effective_rate_bps t in
    if eff < t.min_eff_rate_bps then t.min_eff_rate_bps <- eff
  end

let set_background t ~occupancy_pkts ~rate_bps =
  if occupancy_pkts < 0.0 then
    invalid_arg "Linkq.set_background: negative occupancy";
  if rate_bps < 0 then invalid_arg "Linkq.set_background: negative rate";
  if rate_bps <> t.bg_rate_bps then begin
    close_capacity t;
    t.bg_rate_bps <- rate_bps;
    let eff = effective_rate_bps t in
    if eff < t.min_eff_rate_bps then t.min_eff_rate_bps <- eff
  end;
  t.bg_occupancy <- occupancy_pkts

let min_effective_rate_bps t = t.min_eff_rate_bps

let set_delay t delay =
  if Engine.Time.( < ) delay Engine.Time.zero then
    invalid_arg "Linkq.set_delay: negative delay";
  t.delay <- delay

let set_loss t loss =
  if loss < 0.0 || loss > 1.0 then
    invalid_arg "Linkq.set_loss: probability outside [0, 1]";
  t.loss <- loss


let capacity_bits t ~now =
  t.cap_bits_before
  +. (float_of_int (effective_rate_bps t)
      *. (float_of_int (Engine.Time.diff now t.rate_since) /. 1e9))

let tap t = t.tap

let set_up t up =
  t.up <- up;
  if not up then begin
    t.cuts <- t.cuts + 1;
    t.stats.lost_down <- t.stats.lost_down + Pktring.length t.queue;
    if observed t then
      Pktring.iter t.queue (fun slot ->
          Engine.Tap.emit t.tap (Lost_down (Packet.Pool.packet t.pool slot)));
    Pktring.iter t.queue (fun slot -> t.release (Packet.Pool.packet t.pool slot));
    Pktring.clear t.queue
  end

let is_up t = t.up

let utilisation t ~now =
  if now <= 0 then 0.0 else float_of_int t.stats.busy_ns /. float_of_int now
