(** TCP sender state machine (one subflow).

    Implements the loss-recovery mechanics of the Linux SACK sender the
    paper measured — the machinery shared by every congestion-control
    algorithm in the paper:

    - the subflow starts established (the SYN exchange is over before
      the measured transfer) with a 10-segment initial window (IW10);
    - window-clocked transmission: bytes in flight (the RFC 6675 pipe)
      stay below [cwnd];
    - three duplicate ACKs, or three SACKed segments, trigger fast
      retransmit and SACK recovery (RFC 2018/6675): the receiver's SACK
      blocks feed a scoreboard, and recovery retransmits only true
      holes until an ACK covers everything sent before it began;
    - retransmission timeout collapses to go-back-N from [snd_una],
      skipping SACKed segments, with exponential backoff (RFC 6298),
      honouring Karn's rule for RTT samples;
    - window growth/decrease is delegated to a {!Cc.instance}, so CUBIC,
      Reno and the coupled MPTCP algorithms plug in unchanged.

    The sender pulls data: whenever the window opens it asks its
    {!source} for the next chunk, which is how the MPTCP scheduler
    decides which subflow carries which data-sequence range. *)

type chunk = {
  dss : Packet.dss option;  (** MPTCP mapping; [None] for plain TCP *)
  len : int;                (** payload bytes, 1..mss *)
}

type source = max_len:int -> chunk option
(** [source ~max_len] returns the next chunk for this subflow (at most
    [max_len] bytes), or [None] when the application/scheduler has
    nothing for it right now.  A subflow refused data is re-activated
    with {!kick}. *)

type config = {
  mss : int;
  ecn : bool;
      (** send data as ECN-capable (ECT) and respond to ECN Echo like a
          loss, at most once per window (RFC 3168).  Pairs with an
          ECN-enabled RED queue ({!Netsim.Qdisc.default_red_ecn}).
          Default [false]. *)
  initial_rto : Engine.Time.t;
  min_rto : Engine.Time.t;
  max_rto : Engine.Time.t;
}

val default_config : config

val initial_cwnd : float
(** 10 MSS, Linux's initial window (IW10). *)

val initial_ssthresh : float
(** 1e9 MSS, effectively infinite: slow start runs to the first loss. *)

val dupack_threshold : int
(** 3: the duplicate ACKs, or SACKed segments, that start recovery. *)

type stats = {
  mutable segments_sent : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable fast_recoveries : int;
  mutable bytes_acked : int;
  mutable acks : int;  (** cumulative ACKs that advanced [snd_una] *)
}

type t

val create :
  sched:Engine.Sched.t ->
  config:config ->
  conn:int ->
  subflow:int ->
  src:Packet.addr ->
  dst:Packet.addr ->
  tag:Packet.tag ->
  fresh_id:(unit -> int) ->
  transmit:(Packet.t -> unit) ->
  ?pool:Packet.Pool.t ->
  source:source ->
  cc:Cc.factory ->
  ?group:(unit -> Cc.group) ->
  ?self_index:(unit -> int) ->
  unit -> t
(** [group]/[self_index] give coupled controllers their view of the
    owning connection — [group ()] returns the connection's flat
    {!Cc.group} with every slot synced to its sender's live state; they
    default to "this subflow alone" (a private 1-slot group).

    [pool] (normally the owning {!Netsim.Net.pool}) lets the sender
    recycle released packet records instead of allocating fresh ones;
    omitted, every segment allocates as before. *)

val handle_ack : t -> Packet.tcp -> unit
(** Feed an arriving ACK for this subflow. *)

val kick : t -> unit
(** Attempt to transmit now (new data became available, or the scheduler
    re-assigned this subflow). *)

val penalize : t -> unit
(** Apply the congestion controller's loss decrease without entering
    recovery — MPTCP's penalization of a subflow that is blocking the
    connection-level window (Raiciu et al., NSDI 2012).  No-op while the
    subflow is already in recovery. *)

val cwnd : t -> float
(** Congestion window in MSS units. *)

val ssthresh : t -> float
val in_recovery : t -> bool
val in_flight_bytes : t -> int

val pipe_consistent : t -> bool
(** [true] iff the incrementally maintained RFC 6675 pipe equals an O(n)
    recount of the SACK scoreboard.  Audit hook: the send loop gates on
    the incremental counter, so drift here means wrong pacing. *)

val scoreboard_consistent : t -> bool
(** [true] iff the flat scoreboard is structurally sound: outstanding
    segments contiguous and increasing, and the O(1) SACKed-segment
    counter equal to a recount.  Audit hook ([tcp.scoreboard]): fast
    retransmit triggers off the counter, so drift here means wrong
    recovery entry. *)

val srtt : t -> Engine.Time.t option
val stats : t -> stats
val mss : t -> int

val snd_una : t -> int
(** Lowest unacknowledged sequence number. *)

val snd_nxt : t -> int
(** Next sequence number to transmit. *)

type cc_state =
  | Open  (** normal operation (slow start or congestion avoidance) *)
  | Recovery  (** fast recovery after duplicate ACKs / SACK loss *)
  | Loss  (** retransmission timeout; window collapsed, go-back-N *)

type event =
  | Seg_sent of { seq : int; len : int; retx : bool }
      (** a data segment left the sender (fresh or retransmitted) *)
  | Ack_advanced of { una : int }
      (** a cumulative ACK moved [snd_una] forward to [una] *)
  | Cwnd_changed of { cwnd : float }
      (** congestion control adjusted the window (new value, in MSS) *)
  | State_changed of { state : cc_state }
      (** the sender crossed a loss-state boundary *)

val tap : t -> event Engine.Tap.t
(** Sender events for the audit and observability subsystems, emitted
    after the sender's own state is updated.  Without subscribers an
    emit site pays one length test and builds no event. *)

val consecutive_timeouts : t -> int
(** RTO expiries since the last forward ACK progress — resets to zero
    whenever [snd_una] advances.  A run of these is the liveness signal that the path is
    dead (every retransmission, at exponentially backed-off intervals,
    vanished). *)

val forgive_timeouts : t -> unit
(** Zero the {!consecutive_timeouts} count without ACK progress.  Called
    when a path is administratively revived: the stale count (and the
    still-backed-off retransmit timer) predate the repair, and must not
    be allowed to re-trip the liveness threshold on the next expiry. *)

val set_on_timeout : t -> (unit -> unit) option -> unit
(** Installs (or clears) a callback fired after each RTO expiry has been
    processed ({!consecutive_timeouts} already incremented).  It is not
    a {!tap} subscriber because it changes the run (the connection
    fails the subflow over once the expiries reach its cap), whereas
    taps only observe and cost nothing while empty: a subscriber on the
    sender's tap would make every ACK build a [Cwnd_changed] event. *)

val sync_group_slot : t -> Cc.group -> int -> unit
(** [sync_group_slot t g i] refreshes slot [i] of the flat coupled-CC
    group [g] from this sender's live state (cwnd, smoothed RTT, loss
    interval, established flag) — in place, no allocation.  Called by
    the owning connection for every subflow before handing [g] to a
    coupled controller. *)

val throughput_bps : t -> now:Engine.Time.t -> float
(** Average acknowledged goodput since the first transmission. *)
