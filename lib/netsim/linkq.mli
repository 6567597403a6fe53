(** One direction of a link: a FIFO buffer draining into a fixed-rate
    serializer followed by a propagation delay.

    This is the element whose tail-drop behaviour creates the TCP
    sawtooth the paper's argument rests on, so its timing is exact: a
    packet finishing transmission at [t] arrives at the far end at
    [t + delay], and the next packet starts serializing at [t]. *)

type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable bytes_delivered : int;
  mutable busy_ns : int;  (** cumulative transmission time, for utilisation *)
  mutable lost_down : int;
      (** packets destroyed because the link was down (on arrival at the
          queue, or mid-flight when the link went down) *)
  mutable marked : int;
      (** packets marked Congestion Experienced instead of dropped *)
}

type event =
  | Enqueued of Packet.t  (** admitted to the buffer (possibly CE-marked) *)
  | Dropped of Packet.t  (** discarded by the qdisc (enqueue or dequeue) *)
  | Delivered of Packet.t  (** handed to [deliver] at the far end *)
  | Lost_down of Packet.t  (** destroyed because the link direction was down *)

type t

val create :
  sched:Engine.Sched.t ->
  rng:Engine.Rng.t ->
  rate_bps:int ->
  delay:Engine.Time.t ->
  ?jitter:Engine.Time.t ->
  qdisc:Qdisc.t ->
  limit_pkts:int ->
  deliver:(Packet.t -> unit) ->
  ?release:(Packet.t -> unit) ->
  pool:Packet.Pool.t ->
  unit -> t
(** [deliver] runs at the receiving end of the link, [delay] (plus a
    uniform draw from [\[0, jitter\]], default 0) after each packet's
    last bit leaves the serializer.  Jitter can reorder packets — as a
    wireless or load-balanced hop would.

    [release] (default a no-op) is invoked exactly once on every packet
    whose terminal fate this queue owns — qdisc drops (enqueue and
    dequeue) and link-down losses — after the stats and {!tap} have
    seen it.  {!Netsim.Net} passes its freelist's release here.
    Delivered packets are handed to [deliver] instead, which owns their
    release.

    [pool] gives each packet the queue holds its {!Packet.Pool.slot}:
    the buffer ring holds slots, and the serializer-done and arrival
    events are handlers registered with [sched] at creation, the
    arrival's argument the packet's slot, so a hop allocates nothing
    and stores no pointer.  A packet on the wire keeps the link's cut
    count at its transmission in its {!Packet.Pool.stamp}, which is
    why every link of a net shares one pool.  {!Netsim.Net} passes its
    own pool. *)

val enqueue : t -> Packet.t -> unit
(** Admits (or drops, per qdisc) one packet. *)

val queue_pkts : t -> int
(** Packets buffered, excluding the one in transmission. *)

val stats : t -> stats

val rate_bps : t -> int
(** Current serialization rate (may change mid-run via {!set_rate}). *)

val set_rate : t -> int -> unit
(** Re-rate the serializer.  Takes effect from the next packet to start
    transmission; a packet already serializing keeps the old rate.  The
    capacity integral used by {!capacity_bits} is closed over the old
    regime first, so audit bounds stay exact.  Raises [Invalid_argument]
    on a non-positive rate. *)

val set_delay : t -> Engine.Time.t -> unit
(** Change the propagation delay for packets starting transmission after
    the call.  A decrease cannot reorder a jitter-free link: arrivals are
    clamped to remain FIFO, as a store-and-forward wire would deliver.
    Raises [Invalid_argument] on a negative delay. *)

val set_loss : t -> float -> unit
(** Independent per-packet random loss probability applied on enqueue
    (before the qdisc).  Losses count as drops in the stats, {!tap} and
    conservation ledger.  Default [0.0]; the rng is only consulted when
    the probability is positive, so loss-free runs keep their stream.
    Raises [Invalid_argument] outside [0, 1]. *)

val set_background : t -> occupancy_pkts:float -> rate_bps:int -> unit
(** Couple a fluid background field to this queue
    ({!Fluid.Background.Driver} calls this every coarse tick).
    [occupancy_pkts] is the background's standing queue: the qdisc sees
    it on top of the real ring, so background load costs foreground
    packets buffer space (and tail-drops them at a shared-buffer
    horizon) without materialising a single background packet.
    [rate_bps] is the bandwidth share the background claims: packets
    serialize at the {e effective} rate [nominal - rate_bps], floored
    at 1/64 of nominal so a saturating field slows the serializer
    rather than stalling it.  A share change closes the capacity
    integral over the old regime first, so {!capacity_bits} stays an
    exact bound for the audit.  Raises [Invalid_argument] on a negative
    occupancy or rate. *)

val min_effective_rate_bps : t -> int
(** The slowest effective rate any packet may have started serializing
    at since creation — the audit's busy-time slack must assume the
    in-flight packet transmits this slowly. *)

val capacity_bits : t -> now:Engine.Time.t -> float
(** Total bits the serializer could have transmitted by [now],
    integrating the {e effective} rate over every regime since creation
    (nominal rate changes and background-share changes both close a
    regime) — the bound the audit's link.rate invariant checks
    delivered bytes against. *)

val limit_pkts : t -> int
(** The buffer limit this queue was created with. *)

val tap : t -> event Engine.Tap.t
(** Per-packet fate transitions, emitted after the queue's own state and
    counters are updated, exactly once per transition.  Without
    subscribers an emit site pays one length test and builds no event.
    The audit builds its conservation ledger on it; [Obs.Collect] traces
    the same events, and its metrics read {!stats}. *)

val utilisation : t -> now:Engine.Time.t -> float
(** Fraction of wall time the serializer has been busy so far. *)

val set_up : t -> bool -> unit
(** Fail or restore the link direction.  While down, arriving packets are
    destroyed (counted in [lost_down]), queued packets are flushed, and
    packets already past the serializer never reach the far end —
    modelling a cable cut.  That holds however short the outage: a
    packet whose transmission started before the link last went down
    is lost on arrival (as [Lost_down]) even when the link is up again
    by then, since it was on the cut wire. *)

val is_up : t -> bool
