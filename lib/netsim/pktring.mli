(** Growable flat packet FIFO with a per-slot integer stamp.

    The link-queue buffer: parallel arrays for packet slots and enqueue
    times replace a [Queue.t] of boxed pairs, so the steady-state
    enqueue/dequeue path allocates nothing.  Freed slots are overwritten
    with a shared dummy, so the ring never retains a packet past its
    dequeue — a requirement of the {!Packet.Pool} recycle discipline. *)

type t

val create : ?capacity:int -> unit -> t
(** Initial capacity defaults to 16 slots; the ring doubles on demand
    and never shrinks (link buffers are bounded by [limit_pkts]). *)

val length : t -> int
val is_empty : t -> bool

val capacity : t -> int
(** Current slot count (for tests; capacity growth is amortised O(1)). *)

val push : t -> Packet.t -> stamp:int -> unit
(** Appends a packet with an integer stamp: its enqueue time (ns) in a
    link's buffer, the link's cut count at transmission in its flight
    ring. *)

val head_stamp : t -> int
(** Stamp of the oldest element.  Raises [Invalid_argument] when
    empty. *)

val pop : t -> Packet.t
(** Removes and returns the oldest element; the slot is nulled.  Raises
    [Invalid_argument] when empty. *)

val iter : t -> (Packet.t -> unit) -> unit
(** Oldest-first iteration (used when a link goes down). *)

val clear : t -> unit
(** Empties the ring, nulling every live slot. *)
