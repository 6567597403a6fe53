(** Growable flat FIFO of packet slots, each with an integer stamp.

    The link queue's buffer: parallel int arrays hold each packet's
    {!Packet.Pool} slot and its stamp (its enqueue time), so the
    steady-state enqueue/dequeue path allocates nothing and stores no
    pointer.  The ring holds no packet record, so it retains nothing
    past a dequeue. *)

type t

val create : ?capacity:int -> unit -> t
(** Initial capacity defaults to 16 slots; the ring doubles on demand
    and never shrinks (link buffers are bounded by [limit_pkts]). *)

val length : t -> int
val is_empty : t -> bool

val capacity : t -> int
(** Current slot count (for tests; capacity growth is amortised O(1)). *)

val push : t -> int -> stamp:int -> unit
(** Appends a packet's pool slot with an integer stamp. *)

val head_stamp : t -> int
(** Stamp of the oldest element.  Raises [Invalid_argument] when
    empty. *)

val pop : t -> int
(** Removes and returns the oldest element's slot.  Raises
    [Invalid_argument] when empty. *)

val iter : t -> (int -> unit) -> unit
(** Oldest-first iteration over the slots (used when a link goes
    down). *)

val clear : t -> unit
(** Empties the ring. *)
