(** Fixed-capacity ring buffer that keeps the most recent elements.

    The backing array is allocated once at {!create}; a [push] past
    capacity overwrites the oldest element.  This bounds both the memory
    and the per-event cost of tracing: a long simulation keeps the tail
    of its event stream instead of growing without limit. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** O(1).  Overwrites the oldest element once the ring is full. *)

val length : 'a t -> int
(** Elements currently held, [<= capacity]. *)

val pushed : 'a t -> int
(** Total number of pushes over the ring's lifetime. *)

val overwritten : 'a t -> int
(** Number of elements lost to overwriting, i.e.
    [pushed - length]. *)

val to_list : 'a t -> 'a list
(** Current contents, oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Applies [f] to the contents, oldest first. *)

val clear : 'a t -> unit
(** Empties the ring (capacity unchanged). *)
