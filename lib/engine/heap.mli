(** Imperative binary min-heap, specialised to integer priorities.

    This is the event queue of the simulator, so it favours raw speed:
    a growable array, no functors, integer keys.  Ties are broken by a
    secondary integer key supplied at insertion (the scheduler uses a
    monotonically increasing sequence number, giving FIFO order among
    simultaneous events and hence deterministic replay). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty heap with [capacity] slots preallocated (default 256);
    the heap grows as needed. *)

val length : 'a t -> int

val capacity : 'a t -> int
(** Current number of allocated slots (>= {!length}). *)

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> tie:int -> 'a -> unit
(** [push h ~key ~tie v] inserts [v] with primary priority [key]; among
    equal keys the smaller [tie] pops first. *)

val pop : 'a t -> (int * int * 'a) option
(** Removes and returns the minimum [(key, tie, value)]. *)

val min_key_exn : 'a t -> int
(** Key of the minimum entry without removing it.  Raises
    [Invalid_argument] when empty.  Together with {!pop_exn} this is the
    scheduler's allocation-free pop protocol: read the key, then take
    the value, no option or tuple boxed per event. *)

val min_tie_exn : 'a t -> int
(** Tie of the minimum entry without removing it.  Raises
    [Invalid_argument] when empty.  The scheduler's lockstep shadow
    compares it with the tie of the event the wheel dispatches. *)

val pop_exn : 'a t -> 'a
(** Removes the minimum entry and returns its value alone.  Raises
    [Invalid_argument] when empty. *)

val peek : 'a t -> (int * int * 'a) option
(** Returns the minimum without removing it. *)

val clear : 'a t -> unit
(** Empties the heap.  Freed slots are overwritten, so cleared (and
    popped) values are not retained. *)

val compact : 'a t -> keep:('a -> bool) -> unit
(** [compact h ~keep] drops every entry whose value fails [keep], in
    O(n).  Surviving entries keep their [(key, tie)] pair, so their pop
    order is unchanged.  The wheel's overflow heap and
    {!Timer_queue.Of_heap} use this to purge cancelled entries before
    they reach the root. *)
