(** Calendar queue — the event queue behind {!Sched}.

    Same ordering contract as {!Heap} (pop in lexicographic (key, tie)
    order, exact, deterministic) but with O(1) insert, O(1) cancel via
    an explicit cell handle, and O(1) expiry: one circular array of
    1 024 slots over a 2{^12} ns granule covers a window of 2{^22} ns
    (about 4.2 ms) ahead of the wheel's position, and entries beyond
    the window wait in an overflow heap and move in as the window
    reaches them.  Timer cells are free-listed parallel int arrays and
    each entry's payload is an [int] (the scheduler's event code), so
    steady-state operation allocates nothing and stores no pointer.

    A key goes to the slot of its granule, chosen by its distance in
    granules from the position; keys at or below the position are
    overdue and join the current slot.  Each slot's list is kept in
    (key, tie) order by an insertion walk from its tail; a walk longer
    than a small bound flags the slot instead, and a flagged slot is
    sorted once, when it becomes current, so a dense slot costs
    O(k log k).  The next occupied slot is found through a two-level
    occupancy bitmap and a de Bruijn table lookup, not a bit loop.

    Keys must be non-negative (they are {!Time.t} nanosecond stamps in
    the scheduler).  Unlike a search structure, the wheel has a notion
    of current position: it only moves forward, so a key below the
    highest key already popped still pops correctly (it is queued as
    overdue) but costs a walk through the current slot rather than
    O(1). *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty wheel with [capacity] timer cells preallocated
    (default 256); the cell pool grows as needed. *)

val length : t -> int
(** Number of queued, not-cancelled entries. *)

val is_empty : t -> bool

val now : t -> int
(** The wheel's internal position: no queued key is known to be below
    it.  Diagnostic — callers track simulated time themselves. *)

val push : t -> key:int -> tie:int -> int -> int
(** [push t ~key ~tie v] queues [v]; among equal keys the smaller [tie]
    pops first.  Returns the cell handle used by {!cancel}.  The handle
    is valid until the entry pops or is cancelled — using it after
    either is an error the wheel cannot always detect, so callers keep
    their own liveness flag (as {!Sched} does).  Raises
    [Invalid_argument] on a negative key. *)

val cancel : t -> int -> unit
(** Removes a queued entry by handle in O(1) (overflow entries are
    marked dead and reaped when they outnumber live ones).  Raises
    [Invalid_argument] on a handle already popped or cancelled. *)

val key : t -> int -> int
(** [key t c] is the key of the queued entry with handle [c]. *)

val min_key_exn : t -> int
(** Key of the minimum entry without removing it; raises
    [Invalid_argument] when empty.  With {!min_tie_exn} and {!pop_exn}
    this is the same allocation-free pop protocol as {!Heap}. *)

val min_tie_exn : t -> int
(** Tie of the minimum entry without removing it; raises
    [Invalid_argument] when empty. *)

val pop_exn : t -> int
(** Removes the minimum entry and returns its value alone; raises
    [Invalid_argument] when empty. *)

type popped = { mutable key : int; mutable tie : int }
(** Where {!pop_until} writes the key and tie of the entry it pops. *)

val pop_until : t -> until:int -> popped -> none:int -> int
(** [pop_until t ~until out ~none] removes the minimum entry if its key
    is at most [until], writes its key and tie into [out] and returns
    its value.  When the wheel is empty, or its minimum lies past
    [until], it returns [none] (a value no entry carries) and leaves
    the entry queued and [out] untouched.  One call does what
    {!is_empty}, {!min_key_exn}, {!min_tie_exn} and {!pop_exn} do
    together, allocating nothing — the scheduler's per-event pop. *)

val pull_count : t -> int
(** Total entries moved from the overflow heap into the calendar
    (diagnostics). *)
