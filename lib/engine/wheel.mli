(** Hierarchical timing wheel — the event queue behind {!Sched}.

    Same ordering contract as {!Heap} (pop in lexicographic (key, tie)
    order, exact, deterministic) but with O(1) insert, O(1) cancel via
    an explicit cell handle, and amortised O(1) expiry: eight levels of
    32 slots over a coarse 2{^12} ns level-0 granule cover 2{^52} ns of
    future, entries beyond that wait in an overflow heap and migrate in
    as the wheel drains.  Timer cells are
    free-listed parallel int arrays and each entry's payload is an
    [int] (the scheduler's event code), so steady-state operation
    allocates nothing and stores no pointer.

    A key's level is chosen by comparing [key lxor now] against the
    level boundaries 2{^17}, 2{^22}, ..., 2{^52}: the first boundary it
    falls below names the level (level [l] holds distances under
    2{^12+5(l+1)}), and a key at or past 2{^52} goes to the overflow
    heap.  Keys at or below [now] are overdue and join the current
    level-0 slot.  The lowest occupied slot or level is found by a
    de Bruijn table lookup, not a bit loop.

    Keys must be non-negative (they are {!Time.t} nanosecond stamps in
    the scheduler).  Unlike a search structure, the wheel has a notion
    of current position: it only moves forward, so a key below the
    highest key already popped still pops correctly (it is queued as
    overdue) but costs a scan rather than O(1). *)

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

val tie : t -> int -> int
(** [tie t c] is the tie of the queued entry with handle [c]. *)

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

val cascade_count : t -> int
(** Total slot redistributions performed (diagnostics: each cascade
    relinks one slot's cells one level down). *)
