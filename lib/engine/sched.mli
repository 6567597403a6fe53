(** Discrete-event scheduler.

    Single-threaded, deterministic: events fire in (time, insertion-order)
    order.  Callbacks may schedule and cancel further events freely.

    Every queued event is one [int] on the timing wheel ({!Wheel}): the
    code of a handler registered with {!register}, and an [int]
    argument.  Queueing and firing such an event allocates nothing and
    stores no pointer.  Closures ({!at_anon}) and cancellable timers
    ({!at}, {!idle_timer}) are kept in free-listed slot tables behind
    two handlers every scheduler reserves, with the slot as the
    argument.  A timer that is re-armed over and over ({!rearm_after})
    is one handle for life, and a re-arm to a later deadline allocates
    nothing and stores no pointer. *)

type t

type timer
(** Handle for a scheduled event, usable to cancel it. *)

type handler = private int
(** A registered handler's code. *)

val create : unit -> t
(** Fresh scheduler with clock at {!Time.zero}. *)

val register : t -> (int -> unit) -> handler
(** [register t f] adds [f] to the scheduler's handlers, once, and
    returns its code for {!at_call} and {!after_call}.  A scheduler
    holds up to 2{^24} handlers. *)

val unregistered : handler
(** A placeholder for a record field that will hold a handler once its
    owner, which the handler closes over, exists.  An event queued for
    it raises [Failure] when dispatched. *)

val at_call : t -> Time.t -> handler -> int -> unit
(** [at_call t when_ h arg] schedules [h arg] at absolute time [when_],
    without a handle.  [arg] must lie in \[0, 2{^38}).  Raises
    [Invalid_argument] when [when_] is in the past or [arg] is out of
    range.  The link model's serializer and arrival events go through
    this. *)

val after_call : t -> Time.t -> handler -> int -> unit
(** [after_call t delay h arg] is [at_call t (now t + delay) h arg];
    [delay >= 0]. *)

val now : t -> Time.t
(** Current simulated time (the timestamp of the running event, or of the
    last completed one). *)

val at : t -> Time.t -> (unit -> unit) -> timer
(** [at t when_ f] schedules [f] at absolute time [when_].  Raises
    [Invalid_argument] when [when_] is in the past. *)

val after : t -> Time.t -> (unit -> unit) -> timer
(** [after t delay f] schedules [f] at [now t + delay]; [delay >= 0]. *)

val idle_timer : t -> (unit -> unit) -> timer
(** [idle_timer t f] is a handle for [f] that is not pending:
    {!rearm_after} schedules it, as often as needed. *)

val rearm_after : timer -> Time.t -> unit
(** [rearm_after tm delay] is [cancel tm] followed by scheduling [tm]'s
    action at [now + delay] on the same handle ([delay >= 0]): it draws
    one tie, and {!cancelled_count}, {!queue_length} and
    {!events_processed} read as after [cancel] and {!after}.  When the
    timer is pending and its queued entry is due no later than the new
    deadline, the entry stays queued and the timer stores the new
    deadline; when the entry pops early, the scheduler queues it again
    at that deadline, which is not an event (the clock does not move,
    nothing counts it, the tap and the action do not run). *)

val at_anon : t -> Time.t -> (unit -> unit) -> unit
(** Like {!at}, but returns no handle: the event cannot be cancelled.
    The callback waits in a slot table, so anonymous scheduling
    allocates nothing beyond the closure itself.  Where the callback
    would be the same function every time, {!register} it once and use
    {!at_call}, which stores no pointer at all. *)

val after_anon : t -> Time.t -> (unit -> unit) -> unit
(** Like {!after}, with {!at_anon}'s no-handle contract. *)

val cancel : timer -> unit
(** Prevents a pending event from firing.  Cancelling an already-fired or
    already-cancelled timer is a no-op.  The timing wheel unlinks the
    entry immediately — O(1), no dead entries retained — so workloads
    that rearm timers constantly (TCP retransmission) pay nothing
    beyond the unlink. *)

val pending : timer -> bool
(** [pending tm] is [true] until the timer fires or is cancelled. *)

val run : ?until:Time.t -> t -> unit
(** Processes events in order.  With [until], stops once every event at
    time <= [until] has run and advances the clock to exactly [until];
    without it, runs until the queue drains. *)

val queue_length : t -> int
(** Number of live (not yet fired, not cancelled) queued events. *)

val events_processed : t -> int
(** Total number of callbacks fired so far (diagnostics / benchmarks). *)

val cancelled_count : t -> int
(** Total number of timers cancelled over the scheduler's lifetime. *)

type stats = { pending : int; fired : int; cancelled : int }

val stats : t -> stats
(** Snapshot of {!queue_length}, {!events_processed} and
    {!cancelled_count} — cheap enough for per-event instrumentation. *)

val set_lockstep : t -> bool -> unit
(** Arms (or disarms) the cross-check shadow queue: every subsequent
    event is mirrored into a reference {!Heap}, and each dispatch pops
    both queues and raises [Failure] on any (time, insertion-order)
    divergence between the timing wheel and the heap.  Must be armed
    while the queue is empty ([Invalid_argument] otherwise).
    [Core.Scenario.run] arms it whenever the scenario's audit flag is
    set, so every [--audit] run exercises the wheel against the
    reference implementation end-to-end. *)

val lockstep : t -> bool
(** Whether the lockstep shadow queue is armed. *)

val tap : t -> Time.t Tap.t
(** Event-dispatch observation point: emits once per live event, with
    the event's timestamp, after the clock has advanced but before the
    event's own callback runs.  Without subscribers a dispatch pays one
    length test.  The observability trace ([Obs.Collect]) subscribes to
    record event-loop dispatches; its metrics read
    {!events_processed}. *)

val periodic : t -> period:Time.t -> until:Time.t -> (unit -> unit) -> unit
(** [periodic t ~period ~until f] fires [f] at [now + period],
    [now + 2 * period], ... for every multiple at or before [until].
    Each firing re-arms the next through the timing wheel (one pending
    anonymous event per task at any time), so coarse ticks — the hybrid
    fluid background driver, samplers — co-exist with packet events at
    any population, in deterministic (time, insertion-order) order.
    Raises [Invalid_argument] on a non-positive period. *)
