(** Fixed-size worker pool on OCaml 5 domains.

    The simulator itself is single-threaded and deterministic; what
    parallelises is the layer above it, where dozens of independent
    scenarios (figures, sweep cells, ablations) each own their private
    {!Sched} and {!Rng}.  [Pool] runs such independent thunks across a
    fixed set of domains with a mutex/condition work queue.

    Results always come back in input order and the first (by input
    index) exception is re-raised in the caller, so
    [Pool.map ~domains:n f xs] is observationally [List.map f xs] as
    long as [f] touches no shared mutable state — which makes parallel
    sweeps bit-identical to serial ones.

    Do not call [map] or {!await} from inside a pool job: workers would
    wait on themselves. *)

type t
(** A pool of worker domains sharing one job queue. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val create : ?domains:int -> unit -> t
(** Spawns [domains] workers (default {!default_domains}).  Raises
    [Invalid_argument] when [domains < 1]. *)

val size : t -> int
(** Number of worker domains. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Spawns a pool, {!submit}s [f x] for every element, {!await}s them
    in order and shuts the pool down.  Results are in input order.  If
    any job raises, the exception of the lowest-index failing job is
    re-raised (with its backtrace) after every job has settled.
    [~domains:1] (and lists of length <= 1) short-circuits to
    [List.map] with no domain spawned, so [--jobs 1] is exactly the
    serial code path. *)

(** {1 Incremental submission}

    [map] is all-or-nothing: the caller blocks until the whole list
    settles.  A long-running service (the scenario cache's
    [serve] loop) instead discovers work incrementally — cache hits
    return immediately, misses trickle in as batches arrive — so it
    needs to enqueue jobs one at a time and collect each result when it
    is ready.  Idle workers pull from the shared queue, so load
    balances across domains without the submitter choosing placements. *)

type 'a ticket
(** A claim on one submitted job's eventual result. *)

val submit : t -> (unit -> 'a) -> 'a ticket
(** Enqueues the thunk and returns immediately.  Raises
    [Invalid_argument] on a shut-down pool. *)

val await : 'a ticket -> 'a
(** Blocks until the job finishes and returns its result, re-raising
    (with backtrace) if the thunk raised.  [await] may be called at
    most once from one thread per ticket's completion; calling it again
    returns the same outcome.  Do not [await] from inside a pool job:
    the worker would wait on itself. *)

val shutdown : t -> unit
(** Joins all workers.  Idempotent.  The pool is unusable afterwards. *)

(** {1 Profiling}

    Each worker records how many jobs it ran and how much wall-clock
    time it spent inside job thunks.  Idle time for a worker is the
    caller's wall time minus its busy time; dividing total busy time by
    wall time gives the effective speedup.  Accounting costs two
    [Unix.gettimeofday] calls and one short critical section per job —
    negligible against jobs that are whole simulations. *)

type worker_stats = { jobs : int; busy_s : float }
(** Jobs executed and wall-clock seconds spent inside job thunks, for
    one worker domain. *)

val global_worker_stats : unit -> worker_stats array
(** Process-wide accounting aggregated across every pool created since
    the last {!reset_global_stats}, indexed by worker slot.  Lets
    [bench --profile] report busy/idle per domain even though each
    benchmark phase creates and destroys its own pools internally. *)

val global_pools : unit -> int
(** Number of pools created since the last {!reset_global_stats}. *)

val reset_global_stats : unit -> unit
(** Clears the process-wide accounting (e.g. between benchmark
    phases). *)
