(** Model-based scenario fuzzing for the invariant audit.

    A case is a compact, fully-shrinkable description of a random
    experiment: a pairwise-overlap topology from {!Netgraph.Generate}
    (the paper's Fig. 1 construction generalised to [n] paths), one of
    the registered congestion controllers, a scheduler, a queue
    discipline and buffer size, optional propagation jitter and a finite
    send buffer.  Each case becomes a {!Core.Scenario.spec} with
    [audit = true]; the property under test ({!test}) is simply that the
    resulting {!Audit.report} contains zero violations — every byte
    conserved, queues within bounds, sequence numbers monotone, and the
    measured rates inside the LP feasible region.  The dynamic and
    hybrid sweeps extend a case with a random timed-event script
    ({!events_test}) or random fluid background mixes
    ({!hybrid_test}).

    On failure QCheck shrinks toward the minimal failing case (fewest
    paths, smallest capacities and buffers, shortest duration) and the
    counterexample is printed together with the full audit report. *)

val test : ?count:int -> unit -> QCheck.Test.t
(** The property: [count] (default 120) random audited scenarios all
    produce violation-free reports. *)

val fluid_test : ?count:int -> unit -> QCheck.Test.t
(** The analytic property: over [count] (default 100) random scenarios
    from the same generator, the fluid model (when the drawn algorithm
    has one) converges and its equilibrium goodputs are LP-feasible —
    checked through the same {!Netgraph.Constraints.violations} path as
    the audit's [lp.feasibility] invariant. *)

val pool_test : ?count:int -> unit -> QCheck.Test.t
(** The freelist property: over [count] (default 60) random audited
    scenarios the packet pool never double-releases or resurrects a live
    record (audit mode arms the pool's poison checks, so a violation
    raises mid-run) and its end-of-run counters are coherent
    ([double_releases = 0], [recycled <= released <= acquired]). *)

val wheel_test : ?count:int -> unit -> QCheck.Test.t
(** Timer-queue equivalence: [count] (default 400) random
    insert/cancel/pop programs driven against {!Engine.Timer_queue}'s
    wheel and heap implementations in lockstep must produce identical
    lengths, minima and pop streams.  Keys cover overdue pushes,
    multi-level cascades and beyond-span overflow entries. *)

val scoreboard_test : ?count:int -> unit -> QCheck.Test.t
(** Scoreboard equivalence: [count] (default 400) random
    append/ack/SACK/loss traces driven against {!Tcp.Scoreboard} and a
    naive list model must agree on every segment's flags, the O(1)
    SACK counter, the RFC 6675 pipe recount and both binary searches,
    with {!Tcp.Scoreboard.consistent} holding after every step. *)

val chunks_test : ?count:int -> unit -> QCheck.Test.t
(** Chunk-ownership equivalence: [count] (default 400) random programs
    of appends, trims below a rising ACK, in-place re-maps, mid-ring
    inserts (a split pending chunk), re-grants below the front, lookups
    and ascending scans, driven against {!Mptcp.Chunks} and the
    [Hashtbl] model it replaced, must agree on every lookup and scan,
    with {!Mptcp.Chunks.consistent} holding after every step.  Every
    case first grows the arrays and wraps the ring. *)

val determinism_test : ?count:int -> unit -> QCheck.Test.t
(** Parallel determinism: [count] (default 20) random audited scenario
    pairs run through {!Engine.Pool.map} on 1 and on 4 domains must be
    bit-identical — with the audit's heap shadow lockstep armed, so the
    timing wheel is cross-checked on every dispatch of both runs. *)

val events_test : ?count:int -> unit -> QCheck.Test.t
(** The dynamic property: [count] (default 200) random timed-event
    scripts interleaved with random topologies keep the full audit
    clean — conservation ledger (including lost-on-down-link fates),
    no delivery through a down link, monotone subflow liveness, and
    tail rates inside the static LP polytope. *)

val events_determinism_test : ?count:int -> unit -> QCheck.Test.t
(** Dynamic parallel determinism: [count] (default 12) random
    dynamic-scenario pairs run with [jobs = 1] and [jobs = 4] must
    agree on every counter — event processing, goodput, liveness churn
    and cross-traffic — and on the printed summary. *)

val hybrid_test : ?count:int -> unit -> QCheck.Test.t
(** The hybrid property: [count] (default 40) random topologies crossed
    with random background mixes keep the full audit clean (capacity
    integrals against the effective rate, occupancy bounds, foreground
    rates inside the static LP polytope), produce a background summary
    whose occupancy respects the buffer and whose goodput never exceeds
    the offered load, and stay bit-identical between [jobs = 1] and
    [jobs = 4] sweeps. *)

val daemon_test : ?count:int -> unit -> QCheck.Test.t
(** Daemon robustness: [count] (default 12) random garbage scripts —
    unframed bytes, oversized length prefixes, truncated frames,
    unbalanced sexps, unknown request forms, single-bit flips and
    wrong-version frames — fired at a live daemon.  The server never
    crashes: every frame it can answer gets a typed error reply, a
    well-formed request on a fresh connection succeeds after each
    piece of garbage, and the daemon still drains cleanly (socket
    unlinked) at the end. *)
