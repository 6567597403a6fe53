(** Model-based scenario fuzzing for the invariant audit.

    A {!case} is a compact, fully-shrinkable description of a random
    experiment: a pairwise-overlap topology from {!Netgraph.Generate}
    (the paper's Fig. 1 construction generalised to [n] paths), one of
    the registered congestion controllers, a scheduler, a queue
    discipline and buffer size, optional propagation jitter and a finite
    send buffer.  {!to_spec} turns it into a {!Core.Scenario.spec} with
    [audit = true]; the property under test ({!test}) is simply that the
    resulting {!Audit.report} contains zero violations — every byte
    conserved, queues within bounds, sequence numbers monotone, and the
    measured rates inside the LP feasible region.

    On failure QCheck shrinks toward the minimal failing case (fewest
    paths, smallest capacities and buffers, shortest duration) and the
    counterexample is printed together with the full audit report. *)

type case = {
  n : int;  (** number of pairwise-overlapping paths (2-4) *)
  base_mbps : int;  (** bottleneck capacity ramp base (5-25 Mbps) *)
  step_mbps : int;  (** bottleneck capacity ramp step (1-6 Mbps) *)
  cc_idx : int;  (** index into {!Mptcp.Algorithm.all} *)
  sched_idx : int;  (** 0 min-RTT, 1 round-robin, 2 redundant *)
  qdisc_idx : int;  (** 0 drop-tail, 1 RED, 2 RED+ECN, 3 CoDel *)
  limit_pkts : int;  (** per-link-direction buffer (4-32 packets) *)
  jitter_us : int;  (** uniform per-packet propagation jitter (0-300) *)
  delayed_ack : bool;
  buffer_pkts : int;  (** send buffer in MSS units; 0 = unlimited *)
  duration_ms : int;  (** simulated duration (200-500 ms) *)
  seed : int;
}

val cc_of : case -> Mptcp.Algorithm.t
val scheduler_of : case -> Mptcp.Scheduler.policy
val qdisc_of : case -> Netsim.Qdisc.t

val send_buffer : case -> int option
(** [buffer_pkts * default MSS] bytes, or [None] when unlimited. *)

val to_string : case -> string
(** One-line rendering, also used as the QCheck counterexample print. *)

val to_spec : case -> Core.Scenario.spec
(** Build the audited scenario.  Deterministic in the case. *)

val run_case : case -> Audit.report
(** Run {!to_spec} and return its audit report (never [None]). *)

val arbitrary : case QCheck.arbitrary
(** Generator with shrinking toward the smallest failing scenario. *)

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

type events_case = {
  base : case;
  rto_sel : int;  (** 0 = no failover cap, else rto_cap = 1 + rto_sel *)
  evs : ev list;  (** compact timed-event descriptors (1-6 of them) *)
}
(** A {!case} plus a random timed-event script: link kills and repairs,
    capacity cuts and ramps, delay and loss changes, subflow churn and
    cross-traffic, all materialised against the generated topology by
    {!to_events_spec}. *)

and ev = { kind : int; which : int; t_pct : int; mag : int }

val to_events_spec : events_case -> Core.Scenario.spec
(** Build the audited dynamic scenario.  Event times land in the first
    three quarters of the run, capacity targets never exceed a link's
    declared rate (the static LP stays a valid bound) and loss stays
    below 30%.  Deterministic in the case. *)

val events_to_string : events_case -> string
val events_arbitrary : events_case QCheck.arbitrary

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

type bg_mix = {
  bg_classes : int;  (** fluid background classes (1-30) *)
  bg_flows : int;  (** flows aggregated per class (1-8) *)
  bg_cc_sel : int;  (** 0 CBR, 1 Reno, 2 CUBIC, 3 LIA, 4 OLIA *)
  bg_mbps10 : int;  (** CBR per-flow rate in tenths of Mbps (0.1-3.0) *)
  bg_rtt_ms : int;  (** class base RTT (5-60 ms) *)
  bg_start_pct : int;  (** activation time as % of the run (0-50) *)
}
(** A compact background-mix descriptor: one
    {!Events.Event.Background_start} declaration riding the generated
    topology's first path. *)

type hybrid_case = { hbase : case; mixes : bg_mix list }
(** A {!case} plus 1-3 background mixes: the hybrid fluid/packet
    co-simulation fuzzed end to end. *)

val to_hybrid_spec : hybrid_case -> Core.Scenario.spec
(** Build the audited hybrid scenario — foreground subflows at packet
    fidelity, each mix compiled into the shared fluid field by
    {!Core.Scenario.run}.  Deterministic in the case. *)

val hybrid_to_string : hybrid_case -> string
val hybrid_arbitrary : hybrid_case QCheck.arbitrary

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
