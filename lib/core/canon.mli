(** Canonical serialization and stable hashing of scenarios.

    The result cache ({!Serve.Store}) is keyed by content: two
    submissions that describe the same simulation must map to the same
    key however they were constructed — built in OCaml with
    {!Scenario.make}, loaded from an experiment file with fields in any
    order, or expanded from a batch grid.  {!text} therefore renders
    the {e result-determining} fields of a {!Scenario.spec} into one
    canonical string (fixed field order, fully resolved values, times
    in integer nanoseconds, floats at full [%.17g] precision) and
    {!hash} digests it.

    Seven values that were once fields of the spec's sender config or
    of the spec itself — the initial window and ssthresh, the dup-ACK
    threshold, the SACK and SYN-exchange switches, the join delay and
    the start jitter — are constants now, and are rendered still, at
    the value each has: records stored while they were fields keep
    their keys.

    Excluded from the canonical form — and so from the hash — are the
    observation-only switches [trace_limit], [audit] and [obs]: they
    change no simulated outcome (the audit and obs layers only read),
    so a traced or audited submission may reuse a result cached by a
    plain one and vice versa.  They are not invisible to the event
    count, though: the audit tick and the metrics snapshot are
    scheduler events, one per sampling tick each, so
    [Scenario.result.events_processed] (and a stored record's
    [sim_events]) grows with them — a 600 ms paper run sampled every
    100 ms dispatches 61 300 events plain, 6 more with obs, 6 more with
    audit and 12 more with both.

    A version number is baked into the canonical text (the leading
    [(canon N)]): any change to the rendering (new field, different
    unit, reordering) must bump it, which changes every hash and turns
    the whole store into clean misses rather than silent mis-hits. *)

val text : Scenario.spec -> string
(** The canonical rendering.  Deterministic: equal specs (same
    topology, paths, algorithm, scheduler, timing, seed, queueing,
    sender tuning, transfer bounds and timed events) yield equal
    strings, whatever order their sources spelled the fields in. *)

val hash : Scenario.spec -> string
(** Hex digest (MD5, 32 characters) of {!text} — the content address
    used by the result store. *)

val short : string -> string
(** First 12 characters of a hash, for display. *)
