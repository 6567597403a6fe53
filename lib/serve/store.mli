(** Content-addressed on-disk result store.

    Keys are {!Core.Canon.hash} digests of canonical scenario specs;
    values are {!record}s — the deterministic summary of one simulated
    run (goodputs, audit verdict, final obs metrics) plus perf metadata
    (wall time, allocation, creation time).  Because simulation is
    bit-for-bit deterministic in the spec, a stored record answers a
    re-submission of the same scenario exactly as a fresh run would,
    and the service skips the simulation entirely.

    On-disk layout under the store directory:
    {v
    version              "mptcp-sim-store <format_version>"
    objects/<h2>/<hash>  one record file per result (h2 = first 2 hex)
    trend.log            append-only history (see {!Trend})
    v}

    Each record file carries its own
    ["mptcp-sim-record <format_version>"] header and a trailing MD5
    checksum line over the body.  {!lookup} re-verifies both: a version
    mismatch is a {e stale} miss (a format bump invalidates cleanly), a
    checksum/parse failure — truncation, bit rot, a concurrent partial
    write — is a {e corrupt} miss.  Neither is ever mis-read as a hit.
    Writes go through a temp file + atomic rename, so readers never see
    a half-written record. *)

val format_version : int
(** Bump on any record-layout change; all existing records then read
    as stale misses and are re-simulated. *)

type audit_summary = { violations : int; checks : int }

type record = {
  hash : string;           (** the content address ({!Core.Canon.hash}) *)
  label : string;          (** batch label, atom-sanitized *)
  cc : string;
  seed : int;
  paths : int;
  tail_mbps : float;       (** mean total rate over the last quarter *)
  per_path_mbps : (int * float) list;  (** tag-keyed tail means *)
  opt_mbps : float;        (** the scenario's LP optimum *)
  delivered_bytes : int;
  completed_at_s : float option;
  subflow_churn : int;
  cross_traffic_bytes : int;
  queue_drops : int;
  sim_events : int;        (** engine events the original run dispatched *)
  packets_created : int;
  audit : audit_summary option;  (** when the run was audited *)
  metrics : (string * float) list;
      (** final obs metrics snapshot, wall-derived entries dropped *)
  wall_s : float;          (** perf metadata: not content, not compared *)
  alloc_words : float;     (** minor-heap words the run allocated *)
  created_unix : float;    (** perf metadata: when it was simulated *)
}

val of_result :
  hash:string -> label:string -> wall_s:float -> alloc_words:float ->
  created_unix:float -> Core.Scenario.result -> record
(** Condenses a scenario result (tail means, counters, audit totals,
    {!Obs.Collect.final_metrics}) into a record. *)

val sanitize_atom : string -> string
(** A label as records and trend lines store it: every character
    outside [A-Za-z0-9._-] becomes [_], and an empty label is [_]. *)

val same_results : record -> record -> bool
(** Equality on every deterministic field — everything except the
    [wall_s] / [alloc_words] / [created_unix] perf metadata.  A cached
    record and a fresh re-simulation of the same spec must satisfy
    this; the cache-correctness tests assert it. *)

type t

val open_store : dir:string -> t
(** Opens (creating directories and the version file as needed).  A
    store written by a different {!format_version} is left in place;
    its records simply read as stale. *)

val dir : t -> string

val lookup : t -> hash:string -> record option
(** [None] on absent or unreadable (a concurrent unlink, a directory in
    the way), stale (version mismatch) or corrupt (checksum or parse
    failure) records; the latter two bump the {!stale_seen} /
    {!corrupt_seen} counters. *)

val insert : t -> record -> unit
(** Writes (temp file + rename, overwriting any previous record for
    the same hash). *)

val count : t -> int
(** Records currently on disk. *)

val invalidate : t -> int
(** Deletes every record (the trend history survives); returns how
    many were removed. *)

val bytes : t -> int
(** Total size of the record files currently on disk. *)

type gc_stats = {
  examined : int;       (** record files scanned *)
  evicted : int;        (** files removed *)
  evicted_bytes : int;
  kept : int;           (** files surviving the sweep *)
  kept_bytes : int;
}

val gc : t -> max_bytes:int -> gc_stats
(** Evict records, oldest mtime first, until the surviving files total
    at most [max_bytes] (the [cache --gc --max-bytes N] CLI).  Each
    eviction is a single unlink, so a concurrent reader sees a whole
    record or a miss, never a torn one; a record re-inserted while the
    sweep runs just reappears under its hash afterwards.  Evictions
    accumulate in {!evicted_total}.  Raises [Invalid_argument] on a
    negative budget. *)

val stale_seen : t -> int
val corrupt_seen : t -> int
val evicted_total : t -> int
(** Rejection/eviction counters since [open_store], for the [cache]
    CLI. *)

(** {1 Advisory in-flight claims}

    Two serve processes sharing one store interleave their {e writes}
    safely (atomic rename, O_APPEND), but nothing used to stop both
    from {e simulating} the same miss concurrently — wasted work, not
    corruption.  A claim closes that hole: before simulating hash [h],
    a process takes [objects/<h2>/<h>.lock] with [O_CREAT|O_EXCL]; a
    peer that finds the lock held waits for the record to land instead
    of re-running the scenario ({!Serve.Service.simulate_entry}).

    The claim is advisory and crash-safe: a live holder keeps the
    lock's mtime advancing with {!refresh_claim} (the service does this
    from a helper thread while simulating), a holder that dies stops,
    and {!try_claim} takes a lock whose mtime has fallen more than
    [stale_after_s] behind over (unlink + re-create) — so a crashed
    peer delays the simulation, never blocks it, while a live long run
    keeps its claim however long it takes.  Claims are never required
    for correctness; they only dedup effort. *)

type claim
(** A held advisory lock on one hash. *)

val try_claim :
  ?stale_after_s:float -> t -> hash:string -> [ `Claimed of claim | `Busy ]
(** Attempt to claim [hash].  [`Busy] means a live peer holds it (its
    lock file is younger than [stale_after_s], default 120 s); a stale
    lock is taken over.  Claims from the same process are not
    re-entrant: a second [try_claim] on a held hash is [`Busy]. *)

val release_claim : claim -> unit
(** Unlinks the lock file.  Idempotent; call after the record has been
    {!insert}ed so waiting peers find it. *)

val refresh_claim : claim -> unit
(** Touch the lock's mtime so a long-running live holder is never
    mistaken for a crashed one and taken over mid-simulation.  No-op
    after {!release_claim}; a refresh racing a concurrent takeover is
    harmless (the lock is advisory). *)

val claim_path : t -> hash:string -> string
(** Where the lock for [hash] lives — exposed so tests can backdate a
    lock's mtime to exercise the stale-takeover path. *)

val record_path : t -> hash:string -> string
(** Where the record for [hash] lives — exposed so tests can corrupt,
    truncate and re-version records deliberately. *)
