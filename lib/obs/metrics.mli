(** Metrics registry: named gauges, values and histograms, sampled
    into timestamped snapshots and dumped as CSV.

    A count is a gauge over the counter its layer keeps (see
    {!Collect}), so the registry holds no per-event instrument.

    Names are dotted and layer-prefixed ([engine.events_dispatched],
    [netsim.pkts_dropped], [tcp.retransmits], [mptcp.delivered_bytes],
    [core.wall_time_s] — see doc/OBSERVABILITY.md for the full list).
    Snapshots list values in name order, so two runs that take snapshots
    at the same simulated times produce identical output — the property
    the determinism tests rely on (wall-clock metrics excepted). *)

type t

type histogram
(** Streaming aggregate (count/sum/min/max); no per-sample storage. *)

val create : unit -> t

val gauge : t -> string -> (unit -> float) -> unit
(** Registers a callback gauge: sampled lazily at each {!snapshot}.
    Re-registration replaces the callback.  Raises [Invalid_argument]
    when [name] is already registered as a different instrument kind,
    as {!histogram} and {!set} do. *)

val histogram : t -> string -> histogram
(** Registers (or retrieves) the histogram [name]; snapshots expand it
    to [name.count], [name.sum], [name.min], [name.max], [name.mean]. *)

val observe : histogram -> float -> unit

val set : t -> string -> float -> unit
(** Sets the plain value [name] (registering it on first use) — for
    facts set rather than sampled, such as [core.wall_time_s] or
    [audit.violations]. *)

type snapshot = {
  sim_ns : int;
  values : (string * float) list;  (** sorted by name *)
}

val snapshot : t -> sim_ns:int -> unit
(** Samples every instrument now and appends a {!snapshot}. *)

val snapshots : t -> snapshot list
(** All snapshots taken so far, oldest first. *)

val latest : t -> snapshot option
(** The most recent snapshot — the end-of-run state when the scenario
    layer has just taken its final sample.  O(1), unlike walking
    {!snapshots}. *)

val write_csv : t -> out_channel -> unit
(** Long-format CSV with header [sim_ns,name,value]: one row per
    (snapshot, instrument), snapshots in time order, names sorted within
    each snapshot.  Values print with [%.17g] so reading them back is
    lossless. *)
