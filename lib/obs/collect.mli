(** Wiring layer: a {!Metrics} registry of gauges over the counters
    each layer keeps, and a {!Trace} ring fed by the simulator's taps
    ({!Engine.Tap}).

    Every count the registry reports is one a layer keeps anyway
    ({!Engine.Sched.events_processed}, {!Netsim.Linkq.stats},
    {!Tcp.Sender.stats}, {!Mptcp.Connection.reinjections}, ...), read
    at each {!snapshot}: the metrics layer adds no work per event and
    subscribes to no tap, and its counts run from the layer's creation.
    Only the trace subscribes, appending one subscriber per tap, so it
    is a peer of the audit and the packet captures: each sees every
    event, whichever attached first.  A collector with the trace off
    therefore costs the run only its snapshots.

    Trace tracks: 0 = event loop, 1 = MPTCP scheduler, 2 = audit,
    3 = metrics/meta, [10+i] = subflow [i], [100 + 2*link + dir] = one
    link direction ([dir] 0 forward, 1 reverse). *)

type conf = { trace : bool; metrics : bool }

val default_conf : conf
(** Both layers on — what [--trace] and [--metrics] together request. *)

type t

val create : sched:Engine.Sched.t -> conf -> t
(** A collector stamping events with [sched]'s clock.  The trace ring
    and metrics registry are only allocated for the enabled layers. *)

val trace : t -> Trace.t option
val metrics : t -> Metrics.t option

val attach : t -> Netsim.Net.t -> Mptcp.Connection.t -> unit
(** Registers the [engine.*], [gc.wall.*], [netsim.*], [tcp.*] and
    [mptcp.*] gauges over the run's scheduler, network and connection,
    including per-subflow [tcp.cwnd.<i>] and
    [mptcp.subflow.<i>.goodput_bps]; and, with the trace on, subscribes
    the event-loop (track 0), per-link-direction, scheduler-decision
    (track 1) and per-subflow TCP (tracks [10+i]) trace events to their
    taps.  Call once, before the run starts. *)

val violation : t -> invariant:string -> unit
(** Records an audit violation (track 2) and sets the
    [audit.violations] value, registered at the first violation, to the
    count so far.  Kept generic so this library does not depend on
    [Audit]; the scenario layer subscribes it to [Audit.tap]. *)

val snapshot : t -> unit
(** Samples the metrics registry at the current simulated time and
    marks the snapshot on the trace (track 3). *)

val set_value : t -> string -> float -> unit
(** Forwards to {!Metrics.set} when the metrics layer is on — for
    end-of-run facts such as [core.wall_time_s]. *)

val final_metrics : t -> (string * float) list
(** The last metrics snapshot's values (name-sorted), or [[]] when the
    metrics layer is off or never sampled — the per-run capture the
    result store persists.  Metrics with "wall" in their name are
    filtered out, leaving a fully deterministic list. *)
