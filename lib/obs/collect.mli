(** Wiring layer: subscribes a {!Trace} ring and a {!Metrics} registry
    to the simulator's taps ({!Engine.Tap}).

    Every attach function appends a subscriber, so the collector is a
    peer of the audit and the packet captures: each sees every event,
    whichever attached first.  With both [trace] and [metrics] off the
    collector subscribes to nothing, so disabled runs pay only the
    empty-tap test at each emit site.

    Trace tracks: 0 = event loop, 1 = MPTCP scheduler, 2 = audit,
    3 = metrics/meta, [10+i] = subflow [i], [100 + 2*link + dir] = one
    link direction ([dir] 0 forward, 1 reverse). *)

type conf = {
  trace : bool;
  metrics : bool;
  trace_capacity : int;  (** ring size in events *)
}

val default_conf : conf
(** Both layers on, 65536-event ring — what [--trace]/[--metrics]
    request. *)

type t

val create : sched:Engine.Sched.t -> conf -> t
(** A collector stamping events with [sched]'s clock.  The trace ring
    and metrics registry are only allocated for the enabled layers. *)

val trace : t -> Trace.t option
val metrics : t -> Metrics.t option

val attach_sched : t -> Engine.Sched.t -> unit
(** Event-loop dispatch trace (track 0) and the
    [engine.events_dispatched] counter / [engine.heap_depth] gauge. *)

val attach_net : t -> Netsim.Net.t -> unit
(** Per-link-direction enqueue/dequeue/drop/lost trace events and the
    [netsim.*] packet and byte counters, from every queue's tap;
    [netsim.no_route] from every node's no-route tap. *)

val attach_connection : t -> Mptcp.Connection.t -> unit
(** Scheduler-decision trace (track 1), per-subflow TCP trace (tracks
    [10+i]) and the [tcp.*] / [mptcp.*] counters and gauges, including
    per-subflow [tcp.cwnd.<i>] and [mptcp.subflow.<i>.goodput_bps]. *)

val violation : t -> invariant:string -> unit
(** Records an audit violation (track 2, [audit.violations] counter).
    Kept generic so this library does not depend on [Audit]; the
    scenario layer subscribes it to [Audit.tap]. *)

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
