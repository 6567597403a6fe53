(** Experiment builder: one MPTCP bulk transfer over a path set, measured
    at the receiver — the whole methodology of the paper's Section 2 in
    one record.

    A {!spec} is pure data; {!run} builds a fresh simulator (scheduler,
    network, endpoints, connection, capture), executes it and returns the
    sampled series plus summary statistics.  Runs with equal specs are
    bit-for-bit identical. *)

type spec = {
  topo : Netgraph.Topology.t;
  paths : Mptcp.Path_manager.t;  (** first entry = default subflow *)
  cc : Mptcp.Algorithm.t;
  scheduler : Mptcp.Scheduler.policy;
  duration : Engine.Time.t;
  sampling : Engine.Time.t;
  seed : int;
  net_config : Netsim.Net.config;
  sender_config : Tcp.Sender.config;
  delayed_ack : bool;
  send_buffer : int option;
  total_bytes : int option;
  trace_limit : int option;
      (** when set, trace connection 1's packets at both endpoints:
          the first this-many events are kept and the rest only counted
          (see {!result.trace_text}; the CLI's [--packet-trace] sets
          10 000) *)
  audit : bool;
      (** run the {!Audit} invariant checker alongside the simulation
          and attach its report to the result (default [false]; the
          [--audit] CLI flag and all audit tests set it) *)
  obs : Obs.Collect.conf option;
      (** attach the observability collector (trace ring and/or metrics
          registry, per the conf) and return it in [result.obs]; the
          [--trace]/[--metrics] CLI flags set it.  [None] (default)
          subscribes nothing.  The collector changes no simulated
          outcome, but its metrics snapshot is a scheduler event, so
          [events_processed] counts one more event per sampling tick
          (as the audit tick does when [audit] is set) *)
  events : Events.Event.t list;
      (** timed scenario events (failover, ramps, churn, cross-traffic),
          validated by {!make} and armed on the run's scheduler; default
          empty — the static setup of the paper's grid *)
  rto_cap : int option;
      (** MPTCP failover threshold, passed through to
          {!Mptcp.Connection.config.rto_cap}; default [None] *)
  hybrid_tick : Engine.Time.t;
      (** coarse-tick period of the hybrid fluid background driver
          (default 1 ms); only consulted when [events] declare
          background classes ({!Events.Event.action.Background_start}) *)
}

val default_net_config : Netsim.Net.config
(** Drop-tail with 16-packet buffers — about half the fastest path's
    bandwidth-delay product, reproducing the shallow-buffer dynamics of
    the paper's Mininet links.  (The generic {!Netsim.Net.default_config}
    keeps 40-packet buffers.) *)

val start_jitter : Engine.Time.t
(** 2 ms: each subflow's start is delayed by a seeded uniform draw from
    [\[0, start_jitter\]] ({!Mptcp.Connection.config.start_jitter}), on
    top of the {!Mptcp.Connection.join_delay} of the non-default ones. *)

val make :
  topo:Netgraph.Topology.t -> paths:Mptcp.Path_manager.t
  -> cc:Mptcp.Algorithm.t -> ?scheduler:Mptcp.Scheduler.policy
  -> ?duration:Engine.Time.t -> ?sampling:Engine.Time.t -> ?seed:int
  -> ?net_config:Netsim.Net.config -> ?sender_config:Tcp.Sender.config
  -> ?delayed_ack:bool -> ?send_buffer:int -> ?total_bytes:int
  -> ?trace_limit:int -> ?audit:bool -> ?obs:Obs.Collect.conf
  -> ?events:Events.Event.t list -> ?rto_cap:int
  -> ?hybrid_tick:Engine.Time.t -> unit -> spec
(** Defaults: min-RTT scheduler, 4 s at 100 ms sampling (the paper's
    Fig. 2a/2b setup), seed 1, {!default_net_config}, default sender
    config, unlimited buffer and bulk data, no timed events, no failover
    cap, 1 ms hybrid tick.  Raises [Invalid_argument] when {!validate}
    rejects the spec. *)

val validate : spec -> unit
(** The checks {!make} applies, for a spec changed by record update
    after [make] built it.  Raises [Invalid_argument] when there are no
    paths, when {!Events.Event.validate} rejects the event list, when
    the hybrid tick or the sampling period is not positive, or when a
    background declaration names a congestion control without a fluid
    model. *)

type subflow_report = {
  tag : Packet.tag;
  cwnd : float;
  srtt_s : float option;
  segments_sent : int;
  retransmits : int;
  timeouts : int;
  fast_recoveries : int;
  bytes_acked : int;
  rx_bytes : int;
}

type result = {
  spec : spec;
  per_tag : (Packet.tag * Measure.Series.t) list;
      (** wire Mbps per path, in tag order *)
  total : Measure.Series.t;
  cwnd_series : (Packet.tag * Measure.Series.t) list;
      (** each subflow's congestion window (MSS units) sampled every
          [sampling] period — the sawtooth behind Fig. 2c *)
  optimum : Netgraph.Constraints.optimum;
  subflows : subflow_report list;
  delivered_bytes : int;  (** connection-level in-order goodput *)
  completed_at_s : float option;
      (** when the [total_bytes] transfer finished, in seconds; [None]
          when unbounded or unfinished — the failover scenarios' key
          output *)
  subflow_churn : int;
      (** path-liveness transitions over the run (failover + recovery) *)
  cross_traffic_bytes : int;
      (** bytes emitted by event-scripted traffic sources *)
  queue_drops : int;
  events_processed : int;
  packets_created : int;
      (** wire ids handed out by the network — the denominator for
          allocations-per-packet accounting *)
  pool_stats : Packet.Pool.stats;
      (** freelist counters at end of run; [recycled / acquired] is the
          hot path's recycle hit rate *)
  trace_text : string option;
      (** tcpdump-style rendering of the packet trace, when requested:
          one line per kept event, then [... (N more events)] when
          [trace_limit] left N > 0 events out *)
  audit : Audit.report option;
      (** invariant-audit report, when [spec.audit] was set; a clean run
          has [total_violations = 0] *)
  obs : Obs.Collect.t option;
      (** the observability collector, when [spec.obs] was set — its
          trace ring and metrics snapshots (including the end-of-run
          [core.wall_time_s]) are ready for export *)
  background : Fluid.Background.Driver.summary option;
      (** end-of-run summary of the hybrid fluid background field, when
          the events declared background classes: class/flow/channel
          counts, driver ticks, ODE steps, offered and delivered
          aggregate rate, peak fluid queue *)
}

val run : spec -> result

val optimum_rates : spec -> float array
(** Per-path LP-optimal rates in bits per second, in [spec.paths]
    order: the reusable "what should this scenario achieve" entry point
    shared by the CLI, the fluid validator and the tests. *)

val optimal_total_mbps : result -> float

val tail_mean_mbps : result -> float
(** Mean total throughput over the last quarter of the run. *)

val per_path_tail_mbps : result -> (Packet.tag * float) list

val time_to_optimum_s : ?tolerance:float -> ?hold:int -> result -> float option
(** When the total first sustainedly reached the LP optimum. *)

val pp_summary : Format.formatter -> result -> unit
