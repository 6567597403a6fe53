(** Runtime invariant checker for the simulator.

    The paper's claim — coupled congestion control steering MPTCP to the
    LP optimum — is only evidence if the simulator itself conserves
    bytes, keeps sequence numbers monotone and never reports throughputs
    outside the feasible region.  This module subscribes to the taps
    ({!Engine.Tap}) of {!Netsim.Net}/{!Netsim.Linkq},
    {!Tcp.Sender}/{!Tcp.Receiver} and {!Mptcp.Connection} and checks,
    while a scenario runs:

    - {b conservation}: every injected packet is eventually delivered to
      a host, dropped by a qdisc, discarded for lack of a route, lost to
      a downed link, or still in flight — never duplicated or forgotten
      ([conservation.*]);
    - {b link sanity}: buffer occupancy never exceeds the configured
      limit, and no link direction delivers more bits than its rate
      allows over the run ([link.*]);
    - {b TCP}: [snd_una] only advances, never past [snd_nxt]; segments
      are non-empty and at most one MSS; the receiver delivers exactly
      the in-order prefix; cwnd/ssthresh stay within congestion-control
      bounds ([tcp.*]);
    - {b MPTCP}: DATA_ACKs are monotone and never exceed what the
      reassembly buffer has seen; delivered + buffered connection bytes
      never exceed the bytes mapped onto subflows; after every grant and
      reinjection the chunk-ownership ring is sorted, disjoint, owned by
      real subflows and below [next_dseq] ([mptcp.*]);
    - {b LP feasibility}: measured per-path goodputs satisfy every link
      constraint of the paper's LP (e.g. x1+x2 <= 40, x1+x3 <= 60,
      x2+x3 <= 80 Mbps on the paper net) within a tolerance, and their
      sum respects the max-flow bound ([lp.*]).

    All hooks are off by default and cost one mutable load when unused;
    a scenario opts in with [Core.Scenario.make ~audit:true] or the
    [--audit] CLI flag.  Violations carry the simulated timestamp and a
    human-readable event context.  See [doc/AUDIT.md]. *)

type violation = {
  at : Engine.Time.t;  (** simulated time of detection *)
  invariant : string;  (** stable identifier, e.g. ["link.occupancy"] *)
  detail : string;     (** event context, human-readable *)
}

type ledger = {
  injected_pkts : int;
  injected_bytes : int;
  delivered_pkts : int;  (** consumed by a destination host *)
  delivered_bytes : int;
  dropped_pkts : int;    (** discarded by a qdisc *)
  dropped_bytes : int;
  no_route_pkts : int;
  lost_down_pkts : int;  (** destroyed by a downed link *)
  inflight_pkts : int;   (** still live when {!finish} ran *)
  inflight_bytes : int;
}

type report = {
  violations : violation list;
      (** in detection order, capped at 50 *)
  total_violations : int;  (** including any beyond the cap *)
  checks : int;            (** invariant evaluations performed *)
  ledger : ledger;
}

type t

val create : sched:Engine.Sched.t -> t
(** A fresh auditor; at most 50 violation records are retained (the
    total count is always exact). *)

val attach_net : t -> Netsim.Net.t -> unit
(** Subscribes the packet-conservation and link-sanity checks to the
    network's per-node taps and every queue's tap.  Attach before any
    packet is injected. *)

val attach_connection : t -> label:string -> Mptcp.Connection.t -> unit
(** Registers the connection for {!tick} checks and subscribes to its
    tap and every subflow's sender and receiver taps. *)

val tick : t -> unit
(** Evaluates the MPTCP connection-level invariants now; call it
    periodically (the scenario runner does, once per sampling period). *)

val check_lp :
  t ->
  topo:Netgraph.Topology.t ->
  paths:Netgraph.Path.t list ->
  measured_bps:float array ->
  ?tolerance:float ->
  unit ->
  unit
(** Checks the measured per-path goodputs (bits per second, in [paths]
    order) against every link-capacity row of the LP extracted from the
    topology, and their sum against the max-flow bound.  [tolerance]
    (default 0.05) is relative, with an absolute floor of 1 Mbps to
    absorb sampling-window granularity. *)

val finish : t -> ?elapsed:Engine.Time.t -> unit -> unit
(** End-of-run sweep: final occupancy, per-link delivered-bits-vs-rate
    and serializer-busy-time checks, and the conservation ledger
    cross-checked against each queue's own counters.  [elapsed] defaults
    to the scheduler's current time.  Idempotent. *)

val tap : t -> violation Engine.Tap.t
(** Emits once per violation, at detection time, even after the
    stored-violation cap is reached.  The scenario layer subscribes the
    observability collector to put audit violations on the trace
    timeline. *)

val violations : t -> violation list
val report : t -> report
val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
