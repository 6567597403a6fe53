(** Compile a topology and path set into the coupled window/queue ODE.

    The compiled system has one window state per subflow, one queue
    state per link that carries at least one path, and
    {!Controller.extra_dim} auxiliary states per subflow:

    - {e Rates.}  Subflow [i] sends at [x_i = w_i / rtt_i] packets per
      second, where [rtt_i] is twice the path's propagation delay plus
      the queueing delay [q_l / c_l] of every link it crosses.
    - {e Queues.}  Link [l] with capacity [c_l] (packets per second)
      accepts the aggregate arrival rate [y_l = sum over paths] thinned
      by its loss probability: [dq_l = y_l (1 - p_l) - c_l], clamped to
      [[0, buffer]].
    - {e Loss.}  A smooth RED-style ramp approximates drop-tail: below
      [loss_start] of the buffer the link is lossless, above it
      [p_l = ((q - q0) / (qmax - q0))^2] rises to 1 at a full buffer.
      Equilibrium queues therefore sit just above the ramp's knee, and
      the complementarity of the paper's LP (a link is either saturated
      or lossless) emerges from the dynamics instead of being assumed.
    - {e Paths.}  A path's loss is [1 - prod (1 - p_l)] over its links;
      its windows evolve by {!Controller.dwindows}.

    The link rows, capacities and incidence structure come from
    {!Netgraph.Constraints.extract} — the same extraction that feeds
    the LP solver and the audit's feasibility invariant, so the fluid
    model can never disagree with them about what the constraint system
    is. *)

type config = {
  mss_bytes : int;       (** packet size for bps/pps conversions *)
  buffer_pkts : int;     (** per-link queue limit, as in {!Netsim.Net.config} *)
}

val default_config : config
(** [Packet.default_mss] and 16-packet buffers (the paper scenario's
    {!Core.Scenario.default_net_config}). *)

val loss_start : float
(** 0.5: the loss ramp's knee as a fraction of the buffer.  Windows are
    floored at {!Tcp.Cc.min_cwnd} (2 MSS), the packet senders' floor. *)

val boundary_tau : float
(** Width (pseudo-time seconds) of the Lipschitz boundary layer that
    replaces hard derivative stalls at the state box's edges — shared
    with {!Background}'s class fields so both systems are integrable by
    the same stepper. *)

val ramp_loss : q0:float -> qmax:float -> float -> float
(** [ramp_loss ~q0 ~qmax q] is the quadratic drop-tail ramp above: [0]
    at or below the knee [q0], rising as [((q - q0) / (qmax - q0))^2]
    to [1] at [qmax].  Clamps [q] into [[0, qmax]] first.  Exposed so
    {!Background} compiles its per-channel class fields with the exact
    loss law this model uses. *)

type t

val compile :
  Netgraph.Topology.t -> paths:Netgraph.Path.t list
  -> controller:Controller.kind -> ?config:config -> unit -> t
(** Raises [Invalid_argument] on an empty path list (via
    {!Netgraph.Constraints.extract}). *)

val controller : t -> Controller.kind
val n_flows : t -> int
val link_ids : t -> int array
(** Topology link id per queue row, in {!Netgraph.Constraints.system}
    row order. *)

val system : t -> Netgraph.Constraints.system
(** The LP constraint system the model was compiled from. *)

val problem : t -> Ode.problem
(** The vector field plus box projection, ready for {!Ode.integrate}
    or {!Equilibrium.solve}.  The closures reuse per-model scratch, so
    a [t] must not be shared across domains (compile one per job). *)

val initial : t -> float array
(** Cold start: every window at the floor, queues empty, fresh epochs. *)

val warm_start : t -> float array
(** Start near the expected operating point — windows sized to send
    the LP-optimal rates, the LP's binding queues seeded {e inside} the
    loss ramp at the depth that makes the ramp's loss probability
    consistent with the Reno-balance loss those windows imply (exactly
    at the knee both [p] and [dp/dq] vanish, which zeroes CUBIC's
    auxiliary Jacobian rows and strands Newton), the remaining queues
    empty, and CUBIC epochs aged to the mean loss interval — so the
    equilibrium solver converges in few iterations.  Deterministic. *)

(** {1 Observers}  (fresh arrays; indexed like the compiled paths) *)

val windows : t -> float array -> float array
val queues_pkts : t -> float array -> float array

val rates_bps : t -> float array -> float array
(** Delivered (post-loss) rate per path, bits per second — the fluid
    counterpart of the wire rate the simulator measures at the
    receiver. *)

val total_mbps : t -> float array -> float
(** Sum of {!rates_bps}, in Mbps. *)
