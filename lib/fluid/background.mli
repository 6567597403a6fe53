(** Background flow classes as fluid fields, for hybrid co-simulation.

    {!Model} compiles a handful of foreground connections into a coupled
    ODE; this module scales the other axis: {e thousands} of background
    flow {e classes}, each an aggregate of identical single-path flows,
    sharing directional link {e channels}.  Per windowed class one
    window state evolves by the controller's single-flow law
    ({!Controller.dwindows_single} — LIA and OLIA degenerate to Reno
    exactly for one path, CUBIC keeps its two auxiliary states).  A
    CBR-style class sends at a constant per-flow rate and has no state
    at all: it is folded into its channels' open-loop arrival when it
    activates.  Per channel one queue state integrates admitted
    aggregate arrivals minus the drain rate, with the same quadratic
    loss ramp ({!Model.ramp_loss}) and Lipschitz boundary layers
    ({!Model.boundary_tau}) as the connection model, so the class fields
    and the foreground fluid model describe queues identically.

    The coupling to the packet simulation is two-sided and runs on a
    coarse tick ({!Driver}): the field sees the foreground's measured
    arrival rate as exogenous load on its channels, and the packet-level
    {!Netsim.Linkq} sees the field's queue occupancy and bandwidth share
    ({!Netsim.Linkq.set_background}) in its service rate and drop
    decisions.  Cost per ODE step is linear in windowed classes +
    channels and independent of the number of constant classes, so a
    million background flows (say 10^5 classes of 10) advance in
    microseconds per tick while four foreground connections keep full
    packet fidelity — the hybrid scaling argument of Peng et al.
    (arXiv:1308.3119) realised on this repository's simulator. *)

(** How a class's per-flow sending rate is determined. *)
type law =
  | Constant  (** open-loop: every flow sends at [flow_rate_pps] *)
  | Windowed of Controller.kind
      (** closed-loop: one fluid window per class, rate [w / rtt] *)

type class_spec = {
  flows : int;  (** identical flows aggregated in this class *)
  law : law;
  flow_rate_pps : float;
      (** per-flow rate for [Constant] classes (ignored otherwise) *)
  base_rtt_s : float;  (** propagation RTT, excluding queueing *)
  chans : int array;  (** channel indices the class's path crosses *)
  start_s : float;
      (** field time at which the class activates; before it the class
          sends nothing and its states are frozen *)
}

type channel_spec = {
  cap_pps : float;  (** drain rate, packets per second *)
  limit_pkts : int;  (** buffer limit, as {!Netsim.Linkq.limit_pkts} *)
}

type t

val compile :
  channels:channel_spec array -> classes:class_spec array -> unit -> t
(** Builds the field: state vector [windows (one per [Windowed] class,
    in class order); queues (one per channel); CUBIC auxiliary pairs
    (per CUBIC class)], windows at the floor, queues empty.  [Constant]
    classes carry no state, only arrival: those declared before the
    first windowed class fold into a per-channel open-loop rate when
    they activate, later ones add their rate in each derivative
    evaluation, so every channel sums its arrivals in class order
    whatever the mix of laws.  The loss-ramp knee ({!Model.loss_start})
    and the window floor ({!Tcp.Cc.min_cwnd}) are {!Model.compile}'s;
    the step-doubling error bound passed to {!Ode.integrate} is [1e-4],
    coarser than the foreground default because class fields are
    aggregates.  Raises [Invalid_argument] on empty or inconsistent
    specs (no classes, a class with no flows or channels, a channel
    index out of range, a [Constant] class without a positive rate). *)

val dim : t -> int
(** State dimension: windowed classes + channels + 2 x CUBIC classes.
    Constant classes add nothing. *)

val set_foreground : t -> chan:int -> pps:float -> unit
(** Exogenous packet-level arrival rate sharing channel [chan],
    refreshed by the driver each tick (clamped at 0). *)

val advance : t -> dt_s:float -> Ode.stats
(** Integrate the field forward by [dt_s] seconds (one coarse tick) and
    refresh its outputs: each channel's standing queue and the
    bandwidth the background claims there (which {!Driver} applies to
    the link), and the aggregates below.  Classes whose [start_s] has
    not been reached are held frozen for the whole step.  The field
    reuses per-field work arrays, so a [t] must not be shared across
    domains.  Raises [Invalid_argument] on a non-positive step.

    Two regime-aware fast paths keep the cost flat at scale.  {e Deeply
    overloaded channels} (aggregate arrival beyond ~1.5x capacity, where
    an explicit stepper would be stability-limited resolving a queue
    pinned at its equilibrium) blend smoothly into a quasi-steady-state
    treatment: the queue is slaved to the loss ramp's algebraic
    equilibrium [q_eq = q0 + (qmax - q0) sqrt(1 - c/A)] and the stiff
    fast mode disappears.  {e Converged fields} go dormant: after a few
    consecutive advances whose state barely moves, [advance] returns
    immediately ([steps = 0]) and the outputs hold, until a
    foreground-rate move beyond a small fraction of the channel's
    aggregate arrival, a capacity change or a pending class activation
    wakes the field.  Both paths are deterministic functions of the
    input sequence. *)

val dormant_ticks : t -> int
(** Cumulative advances skipped while dormant. *)

(** {1 Outputs} (state after the last {!advance}) *)

val offered_pps : t -> float
(** Aggregate pre-loss sending rate over all classes and flows (0
    before the first {!advance}). *)

val goodput_pps : t -> float
(** Aggregate post-loss delivered rate over all classes and flows (0
    before the first {!advance}). *)

val ode_steps : t -> int
(** Cumulative accepted {!Ode.stats} steps over every {!advance}. *)

(** Couples a field to a live {!Netsim.Net}: translates class
    declarations over topology links into channels, then on every coarse
    tick (armed through {!Engine.Sched.periodic}, so ticks ride the
    timing wheel like any other event) refreshes channel capacities from
    the live link rates, measures the foreground arrival rate from
    delivered-byte deltas (EWMA-smoothed), advances the field, and
    pushes occupancy and bandwidth share into each
    {!Netsim.Linkq.set_background}. *)
module Driver : sig
  type decl = {
    links : (int * bool) array;
        (** the classes' path as (topology link id, forward?) hops *)
    classes : int;  (** classes this declaration expands into *)
    flows : int;  (** identical flows per class *)
    kind : Controller.kind option;  (** [None] = constant-rate (CBR) *)
    flow_rate_bps : int;  (** per-flow rate for CBR classes *)
    rtt_s : float;
        (** mean propagation RTT: class [i] of [n] gets
            [rtt_s * (0.85 + 0.3 i / (n - 1))] (the mean itself when
            [n = 1]), spread +/-15% so windowed classes do not move as
            one synchronized cohort *)
    start_s : float;
  }

  type field = t
  (** The coupled class field (the enclosing module's [t]). *)

  type t

  val attach :
    sched:Engine.Sched.t -> net:Netsim.Net.t -> tick:Engine.Time.t
    -> until:Engine.Time.t -> ?config:Model.config -> decl array -> t
  (** Expands each declaration into its [classes] (resolving its links
      once, and giving a constant declaration's classes one shared
      {!class_spec}, since constant classes ignore RTT), compiles the
      field (deduplicating [(link, dir)] pairs into channels), arms the
      per-tick coupling from [now + tick] to [until], and returns its
      handle.  [config] defaults to {!Model.default_config} — its
      [mss_bytes] sets the bits-per-packet conversion between the
      field's pps and the link's bps.  Raises [Invalid_argument] on an
      empty declaration array, a declaration with fewer than one class,
      or an unknown link. *)

  val field : t -> field
  val ticks : t -> int

  type summary = {
    classes : int;
    flows : int;
    channels : int;
    ticks : int;
    ode_steps : int;
    offered_mbps : float;
    goodput_mbps : float;
    max_occupancy_pkts : float;
  }

  val summary : t -> summary
  val pp_summary : Format.formatter -> summary -> unit
end
