(** Cross-validation of the fluid model against the LP and the
    packet-level simulator.

    A {!Core.Scenario.spec} already names everything the fluid model
    needs — topology, tagged paths, congestion controller, buffer
    sizes, packet size — so validation takes the {e same} spec the
    simulator runs, compiles it (via {!model_of_spec}), solves for the
    fluid equilibrium, and lines the three predictions up per path:

    - the fluid equilibrium goodput,
    - the LP optimum from the shared {!Core.Scenario.optimum_rates}
      entry point,
    - optionally the simulator's tail-mean throughput from an actual
      {!Core.Scenario.run}.

    Paths keep [spec.paths] order throughout and carry their subflow
    tags, so fluid path [i], LP rate [i] and the simulator's series for
    the same tag always describe the same path.  Fluid equilibria are
    also checked for LP feasibility through the same
    {!Netgraph.Constraints.violations} code path the audit uses. *)

type path_report = {
  tag : Packet.tag;
  fluid_mbps : float;        (** fluid equilibrium goodput *)
  lp_mbps : float;           (** LP-optimal rate *)
  sim_mbps : float option;   (** simulator tail mean, when a run was done *)
}

type t = {
  controller : Fluid.Controller.kind;
  diag : Fluid.Equilibrium.diag;
  per_path : path_report list;       (** in [spec.paths] order *)
  fluid_total_mbps : float;
  lp_total_mbps : float;
  sim_total_mbps : float option;
  lp_gap : float;
      (** [(lp - fluid) / lp]: positive when the fluid equilibrium
          falls short of the optimum (CUBIC and LIA do, by design of
          their window laws), near zero when it attains it *)
  max_sim_dev_mbps : float option;
      (** worst per-path [|fluid - sim|], when a run was done *)
  lp_feasible : bool;
      (** fluid goodputs satisfy every capacity constraint (1% slack) *)
}

val model_of_spec : Core.Scenario.spec -> (Fluid.Model.t, string) result
(** Compiles the spec's topology, paths and controller.  [Error] names
    the algorithm when it has no fluid counterpart (BALIA, EWTCP,
    wVegas).  The model takes the MSS from [spec.sender_config], the
    buffer from [spec.net_config] and {!Fluid.Model.default_config} for
    the rest. *)

val equilibrium : ?tol:float -> Core.Scenario.spec -> (t, string) result
(** Fluid-vs-LP only ([sim_mbps = None] everywhere); microseconds. *)

val against_sim : ?tol:float -> Core.Scenario.spec -> (t, string) result
(** {!equilibrium} plus a full packet-level {!Core.Scenario.run} of the
    same spec, with per-path deviations filled in.  Costs a simulation. *)

val sweep : ?jobs:int -> Core.Scenario.spec list -> (t, string) result list
(** Batched {!equilibrium} (default tolerance) over {!Engine.Pool.map} — results are in
    input order and bit-identical for every [jobs] value (each job
    compiles its own model, so no scratch state is shared across
    domains). *)

val pp : Format.formatter -> t -> unit
(** Table of per-path fluid/LP/sim rates with the totals, gaps and the
    convergence diagnostics — the [fluid --validate] report. *)
