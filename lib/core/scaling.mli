(** Extension experiment: how the optimization problem scales.

    The paper's intro asks "how complicated the underlying optimization
    problem MPTCP may face" can get; this experiment generalises its
    construction to [n] pairwise-overlapping paths
    ({!Netgraph.Generate.pairwise_overlap}) and measures, per congestion
    controller, what fraction of the LP optimum MPTCP actually achieves
    as the number of coupled paths grows. *)

type row = {
  n : int;
  cc : Mptcp.Algorithm.t;
  optimal_mbps : float;
  achieved_mbps : float;      (** tail mean of total wire throughput *)
  ratio : float;              (** achieved / optimal *)
  time_to_opt_s : float option;
}

val sweep :
  ?ns:int list ->
  ?ccs:Mptcp.Algorithm.t list ->
  ?duration:Engine.Time.t ->
  ?jobs:int ->
  unit -> row list
(** Defaults: n in 2..5, {CUBIC, LIA, OLIA}, 15 s runs, seed 1.
    Capacities follow {!Netgraph.Generate.spread_caps} (base 30, step 5
    Mbps) so every pair has a distinct bottleneck.  Each (n, cc) run is
    an independent job executed on [?jobs] domains; rows are identical
    for every [?jobs] value. *)

val pp_table : Format.formatter -> row list -> unit
val to_csv : row list -> string
