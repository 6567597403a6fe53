(** "Table 1": the paper's prose findings as a measured table.

    The paper reports (Section 3, prose only):
    - CUBIC always reached the optimum, with transient instability;
    - LIA never reached the optimum;
    - OLIA reached it only when Path 2 was the default, and slowly
      (~20 s).

    {!sweep} measures exactly that grid — congestion control x default
    path x seed — and condenses each cell into convergence statistics. *)

type row = {
  cc : Mptcp.Algorithm.t;
  default_path : int;
  seeds : int;
  reached : int;            (** runs that sustainedly reached the optimum *)
  mean_time_to_opt_s : float;  (** over the runs that reached; nan if none *)
  mean_tail_mbps : float;   (** mean total rate over each run's last quarter *)
  tail_std_mbps : float;    (** spread of that tail mean across seeds *)
  mean_dips : float;        (** instability: drops below target after reaching *)
  tail_cv : float;          (** coefficient of variation of the tail *)
}

val sweep :
  ?ccs:Mptcp.Algorithm.t list ->
  ?defaults:int list ->
  ?seeds:int list ->
  ?duration:Engine.Time.t ->
  ?jobs:int ->
  unit -> row list
(** Defaults: the paper's three algorithms (plus BALIA, EWTCP and
    wVegas), defaults 1-3, seeds 1-3, 20 s runs, 5% tolerance.  The
    grid's individual (cc, default, seed) runs execute on [?jobs]
    domains (default {!Engine.Pool.default_domains}); rows are identical for
    every [?jobs] value. *)

val pp_table : Format.formatter -> row list -> unit
val to_csv : row list -> string
