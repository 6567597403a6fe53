(** From a path set to the paper's throughput LP (Fig. 1c).

    Every link carried by at least one path contributes one inequality
    [sum over paths using it of x_p <= capacity]; maximizing
    [sum of x_p] over that polytope is exactly the optimization problem
    the paper argues MPTCP's congestion control is implicitly solving. *)

type system = {
  paths : Path.t array;
  link_rows : int array;  (** [link_rows.(i)] is the link id of row [i] *)
  a : float array array;  (** 0/1 incidence matrix, rows = links *)
  b : float array;        (** capacities in bits per second *)
}

val extract : Topology.t -> Path.t list -> system
(** Raises [Invalid_argument] on an empty path list. *)

(** One capacity constraint exceeded by a rate vector. *)
type violation = {
  row : int;           (** row index into {!system} *)
  link_id : int;       (** topology link id of that row *)
  load_bps : float;    (** offered load summed over the row's paths *)
  cap_bps : float;     (** the row's capacity *)
}

val violations :
  ?slack_frac:float -> ?slack_abs:float -> system -> x:float array
  -> violation list
(** Capacity rows that [x] (bits per second per path, in {!system} path
    order) overloads by more than [max (cap * slack_frac) slack_abs]
    (both default 0).  This single checker backs the audit's
    lp.feasibility invariant and the fluid validator, so "feasible"
    means the same thing everywhere.  Raises [Invalid_argument] when
    [x] has the wrong length. *)

val feasible : ?slack_frac:float -> system -> x:float array -> bool
(** [violations = []]. *)

type optimum = {
  total_bps : float;
  per_path_bps : float array;
  bottlenecks : (int * float) list;
      (** (link id, shadow price) for every binding constraint — the
          links whose extra capacity would raise total throughput. *)
}

val optimum : Topology.t -> Path.t list -> optimum
(** Solves the LP.  The polytope is always feasible (x = 0) and bounded
    (capacities are finite), so a solution exists. *)

val greedy_from : Topology.t -> Path.t list -> order:int list -> float array
(** The rate vector reached by greedily filling paths one at a time in
    [order] (each path takes all residual capacity along its links).
    This models "increase each subflow independently until its own
    bottleneck" — the suboptimal Pareto point the paper contrasts with
    the LP optimum.  [order] must be a permutation of path indices. *)

val pp_system : Topology.t -> Format.formatter -> system -> unit
