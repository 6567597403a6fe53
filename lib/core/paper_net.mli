(** The paper's model network (Fig. 1a) and its three overlapping paths
    (Fig. 1b).

    Six nodes [s, v1, v2, v3, v4, d].  Default link capacity 100 Mbps;
    the three special links realise the pairwise bottlenecks:

    - [s -- v1] at 40 Mbps, shared by Paths 1 and 2;
    - [v2 -- v3] at 60 Mbps, shared by Paths 1 and 3;
    - [v4 -- d] at 80 Mbps, shared by Paths 2 and 3.

    Paths:
    - Path 1: [s > v1 > v2 > v3 > d]  (4 hops)
    - Path 2: [s > v1 > v4 > d]       (3 hops — the default shortest path)
    - Path 3: [s > v2 > v3 > v4 > d]  (4 hops)

    The resulting LP ([x1+x2 <= 40], [x1+x3 <= 60], [x2+x3 <= 80]) has
    optimum 90 Mbps at [(10, 30, 50)] — see DESIGN.md for how the paper's
    (internally inconsistent) constraint labels were resolved. *)

val topology : unit -> Netgraph.Topology.t
(** A fresh copy of the network; every link has 1 ms propagation delay
    (except [v1 -- v4], which gets half that so Path 2 is strictly the
    shortest-RTT route, the paper's "default shortest path"). *)

val paths : Netgraph.Topology.t -> Netgraph.Path.t list
(** [Path 1; Path 2; Path 3] on a topology built by {!topology}. *)

val tagged_paths :
  ?default:int -> Netgraph.Topology.t -> Mptcp.Path_manager.t
(** Tags are the path numbers (1, 2, 3).  [default] (1, 2 or 3 — default
    2, as in the paper's measurements) selects which path is the default
    subflow, i.e. comes first.  Raises [Invalid_argument] otherwise. *)

val optimum : unit -> Netgraph.Constraints.optimum
(** The LP optimum: 90 Mbps total at (10, 30, 50). *)

val optimal_total_mbps : float
(** 90.0 — kept as a constant for tests and benchmark labels. *)

val greedy_total_mbps : default:int -> float
(** Total rate of the "fill each path independently, default first"
    Pareto point the paper describes (80 Mbps when starting from
    Path 2). *)
