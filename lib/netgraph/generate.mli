(** Topology generators.

    {!pairwise_overlap} generalises the paper's Fig. 1 construction from
    3 paths to [n]: a source, a destination, and one bottleneck link per
    unordered pair of paths, so that paths [i] and [j] share {e exactly}
    that link and nothing else.  The throughput LP then has the same
    "every pair couples" structure whose dimension the paper's intro
    worries about — letting the benchmarks study how each MPTCP
    congestion controller scales with the number of coupled paths.

    {!dumbbell} and {!parking_lot} are the standard fairness topologies
    used by the test-suite and the examples. *)

val pairwise_overlap :
  n:int -> cap_bps:(int -> int -> int) -> Topology.t * Path.t list
(** [pairwise_overlap ~n ~cap_bps] builds the network and its [n]
    paths (in index order, all from node ["s"] to node ["d"]), every
    link with 1 ms propagation delay.  [cap_bps i j] (called with
    [i < j], 0-based) is the bottleneck capacity shared by paths [i] and
    [j]; connectors (1 Gbps) are private to a single path by
    construction, so the extracted constraint system is exactly
    [x_i + x_j <= cap i j].  Raises [Invalid_argument] when [n < 2]. *)

val paper_caps : int -> int -> int
(** The paper's capacities for [n = 3]: pairs (0,1) -> 40, (0,2) -> 60,
    (1,2) -> 80 Mbps. *)

val spread_caps : base_mbps:int -> step_mbps:int -> int -> int -> int
(** [spread_caps ~base_mbps ~step_mbps i j] is
    [base + step * (i + j)] Mbps — a deterministic ramp giving every
    pair a distinct bottleneck, used by the scaling benchmark. *)

val dumbbell : flows:int -> bottleneck_bps:int -> Topology.t * Path.t list
(** [flows] sender/receiver pairs sharing one bottleneck, behind 1 Gbps
    access links, every link with 2 ms propagation delay; returns the
    per-flow paths [a_i > l > r > z_i]. *)

val parking_lot :
  hops:int -> cap_bps:int -> Topology.t * Path.t * Path.t list
(** A chain of [hops] equal links, every link with 2 ms propagation
    delay: returns the end-to-end path and one
    single-hop cross path per link (each with its own endpoints) — the
    classic topology where an end-to-end flow competes with [hops]
    one-hop flows. *)
