(** Experiment files: a {!Scenario.spec} as data.

    Pairs a topology file ({!Events.Parse.topology} format) with an
    experiment file naming the paths, congestion control, transfer size
    and timed events — the [mptcp_sim run -t topo.sexp -x xp.sexp]
    entry point, so dynamic scenarios live in version-controlled data
    files rather than OCaml code:

    {v
    (experiment
     (cc lia)
     (scheduler min-rtt)
     (duration-s 12)
     (total-mb 8)
     (rto-cap 2)
     (paths (a p1 z) (a p2 z))
     (events
      (at-s 3.6 (link-down a p1))))
    v}

    Every field except [paths] is optional; defaults match
    {!Scenario.make}.  Paths are node-name sequences, tagged 1, 2, ...
    in file order (the first is the default subflow). *)

val load : topo_file:string -> xp_file:string -> Netgraph.Topology.t * Scenario.spec
(** Load both files.  Raises {!Events.Sexp.Parse_error} on malformed
    input and [Invalid_argument] when the event list fails
    validation. *)
