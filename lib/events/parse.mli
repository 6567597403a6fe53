(** Readers for the S-expression scenario file formats.

    Topology files describe the static network:
    {v
    (topology
     (nodes a p1 p2 z)
     (links
      (a p1 (mbps 10) (delay-ms 5))
      (p1 z  (mbps 10) (delay-ms 5))))
    v}

    Event forms give a fire time and an action, with links referenced by
    their endpoint node names:
    {v
    (at-s 3.6 (link-down a p1))
    (at-s 2   (capacity-ramp a p2 (mbps 40) (over-s 2) (steps 8)))
    (at-s 1   (traffic-start n1 z (tag 9) (mbps 20) (stop-s 8)))
    v}

    All parse errors raise {!Sexp.Parse_error} with a description of the
    offending form.  The experiment-file format that wraps these (paths,
    congestion control, events) lives in [Core.Expfile], which owns the
    scenario dependency. *)

val topology : Sexp.t list -> Netgraph.Topology.t
val load_topology : string -> Netgraph.Topology.t

val events : Netgraph.Topology.t -> Sexp.t list -> Event.t list
(** One {!Event.t} per form. *)

val rate_exn : Sexp.t -> int
(** [(mbps X)] or [(bps N)], in bits per second. *)

val duration_exn : Sexp.t -> Engine.Time.t
(** [(ms X)], [(us X)] or [(s X)]. *)

val time_of_s : float -> Engine.Time.t
(** Seconds to simulation time; rejects negatives and non-finite. *)
