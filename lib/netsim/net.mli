(** The simulated network: topology + per-direction link queues +
    tag-based forwarding — the role Mininet played in the paper.

    Forwarding is deterministic on [(destination, tag)], the tagging
    scheme of the paper's modified [ndiffports] path manager: routes are
    pre-installed per tag with {!install_path}, and every packet of a
    subflow carries that subflow's tag. *)

type dir = Fwd | Rev
(** [Fwd] is the [u -> v] orientation of a {!Netgraph.Topology.link}. *)

type config = {
  qdisc : Qdisc.t;
  limit_pkts : int;  (** buffer size per link direction, in packets *)
  delay_jitter : Engine.Time.t;
      (** extra uniform per-packet propagation jitter on every link
          direction (0 = exact timing; can reorder packets) *)
}

val default_config : config
(** Drop-tail, 40-packet buffers (about one bandwidth-delay product for
    the paper's 100 Mbps / few-ms network). *)

type t

val create :
  sched:Engine.Sched.t -> rng:Engine.Rng.t -> ?config:config
  -> Netgraph.Topology.t -> t

val sched : t -> Engine.Sched.t
val topology : t -> Netgraph.Topology.t

val pool : t -> Packet.Pool.t
(** The network's packet freelist.  Every packet that terminates inside
    the network — host delivery, qdisc drop, link-down loss, no-route —
    is handed back here exactly once, so senders that allocate through
    this pool run allocation-flat at steady state.  Host handlers (and
    tap subscribers) must not retain a packet past their return; copy
    with {!Packet.copy} if longer retention is needed. *)

val fresh_packet_id : t -> int
(** Allocates a unique wire id for a new packet. *)

val packets_created : t -> int
(** Total wire ids handed out so far — the denominator for
    allocations-per-packet accounting. *)

(** {1 Routing}

    Each node has one route table, an {!Engine.Int_table} keyed by
    [(dst, tag)] packed into one int.  Its value is resolved when the
    route is installed: the outgoing link direction's queue, whose
    index also encodes the link id that {!route} reports.  A hop is
    therefore one allocation-free lookup and one array read — no
    polymorphic hash, no option, no topology query. *)

val install_route :
  t -> node:int -> dst:Packet.addr -> tag:Packet.tag -> link:int -> unit
(** At [node], packets for [dst] carrying [tag] exit via [link].  Raises
    [Invalid_argument] when [node] is not an endpoint of [link].
    Re-installation overwrites, and the table grows as needed. *)

val install_path : t -> tag:Packet.tag -> Netgraph.Path.t -> unit
(** Installs forwarding for the path's destination at every node along
    the path, {e and} the reverse route (towards the path's source, same
    tag) so acknowledgements retrace the same links. *)

val route : t -> node:int -> dst:Packet.addr -> tag:Packet.tag -> int option
(** The installed outgoing link, if any — read from the same table that
    forwarding uses. *)

(** {1 Hosts and taps} *)

val attach_host : t -> node:int -> (Packet.t -> unit) -> unit
(** Handler for packets addressed to [node].  One host per node; raises
    [Invalid_argument] on double attachment. *)

(** The network's observation points are per-node {!Engine.Tap}s whose
    event is the packet itself: the node is implied by which tap fires,
    so emitting allocates nothing, and a node without subscribers pays
    one length test per packet.  Together with {!Linkq.tap} on every
    queue they account for every packet's fate — the audit builds its
    conservation ledger on them. *)

val arrival_tap : t -> node:int -> Packet.t Engine.Tap.t
(** Every packet arriving at [node], whether delivered locally or
    forwarded on — the simulator's tshark.  An arrival with
    [p.dst = node] is a host delivery: once the subscribers return, the
    packet goes to the host handler, if one is attached, and leaves the
    network. *)

val inject_tap : t -> node:int -> Packet.t Engine.Tap.t
(** Every fresh packet a host hands to the network at [node] (see
    {!inject}), before it is routed. *)

val no_route_tap : t -> node:int -> Packet.t Engine.Tap.t
(** Every packet discarded at [node] for lack of a route. *)

(** {1 Sending} *)

val inject : t -> at:int -> Packet.t -> unit
(** Hands a packet to the network at node [at].  Without a route it is
    counted in {!no_route_drops} and discarded. *)

(** {1 Introspection} *)

val linkq : t -> link:int -> dir:dir -> Linkq.t

val iter_linkqs : t -> (link:int -> dir:dir -> Linkq.t -> unit) -> unit
(** Applies [f] to both directions of every link. *)

val set_link_up : t -> link:int -> bool -> unit
(** Fail or restore both directions of a link (see {!Linkq.set_up}). *)

val link_is_up : t -> link:int -> bool

val set_link_rate : t -> link:int -> int -> unit
(** Re-rate both directions of a live link (see {!Linkq.set_rate}) —
    a capacity ramp or a handover to a slower radio. *)

val set_link_delay : t -> link:int -> Engine.Time.t -> unit
(** Change both directions' propagation delay (see {!Linkq.set_delay}). *)

val set_link_loss : t -> link:int -> float -> unit
(** Set both directions' random loss probability (see {!Linkq.set_loss}). *)

val no_route_drops : t -> int

val total_drops : t -> int
(** Queue drops summed over every link direction. *)
