(** Path management: which routes a connection gets, and their tags.

    Mirrors the paper's modified [ndiffports] path manager: the operator
    (or an algorithm such as Yen's) supplies a list of paths; each is
    assigned a distinct tag, and one subflow per tag is created.  The
    first path in the list is the {e default} path — the one the
    connection is established on (the paper's experiments hinge on which
    path plays this role). *)

type t = (Packet.tag * Netgraph.Path.t) list

val tag_paths : Netgraph.Path.t list -> t
(** Assign consecutive tags from 1 in list order. *)

val ndiffports :
  Netgraph.Topology.t -> src:int -> dst:int -> subflows:int
  -> ?weight:Netgraph.Shortest.weight -> unit -> t
(** The k-shortest-paths analogue of [ndiffports]: take the [subflows]
    shortest simple paths (by [weight], default propagation delay) and
    tag them.  The shortest path comes first, i.e. is the default —
    matching "Path 2 as default shortest path" in the paper. *)

val fullmesh : Netgraph.Topology.t -> src:int -> dst:int -> t
(** The kernel's [fullmesh] path manager for multihomed hosts.  In this
    model a host's "addresses" are its access links, so fullmesh tries
    one subflow per (source access link, destination access link) pair:
    the shortest (by propagation delay) path forced to leave [src] through the one link and
    enter [dst] through the other.  Pairs with no such route are
    skipped; duplicate paths are kept once; the shortest surviving path
    comes first (the default subflow).  Raises [Invalid_argument] when
    [src = dst]. *)

val with_default : t -> default_tag:Packet.tag -> t
(** Reorder so the path carrying [default_tag] is first.  Raises
    [Not_found] when no path has that tag. *)

val install : Netsim.Net.t -> t -> unit
(** Install forward and reverse routes for every tagged path. *)

(** Runtime path liveness: which of a connection's tagged paths are
    currently usable.  The path list itself stays immutable data; this
    overlay records per-tag active flags that {!Mptcp.Connection}
    consults when granting data, flipped either by its own RTO-cap
    detector or externally by the event layer. *)
module Liveness : sig
  type t

  val create : (Packet.tag * Netgraph.Path.t) list -> t
  (** Every tagged path starts active. *)

  val is_active : t -> tag:Packet.tag -> bool
  (** Raises [Invalid_argument] on a tag not in the path list. *)

  val active_count : t -> int

  val deactivate : t -> tag:Packet.tag -> bool
  (** Mark the path dead; returns [true] on an actual transition
      (idempotent otherwise, firing no callback and counting no churn). *)

  val reactivate : t -> tag:Packet.tag -> bool
  (** Mark the path usable again; same transition semantics. *)

  val churn : t -> int
  (** Number of state transitions so far (both directions). *)

  val set_on_change : t -> (tag:Packet.tag -> active:bool -> unit) option -> unit
  (** Callback fired once per actual transition, after the flag flips. *)
end
