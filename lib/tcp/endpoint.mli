(** Per-node packet demultiplexer.

    One endpoint owns a node's host attachment in {!Netsim.Net} and
    dispatches arriving TCP packets to registered (connection, subflow)
    handlers — the role of the kernel's socket lookup.  Non-TCP
    (cross-traffic) packets are dropped on arrival. *)

type t

val create : Netsim.Net.t -> node:int -> t
(** Attaches to the node; raises if the node already has a host. *)

val node : t -> int
val net : t -> Netsim.Net.t

val register :
  t -> conn:int -> subflow:int -> (Packet.t -> unit) -> unit
(** Raises [Invalid_argument] on duplicate registration. *)

val unmatched : t -> int
(** TCP packets that found no registered handler. *)
