(** Single-path TCP flow: a sender and receiver pair wired over the
    simulated network.

    The iperf of this repository's plain-TCP experiments, and the unit
    under test for validating the transport substrate (a lone flow should
    fill its bottleneck link; competing flows should share it). *)

type t

val start :
  src:Endpoint.t ->
  dst:Endpoint.t ->
  tag:Packet.tag ->
  conn:int ->
  ?config:Sender.config ->
  ?cc:Cc.factory ->
  ?delayed_ack:bool ->
  ?total_bytes:int ->
  unit -> t
(** Starts the transfer at time zero.  The route [tag] must already be
    installed in the network (see {!Netsim.Net.install_path}).  [cc] defaults to {!Cc_cubic.factory};
    omitting [total_bytes] gives an unbounded bulk transfer. *)

val sender : t -> Sender.t
val bytes_delivered : t -> int
(** In-order bytes handed to the receiving application. *)

val completed_at : t -> Engine.Time.t option
(** Time the last byte of a bounded transfer was delivered. *)

val goodput_bps : t -> now:Engine.Time.t -> float
