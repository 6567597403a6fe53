(** TCP receiver (one subflow).

    Cumulative ACKs with out-of-order buffering: every arriving data
    segment triggers an immediate ACK carrying [rcv_nxt] (duplicate ACKs
    are what drive the sender's fast retransmit).  In-order payload is
    handed, with its DSS mapping, to the connection layer for
    data-sequence reassembly.

    Out-of-order segments wait in sorted parallel int arrays (seq, len,
    and the DSS as two ints and a flag) with binary-search insertion; a
    later segment at the same seq replaces the earlier one.  Each is
    delivered whole, with its original (seq, len, DSS), once [rcv_nxt]
    reaches its seq.  SACK blocks are built in one pass over the
    arrays. *)

type t

val create :
  sched:Engine.Sched.t ->
  conn:int ->
  subflow:int ->
  addr:Packet.addr ->       (* this receiver's node *)
  peer:Packet.addr ->
  tag:Packet.tag ->
  fresh_id:(unit -> int) ->
  transmit:(Packet.t -> unit) ->
  ?pool:Packet.Pool.t ->
  on_deliver:(seq:int -> len:int -> dss:Packet.dss option -> unit) ->
  data_ack:(unit -> int) ->
  ?delayed_ack:bool ->
  unit -> t
(** [on_deliver] fires once per segment, in subflow-sequence order;
    [data_ack ()] supplies the connection-level cumulative ACK stamped on
    every outgoing ACK.

    With [delayed_ack] (default [false]: one ACK per segment, the
    simulator's calibrated behaviour), in-order segments are acknowledged
    every second segment or after 40 ms (the Linux quick-ack
    ballpark), whichever comes first; out-of-order and
    duplicate segments are always acknowledged immediately, as fast
    retransmit requires (RFC 5681 section 4.2). *)

val acks_sent : t -> int

val handle_data : t -> Packet.t -> unit

val rcv_nxt : t -> int
val out_of_order : t -> int
(** Segments currently buffered out of order. *)

val duplicates : t -> int

val delivered : t -> int
(** Segments handed to [on_deliver] so far, one per {!tap} event. *)

type event = Delivered of { seq : int; len : int }
    (** a segment was handed to [on_deliver]; by construction
        [seq <= old rcv_nxt < seq + len] and the new [rcv_nxt] is
        [seq + len] *)

val tap : t -> event Engine.Tap.t
(** In-order deliveries for the audit and observability subsystems,
    emitted after [rcv_nxt] has been advanced.  Without subscribers an
    emit site pays one length test and builds no event. *)
