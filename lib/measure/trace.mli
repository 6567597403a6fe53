(** Packet-level tracing — the simulator's [tcpdump -w] / text capture.

    Where {!Capture} records just enough for throughput sampling, a trace
    keeps the full packet summaries at chosen observation points, for
    debugging transports and for the CLI's [--packet-trace] output.  Events can
    be filtered at attach time to bound memory. *)

type event = {
  time : Engine.Time.t;
  node : int;       (** where the packet was observed *)
  packet : Packet.t;
}

type t

val attach :
  Netsim.Net.t -> nodes:int list -> ?keep:(Packet.t -> bool)
  -> ?limit:int -> unit -> t
(** Observe every packet arriving at each of [nodes].  [keep] filters
    (default: keep all); recording stops after [limit] events (default
    100_000) so a runaway trace cannot exhaust memory, and later events
    are only counted ({!dropped}). *)

val conn_filter : int -> Packet.t -> bool
(** Keep only packets of the given MPTCP/TCP connection. *)

val events : t -> event array
val count : t -> int
val dropped : t -> int
(** Events discarded because [limit] was reached. *)

val to_text : Netsim.Net.t -> t -> string
(** tcpdump-flavoured rendering, one line per recorded event:
    [time node: packet], then [... (N more events)] when N
    = {!dropped} > 0. *)
