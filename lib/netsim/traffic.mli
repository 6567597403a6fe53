(** Cross-traffic generators.

    The paper's network carries only the MPTCP flow, but the examples and
    ablations add background load to show how the optimum shifts when the
    model network is embedded "in the wild".  Both sources emit [Plain]
    packets (they do not react to loss), acquired from the net's
    {!Net.pool}, which recycles each one at its terminal fate. *)

type t

val stop : t -> unit
val packets_sent : t -> int
val bytes_sent : t -> int

val cbr :
  net:Net.t -> src:int -> dst:int -> tag:Packet.tag -> rate_bps:int
  -> ?pkt_bytes:int -> ?start:Engine.Time.t -> ?stop_at:Engine.Time.t
  -> unit -> t
(** Constant bit rate: one [pkt_bytes] packet (default 1500) every
    [pkt_bytes * 8 / rate_bps] seconds, from [start] (default 0) until
    [stop_at] (default: forever). *)

val on_off :
  net:Net.t -> rng:Engine.Rng.t -> src:int -> dst:int -> tag:Packet.tag
  -> rate_bps:int -> mean_on:Engine.Time.t -> mean_off:Engine.Time.t
  -> ?stop_at:Engine.Time.t -> unit -> t
(** Exponential on/off source of 1500-byte packets, starting at time
    zero: bursts at [rate_bps] for an exponentially-distributed
    on-period, then stays silent for an exponentially-distributed
    off-period. *)
