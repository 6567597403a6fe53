(** Receiver-side packet capture — the simulator's tshark.

    The paper "captured the data stream by tshark at the destination
    node, then filtered the captured packets based on the tags" and read
    the capture in 10 ms and 100 ms bins.  A capture taps one node and,
    as each TCP data packet of one connection arrives — retransmissions
    included, as a wire capture would — adds its wire bytes to its tag's
    bin and to a total bin.  The bins are the windows of one sampling
    period over one horizon, both fixed when the capture starts, so its
    memory does not grow with the number of packets and it is read at
    that one resolution. *)

type t

val attach :
  Netsim.Net.t -> node:int -> conn:int -> window:Engine.Time.t
  -> until:Engine.Time.t -> t
(** Start capturing the data packets of connection [conn] that arrive at
    [node], binned by [window] over [\[0, until)].  Raises
    [Invalid_argument] when the window is not positive. *)

val create : window:Engine.Time.t -> until:Engine.Time.t -> t
(** Detached capture for feeding packets manually (tests); raises like
    {!attach}. *)

val record : t -> time:Engine.Time.t -> tag:Packet.tag -> bytes:int -> unit
(** Count one packet of [bytes] wire bytes arriving at [time].  There
    are [max 1 (ceil (until / window))] bins; a packet at [time < until]
    adds to bin [time / window], and a later one to no bin, though its
    tag is still listed by {!per_tag}. *)

val per_tag : t -> (Packet.tag * Series.t) list * Series.t
(** Wire throughput in Mbps per window: one series per tag seen
    (ascending) plus the total — the four curves of the paper's Fig. 2
    panels.  The total is binned on its own, not summed from the
    per-tag series. *)
