(** TCP Reno congestion control (RFC 5681).

    The uncoupled single-path baseline: +1 MSS per RTT in congestion
    avoidance, halve on loss.  Also the substrate whose "asynchronous
    sawtooth" behaviour the paper credits for CUBIC's ability to find the
    optimum. *)

val factory : Cc.factory
