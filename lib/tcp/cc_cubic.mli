(** CUBIC congestion control (RFC 8312).

    Linux's default, and the algorithm the paper found to always reach
    the 90 Mbps optimum: each subflow runs an independent CUBIC, and the
    asynchrony of their sawtooths performs the gradient search.

    Parameters: C = 0.4, beta = 0.7, fast convergence on, and the
    TCP-friendly (Reno-equivalent) floor of RFC 8312 section 4.2. *)

val factory : Cc.factory
