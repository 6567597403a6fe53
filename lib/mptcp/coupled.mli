(** Shared arithmetic for coupled congestion controllers.

    All quantities are in MSS units (windows) and seconds (RTTs), the
    conventions of RFC 6356 and the OLIA/BALIA papers.  Every sum and
    max runs over the "active" slots of the connection's flat
    {!Tcp.Cc.group}: subflows that have not yet sent anything are
    excluded (they would otherwise contribute a bogus initial window to
    the coupling sums), falling back to every slot when none is
    established yet (connection start-up).  The folds iterate the
    group's unboxed float arrays directly — nothing is filtered,
    copied or boxed per ACK. *)

val active_count : Tcp.Cc.group -> int
(** Number of participating slots, O(1). *)

val rate_sum : Tcp.Cc.group -> float
(** [Σ_p w_p / rtt_p]. *)

val max_rate2 : Tcp.Cc.group -> float
(** [max_p w_p / rtt_p²]. *)

val max_rate : Tcp.Cc.group -> float
(** [max_p w_p / rtt_p]. *)

val total_cwnd : Tcp.Cc.group -> float

val halve_on_loss : Tcp.Cc.ctx -> unit
(** The standard multiplicative decrease shared by LIA/OLIA/EWTCP:
    [ssthresh = cwnd/2] (floored at {!Cc.min_cwnd}), [cwnd = ssthresh]. *)

val collapse_on_rto : Tcp.Cc.ctx -> unit
(** [ssthresh = cwnd/2], [cwnd = 1]. *)
