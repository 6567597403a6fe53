(** wVegas — weighted Vegas, the delay-based coupled congestion control
    for MPTCP (Cao, Xu, Fu: "Delay-based congestion control for MPTCP",
    ICNP 2012).

    Instead of reacting to loss, each subflow measures the backlog it
    keeps in the network, [diff = cwnd * (1 - base_rtt / rtt)] packets,
    and steers it towards a per-path quota [alpha_r].  The coupling is in
    the quotas: a global budget of 10 packets is split between
    paths in proportion to their rates, so faster paths may queue more —
    traffic consequently migrates towards less congested paths without
    inducing losses.

    This implementation is a faithful simplification: smoothed RTTs stand
    in for per-packet timestamps, adjustments happen once per RTT, and
    slow start exits as soon as a backlog builds (Vegas' gamma test).
    Included as an extension for the algorithm sweep — the paper itself
    measures only loss-based algorithms. *)

val factory : Tcp.Cc.factory
