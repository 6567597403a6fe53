(** Fluid (mean-field) window dynamics of the congestion controllers.

    Each packet-level law in [lib/tcp]/[lib/mptcp] acts per ACK and per
    loss; its fluid counterpart is the expected drift of the window when
    ACKs arrive at rate [x (1 - p)] and loss events at rate [x p], with
    [x = w / rtt] the subflow's sending rate in packets per second —
    the framework of Peng et al. (arXiv:1308.3119) instantiated with the
    per-algorithm increase laws catalogued by Kimura & Loureiro
    (arXiv:1812.03210), matched term for term to this repository's
    packet implementations:

    - {e Reno} ({!Tcp.Cc_reno}): [dw = x(1-p)/w - x p w/2].
    - {e LIA} ({!Mptcp.Cc_lia}, RFC 6356): the per-ACK increase
      [min(alpha / w_total, 1/w)] with
      [alpha = w_total * max_k (w_k / rtt_k^2) / (sum_k w_k / rtt_k)^2];
      halving on loss.
    - {e OLIA} ({!Mptcp.Cc_olia}): per-ACK increase
      [(w / rtt^2) / (sum_k w_k / rtt_k)^2 + alpha_i / w] where the
      [alpha_i] redistribute between the best-loss paths (the paper's
      [l_p^2 / rtt_p] quality, with loss interval [l_p ~ 1/p]) and the
      max-window paths; halving on loss.  The packet law's hard set
      memberships are smoothed over a relative band — the exact
      indicators are discontinuous precisely at the quality ties OLIA
      converges to, which would leave the fluid field chattering.
    - {e CUBIC} ({!Tcp.Cc_cubic}, RFC 8312): a hybrid fluid model with
      two extra states per subflow — the epoch age [s] (time since the
      last loss, [ds = 1 - x p s]) and the pre-loss plateau [w_max]
      ([dw_max = x p (w - w_max)]).  Between losses the window follows
      the cubic curve, [dw = 3 C (s - K)^2] with
      [K = cbrt(w_max (1 - beta) / C)], floored at the Reno-friendly
      growth rate of RFC 8312 section 4.2 and capped at half a window
      per RTT (the packet law's [1.5 * cwnd] target clamp); losses
      remove [(1 - beta) w] per event.

    All controllers are projected onto [w >= min_cwnd] (2 MSS) by the
    model, mirroring {!Tcp.Cc.min_cwnd}. *)

type kind = Reno | Cubic | Lia | Olia

val name : kind -> string

val of_string : string -> kind option

val of_algorithm : Mptcp.Algorithm.t -> kind option
(** The fluid counterpart of a packet-level algorithm, or [None] for the
    algorithms without a fluid model yet (BALIA, EWTCP, wVegas). *)

val to_algorithm : kind -> Mptcp.Algorithm.t
(** The packet-level algorithm a fluid model is validated against. *)

val extra_dim : kind -> int
(** Number of auxiliary ODE states per subflow (0 except CUBIC's 2). *)

(** Read-only snapshot of every subflow, the fluid analogue of
    {!Tcp.Cc.group}: filled in by {!Model.deriv} before the window
    laws run.  Arrays are indexed by subflow. *)
type view = {
  n : int;
  w : float array;     (** windows, MSS units *)
  rtt : float array;   (** round-trip times including queueing, seconds *)
  rate : float array;  (** [w /. rtt], packets per second *)
  loss : float array;  (** end-to-end loss probability per path *)
}

val dwindows :
  kind -> view -> extras:float array -> dextras:float array
  -> k_memo:float array -> out:float array -> unit
(** [dwindows kind v ~extras ~dextras ~k_memo ~out] writes [dw_i/dt]
    (MSS per second) for every subflow into [out], reading and
    differentiating the controller's auxiliary states in
    [extras]/[dextras] (laid out as [extra_dim kind] consecutive slots
    per subflow).  Batched so the coupled laws compute their shared
    rate sums and argmax sets once per call instead of once per
    subflow.  [k_memo] is CUBIC's scratch, [extra_dim kind] slots per
    subflow kept between calls: the last [cbrt] argument of its [K] and
    the result, so a call whose [w_max] did not move skips the [cbrt].
    Fill it with [nan] (equal to no argument) before the first call.
    Pure float arithmetic; does not allocate. *)

val dwindows_single :
  kind -> idx:int array -> w:float array -> rtt:float array
  -> rate:float array -> loss:float array -> extras:float array
  -> extras_off:int -> dextras:float array -> out:float array -> unit
(** The [n = 1] specialization of {!dwindows}, applied independently to
    each index in [idx]: no coupling between entries, so thousands of
    single-path background classes evaluate in one array pass
    ({!Background} is the caller).  [w]/[rtt]/[rate]/[loss]/[out] are
    indexed by the {e entries} of [idx]; CUBIC's auxiliary states live
    compactly at [extras_off + 2j] and [extras_off + 2j + 1] for
    {e position} [j] in [idx] (the same slots of [dextras] receive their
    derivatives; both untouched for the other kinds).  For a
    single-subflow connection LIA's coupled increase and OLIA's
    redistribution both collapse to Reno's [1/w] exactly, so those
    kinds share the Reno law — a degeneration, not an approximation.
    Pure float arithmetic; does not allocate. *)

val init_extras : kind -> n:int -> float array
(** Auxiliary-state vector for an [n]-subflow connection at start of
    day (CUBIC epochs open at age 0 with no recorded plateau). *)

val seed_extras :
  kind -> w:float array -> loss_rate:(int -> float) -> float array
(** Auxiliary states consistent with an equilibrium guess at windows
    [w] whose subflows see loss events at [loss_rate i] per second
    (CUBIC plateaus at [w] with the epoch age pinned at the mean loss
    interval, or where cubic growth vanishes when lossless) — used by
    {!Model.warm_start}. *)
