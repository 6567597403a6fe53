(** Pluggable congestion control.

    A congestion controller owns the window variables of one subflow; the
    sender machine calls it on every cumulative ACK, fast-retransmit loss
    and timeout.  Coupled (MPTCP) controllers additionally read the live
    state of their sibling subflows through {!ctx.group} — that coupling
    is exactly what distinguishes LIA/OLIA from running plain CUBIC per
    path, the comparison at the heart of the paper. *)

(** Flat, mutable view of every subflow of one connection: parallel
    unboxed float arrays, one slot per subflow, refreshed in place by
    the owning senders ([Tcp.Sender.sync_group_slot]) rather than
    re-snapshotted into records per ACK.  The established count is
    maintained incrementally so the controllers' "active set" test is
    O(1). *)
type group = {
  n : int;  (** subflows in the owning connection (array length) *)
  cwnds : float array;  (** congestion windows, MSS units *)
  srtts : float array;  (** smoothed RTTs, seconds (estimate before data) *)
  loss_intervals : float array;
      (** OLIA's l_p: bytes acknowledged in the current inter-loss
          interval, or in the previous one if that was larger *)
  established : bool array;
      (** has the slot's subflow sent at least one segment *)
  mutable n_established : int;
      (** number of [true] slots in [established] — update through
          {!group_set_established} *)
  scratch : float array;
      (** two accumulator cells for the coupled controllers' per-ACK
          folds.  Float-array stores are unboxed, so folding into these
          allocates nothing without flambda (a local [float ref] would
          box every update).  Living in the group — not at module
          level — keeps parallel scenario runs on separate domains from
          racing on shared cells; within one simulation the folds never
          nest, so two cells suffice. *)
  qualities : float array;
      (** [n] cells of per-slot scratch (OLIA's loss-interval quality,
          computed in one pass and consumed in the next); same
          unboxing/domain-safety rationale as [scratch] *)
}

val group_create : int -> group
(** [group_create n] is a fresh [n]-slot group, all slots idle (cwnd 0,
    RTT 1 s, not established).  Raises [Invalid_argument] when
    [n <= 0]. *)

val group_set_established : group -> int -> bool -> unit
(** Flip one slot's established flag, keeping [n_established] in
    sync. *)

type ctx = {
  now_s : unit -> float;        (** simulated seconds *)
  mss : int;
  get_cwnd : unit -> float;
  set_cwnd : float -> unit;     (** clamped to [\[min_cwnd, +inf)] by the sender *)
  get_ssthresh : unit -> float;
  set_ssthresh : float -> unit;
  srtt_s : unit -> float;       (** this subflow's smoothed RTT, seconds *)
  group : unit -> group;
      (** all subflows of the owning connection, self included, synced
          to their live state; a single-path flow sees a 1-slot group *)
  self_index : unit -> int;     (** this subflow's slot in [group ()] *)
}

type instance = {
  on_ack : acked:int -> unit;
      (** [acked] bytes newly acknowledged by a cumulative ACK *)
  on_loss : unit -> unit;
      (** entering fast recovery (3 dup-ACKs): apply the multiplicative
          decrease to cwnd and ssthresh *)
  on_rto : unit -> unit;
      (** retransmission timeout: collapse the window *)
}

type factory = ctx -> instance
(** Controllers are created per subflow, after the context is wired. *)

val min_cwnd : float
(** 2 MSS, the floor Linux applies after any decrease. *)

val slow_start_ack : ctx -> acked:int -> bool
(** Shared helper: when [cwnd < ssthresh], grow by one MSS per MSS acked
    (capped at ssthresh) and return [true]; otherwise return [false] and
    leave the window to the caller's congestion-avoidance law. *)

val in_slow_start : ctx -> bool
