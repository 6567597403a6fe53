(** Queue disciplines for link buffers.

    The paper's Mininet links use default tail-drop FIFOs; {!Drop_tail}
    reproduces that and is the default everywhere.  {!Red} (Random Early
    Detection) is provided for the ablation study on how active queue
    management changes the convergence behaviour. *)

type red = {
  min_th : int;   (** packets: below this average, never drop *)
  max_th : int;   (** packets: above this average, always drop *)
  max_p : float;  (** drop probability as the average reaches [max_th] *)
  weight : float; (** EWMA weight for the average queue size *)
  ecn : bool;     (** mark ECN-capable packets instead of dropping them *)
}

type codel = {
  target : Engine.Time.t;    (** acceptable standing-queue sojourn (5 ms) *)
  interval : Engine.Time.t;  (** sliding window for the judgement (100 ms) *)
}

type t =
  | Drop_tail
  | Red of red
  | Codel of codel
      (** CoDel (Nichols-Jacobson, RFC 8289): drops at {e dequeue} time
          based on how long packets actually sat in the queue, attacking
          bufferbloat independently of the buffer's size *)
  | Broken_oversubscribe
      (** Test-only: admits every packet, ignoring [limit_pkts].  Exists
          to prove the audit subsystem catches a misbehaving qdisc (the
          buffer-occupancy invariant fires); never use it in scenarios
          meant to mean anything. *)

val default_red : red
(** min_th 5, max_th 15, max_p 0.1, weight 0.002, no ECN — the classic
    Floyd–Jacobson parameters scaled to the buffers used here. *)

val default_red_ecn : red
(** {!default_red} with ECN marking enabled. *)

val default_codel : codel
(** target 5 ms, interval 100 ms — the RFC 8289 defaults. *)

type state

val make_state : t -> state

type decision =
  | Admit
  | Mark   (** admit, but set Congestion Experienced (RFC 3168) *)
  | Drop

val decide : t -> state -> queue_pkts:int -> limit_pkts:int
  -> ecn_capable:bool -> rng:Engine.Rng.t -> decision
(** Decision for one arriving packet given the current queue occupancy
    (packets, not counting the arriving one).  A full buffer
    ([queue_pkts >= limit_pkts]) always drops; RED's early "drops" become
    {!Mark}s when both the discipline and the packet are ECN-capable. *)

val dequeue_drop : t -> state -> sojourn:Engine.Time.t
  -> now:Engine.Time.t -> bool
(** CoDel's head-drop decision, consulted by the link each time a packet
    reaches the front of the queue: [true] means drop it and try the
    next.  Always [false] for drop-tail and RED (they act at enqueue). *)

val avg_queue : state -> float
(** RED's smoothed queue estimate (0 for drop-tail). *)
