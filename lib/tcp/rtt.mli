(** Round-trip-time estimation and retransmission timeout (RFC 6298).

    [srtt]/[rttvar] use the standard gains (1/8, 1/4); the RTO is
    [srtt + 4 * rttvar], clamped to [\[min_rto, max_rto\]] and doubled on
    each backoff.  The defaults mirror Linux: 200 ms floor, 1 s initial
    RTO, 60 s ceiling — the same stack the paper measured. *)

type t

val create :
  ?initial_rto:Engine.Time.t ->
  ?min_rto:Engine.Time.t ->
  ?max_rto:Engine.Time.t ->
  unit -> t

val sample : t -> Engine.Time.t -> unit
(** Feed one RTT measurement (from a never-retransmitted segment — Karn's
    rule is the caller's responsibility).  Resets any backoff. *)

val srtt : t -> Engine.Time.t option
(** Smoothed RTT; [None] before the first sample. *)

val rttvar : t -> Engine.Time.t
val rto : t -> Engine.Time.t
(** Current timeout including backoff. *)

val backoff : t -> unit
(** Doubles the RTO (up to [max_rto]); called when the timer fires. *)
