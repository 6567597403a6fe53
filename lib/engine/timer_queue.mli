(** The timer-queue contract shared by {!Heap} and {!Wheel}.

    {!Sched} runs on the wheel; the heap stays alive as the reference
    implementation.  Both are wrapped here behind one signature with
    handle-based cancellation, which is what lets the fuzz suite drive
    the two with identical random insert/cancel/pop programs and demand
    bit-identical pop streams ([Fuzz.wheel_equivalence]), and what the
    scheduler's [--audit] lockstep shadow mode (see
    {!Sched.set_lockstep}) checks end-to-end on real simulations. *)

module type S = sig
  type t

  type handle
  (** Handle for one queued entry, valid until it pops. *)

  val create : unit -> t

  val length : t -> int
  (** Queued, not-cancelled entries. *)

  val is_empty : t -> bool

  val push : t -> key:int -> tie:int -> int -> handle
  (** Queue a value; among equal keys the smaller [tie] pops first.
      Keys must be non-negative.  Values are [int]s, as the scheduler's
      event codes are. *)

  val cancel : t -> handle -> unit
  (** Remove a queued entry.  Idempotent; cancelling after the entry
      popped is a no-op. *)

  val min_key_exn : t -> int
  (** Key of the minimum live entry; raises [Invalid_argument] when
      empty. *)

  val min_tie_exn : t -> int
  (** Tie of the minimum live entry; raises [Invalid_argument] when
      empty. *)

  val pop_exn : t -> int
  (** Remove and return the minimum live entry's value; raises
      [Invalid_argument] when empty. *)
end

module Of_wheel : S
(** {!Wheel} behind the shared signature. *)

module Of_heap : S
(** {!Heap} behind the shared signature: cancellation marks entries
    dead and pops filter them, so the observable pop stream matches
    {!Of_wheel}'s eager removal exactly. *)
