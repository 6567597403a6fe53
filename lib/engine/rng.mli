(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic decision in a simulation draws from one [Rng.t]
    created from the run's seed, so runs replay bit-for-bit.  SplitMix64
    is tiny, fast, passes BigCrush, and — unlike [Stdlib.Random] — its
    stream is stable across OCaml releases. *)

type t

val create : int -> t
(** [create seed] makes a generator; equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator (used to give each traffic
    source its own stream without coupling their consumption). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (> 0). *)

val uniform_time : t -> lo:Time.t -> hi:Time.t -> Time.t
(** Uniform integer time in [\[lo, hi\]].  Raises if [hi < lo]. *)
