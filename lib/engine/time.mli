(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation.  Using integers (rather than float seconds) makes event
    ordering exact and simulations bit-for-bit reproducible.  OCaml's
    63-bit native [int] covers roughly 292 simulated years, far beyond any
    experiment in this repository. *)

type t = int
(** Nanoseconds since simulation start.  Always non-negative. *)

val zero : t

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val s : int -> t
(** [s n] is [n] seconds. *)

val of_float_s : float -> t
(** [of_float_s x] converts [x] seconds to nanoseconds, rounding to the
    nearest nanosecond.  Raises [Invalid_argument] on negative or
    non-finite input. *)

val to_float_s : t -> float
(** [to_float_s t] is [t] expressed in seconds. *)

(** {1 Arithmetic and comparison}

    [add], [sub], [diff], [equal] and the four comparisons are
    [external] primitives, not functions.  A library compiled [-opaque]
    (dune's default dev profile) exports no function bodies, so every
    cross-module call to an ordinary [let] is an indirect call through
    [caml_applyN] — a dozen instructions for what is one machine add or
    compare, paid several times per packet hop.  A primitive is
    expanded at each call site whatever the build profile, because its
    definition is the interface itself. *)

external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"

external diff : t -> t -> t = "%subint"
(** [diff a b] is [a - b]; may be negative when [b] is later than [a]. *)

val scale : t -> float -> t
(** [scale t k] is [t] multiplied by [k], rounded to the nearest
    nanosecond. *)

external equal : t -> t -> bool = "%eq"
external ( < ) : t -> t -> bool = "%ltint"
external ( <= ) : t -> t -> bool = "%leint"
external ( > ) : t -> t -> bool = "%gtint"
external ( >= ) : t -> t -> bool = "%geint"

val pp : Format.formatter -> t -> unit
(** Prints a human-friendly rendering, e.g. ["1.234ms"] or ["2.5s"]. *)

val to_string : t -> string

val tx_time : bits:int -> rate_bps:int -> t
(** [tx_time ~bits ~rate_bps] is the exact serialization time of [bits]
    bits on a link of [rate_bps] bits per second, rounded up to the next
    nanosecond so that back-to-back transmissions never overlap.
    Raises [Invalid_argument] if [rate_bps <= 0] or [bits < 0]. *)
