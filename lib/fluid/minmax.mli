(** [Float.min] and [Float.max] with a fast path.

    Both return exactly what [Float.min]/[Float.max] return, for every
    input (NaN and signed zeros included): when the two arguments
    compare strictly they pick one by that comparison, and only equal
    or NaN arguments go to the stdlib function.  The stdlib versions
    call the C primitive [caml_signbit] whenever the second argument is
    not the strictly larger, as in a clamp [Float.min qmax q] that does
    not bind; in the equilibrium solve ({!Model.deriv},
    {!Controller.dwindows}, {!Equilibrium}) those calls took 7 % of
    its sampled time. *)

val min : float -> float -> float
val max : float -> float -> float
