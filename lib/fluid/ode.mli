(** Deterministic explicit integration of autonomous ODE systems.

    The fluid models in this library are autonomous ([dy/dt = f(y)]) and
    live on a box (windows above the minimum congestion window, queues
    inside their buffers), so a {!problem} couples the vector field with
    a projection onto that box.  {!integrate} advances the state in
    place with classic RK4 and step-doubling error control: every
    attempted step is computed both as one full step and as two half
    steps, the componentwise discrepancy is the error estimate, and the
    step size adapts to hold it at [tol].

    Everything is plain float-array arithmetic with preallocated
    scratch, so a solve allocates a handful of arrays once and nothing
    per step — integration of the paper model runs in microseconds,
    which is the whole point of the subsystem. *)

type problem = {
  dim : int;
  f : float array -> float array -> unit;
      (** [f y dy] writes the derivative of [y] into [dy]; it must not
          retain either array and should not allocate *)
  project : float array -> unit;
      (** clamp [y] onto the feasible box, in place (identity for
          unconstrained systems) *)
}

type stats = {
  steps : int;      (** accepted RK4 double-steps *)
  rejected : int;   (** step-doubling rejections (halved and retried) *)
  last_dt : float;  (** step size in use when integration finished *)
}

val integrate :
  problem -> y:float array -> t0:float -> t1:float -> ?dt0:float
  -> ?tol:float -> ?dt_max:float -> unit -> stats
(** Advance [y] in place from [t0] to [t1].  [tol] (default [1e-6]) is
    the per-step componentwise error bound relative to
    [max 1.0 (abs y.(i))]; [dt0] (default [1e-4] s) seeds the adaptive
    step, clamped to [[1e-7, dt_max]] ([dt_max] defaults to a quarter
    of the horizon).  The projection runs after every accepted step, so
    trajectories never leave the feasible box by more than one step's
    worth of drift.  Raises [Invalid_argument] when [t1 < t0] or [y]
    has the wrong length. *)

val merge_stats : stats -> stats -> stats
(** Accumulate the counters of two consecutive integrations (keeps the
    second argument's [last_dt]) — used by {!Trajectory} when
    integrating sample window by sample window. *)
