(** Fixed-point equilibrium solving for compiled fluid models.

    An equilibrium of the fluid model is a state where every window and
    queue derivative vanishes (up to the box constraints: a queue
    pinned at empty or a window at the floor may carry a one-sided
    residual).  The solver is a hybrid: a quasi-Newton polish on the
    projected field — a finite-difference Jacobian is LU-factored only
    when progress stalls, Newton directions are backtracked until
    [|F|^2] drops, and accepted full-length steps update the inverse
    with Broyden's good method (kept as the LU factors plus a list of
    Sherman-Morrison rank-1 corrections, so a step costs two field
    evaluations and O(dim^2) arithmetic) — interleaved with phases of
    damped explicit relaxation (projected Euler steps under an adaptive
    pseudo-time step that grows while the residual shrinks and backs
    off when it rebounds).  Heavily backtracked steps signal a kink in
    the piecewise-smooth field; their secants are never folded into the
    Broyden inverse — the Jacobian is rebuilt instead.  The Euler
    phases inherit the dynamics' own stability, so they walk the state
    into Newton's basin whenever the warm start is not already inside
    it; in practice the paper scenarios converge in the polish alone.

    Convergence is declared on the scaled residual
    [max_i |dy_i| / max(1, |y_i|)] measured in state units per second;
    windows move in MSS per second and queues in packets per second, so
    a residual of 1e-3 means every component drifts by less than a
    thousandth of an MSS (or packet) per simulated second. *)

type diag = {
  converged : bool;
  iterations : int;    (** field evaluations spent (all phases) *)
  residual : float;    (** final scaled residual, 1/s *)
  dt : float;          (** final Euler pseudo-time step, s *)
}

val pp_diag : Format.formatter -> diag -> unit

val solve :
  Model.t -> ?y0:float array -> ?tol:float -> unit -> float array * diag
(** [solve m ()] returns an equilibrium state and its diagnostics.
    [y0] seeds the iteration (default {!Model.warm_start}; the array is
    not mutated), [tol] is the residual target (default [1e-4]); the
    field-evaluation budget is [200_000].  A result with
    [diag.converged = false] is the best point reached; callers decide
    whether to fall back to {!Trajectory} integration. *)
