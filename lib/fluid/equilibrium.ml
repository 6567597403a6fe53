type diag = {
  converged : bool;
  iterations : int;
  residual : float;
  dt : float;
}

let pp_diag ppf d =
  Format.fprintf ppf "%s in %d iterations (residual %.2e, dt %.2e)"
    (if d.converged then "converged" else "NOT converged")
    d.iterations d.residual d.dt

let dt_min = 1e-6
let dt_max = 1e-2

let residual dim y dy =
  let r = ref 0.0 in
  for i = 0 to dim - 1 do
    let s = Minmax.max 1.0 (Float.abs y.(i)) in
    let e = Float.abs dy.(i) /. s in
    if e > !r then r := e
  done;
  !r

let norm2 v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    let x = Array.unsafe_get v i in
    acc := !acc +. (x *. x)
  done;
  !acc

let dot dim a b =
  let acc = ref 0.0 in
  for i = 0 to dim - 1 do
    acc := !acc +. (Array.unsafe_get a i *. Array.unsafe_get b i)
  done;
  !acc

(* Scratch for the quasi-Newton polish, sized once per solve.  The
   inverse Jacobian is never formed explicitly: it is kept as the LU
   factors of the last finite-difference build plus a list of
   Sherman-Morrison rank-1 corrections [us.(j) vs.(j)^T] from Broyden
   updates, so a rebuild costs an O(dim^3 / 3) factorisation instead of
   a full O(dim^3) inversion and applying the inverse stays O(dim^2).
   A correction's rows are made when the rank first reaches it: a solve
   seldom uses more than a few of the [max_rank1]. *)
let max_rank1 = 24

type qn_scratch = {
  lu : float array array;     (* row-major LU factor scratch *)
  piv : int array;
  us : float array array;     (* Broyden rank-1 corrections ... *)
  vs : float array array;     (* ... J^{-1} = LU^{-1} + sum us vs^T *)
  delta : float array;
  y_try : float array;
  f0 : float array;
  f1 : float array;
  dvec : float array;         (* accepted state displacement *)
  t1 : float array;           (* solve / apply scratch *)
  t2 : float array;
}

let qn_scratch dim =
  { lu = Array.make_matrix dim dim 0.0;
    piv = Array.make dim 0;
    us = Array.make max_rank1 [||];
    vs = Array.make max_rank1 [||];
    delta = Array.make dim 0.0;
    y_try = Array.make dim 0.0;
    f0 = Array.make dim 0.0;
    f1 = Array.make dim 0.0;
    dvec = Array.make dim 0.0;
    t1 = Array.make dim 0.0;
    t2 = Array.make dim 0.0 }

(* LU-factor [s.lu] (row-major, in place) with partial pivoting.
   Returns false on a collapsed pivot. *)
let lu_factor s dim =
  let lu = s.lu and piv = s.piv in
  let ok = ref true in
  (try
     for k = 0 to dim - 1 do
       let p = ref k and best = ref (Float.abs lu.(k).(k)) in
       for i = k + 1 to dim - 1 do
         let m = Float.abs lu.(i).(k) in
         if m > !best then begin
           best := m;
           p := i
         end
       done;
       if !best < 1e-300 then raise Exit;
       if !p <> k then begin
         let t = lu.(k) in
         lu.(k) <- lu.(!p);
         lu.(!p) <- t
       end;
       piv.(k) <- !p;
       let rk = lu.(k) in
       let inv_pivot = 1.0 /. rk.(k) in
       for i = k + 1 to dim - 1 do
         let ri = lu.(i) in
         let m = ri.(k) *. inv_pivot in
         ri.(k) <- m;
         if m <> 0.0 then
           for j = k + 1 to dim - 1 do
             Array.unsafe_set ri j
               (Array.unsafe_get ri j -. (m *. Array.unsafe_get rk j))
           done
       done
     done
   with Exit -> ok := false);
  !ok

(* x := J0^{-1} b given the LU factors: permute, forward- then
   back-substitute. *)
let lu_solve s dim b x =
  let lu = s.lu and piv = s.piv in
  Array.blit b 0 x 0 dim;
  for i = 0 to dim - 1 do
    let p = piv.(i) in
    if p <> i then begin
      let t = x.(i) in
      x.(i) <- x.(p);
      x.(p) <- t
    end
  done;
  for i = 1 to dim - 1 do
    let ri = lu.(i) in
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get ri j *. Array.unsafe_get x j)
    done;
    x.(i) <- !acc
  done;
  for i = dim - 1 downto 0 do
    let ri = lu.(i) in
    let acc = ref x.(i) in
    for j = i + 1 to dim - 1 do
      acc := !acc -. (Array.unsafe_get ri j *. Array.unsafe_get x j)
    done;
    x.(i) <- !acc /. ri.(i)
  done

(* x := J0^{-T} b: with P J0 = L U we have J0^T = U^T L^T P, so solve
   U^T z = b (forward, U^T is lower triangular), L^T y = z (backward,
   unit diagonal), then undo the row swaps in reverse order. *)
let lut_solve s dim b x =
  let lu = s.lu and piv = s.piv in
  Array.blit b 0 x 0 dim;
  for i = 0 to dim - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get lu.(j) i *. Array.unsafe_get x j)
    done;
    x.(i) <- !acc /. lu.(i).(i)
  done;
  for i = dim - 2 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to dim - 1 do
      acc := !acc -. (Array.unsafe_get lu.(j) i *. Array.unsafe_get x j)
    done;
    x.(i) <- !acc
  done;
  for i = dim - 1 downto 0 do
    let p = piv.(i) in
    if p <> i then begin
      let t = x.(i) in
      x.(i) <- x.(p);
      x.(p) <- t
    end
  done

(* out := J^{-1} b with the current rank-[rank] correction list. *)
let apply_jinv s dim rank b out =
  lu_solve s dim b out;
  for j = 0 to rank - 1 do
    let c = dot dim s.vs.(j) b in
    if c <> 0.0 then begin
      let u = s.us.(j) in
      for i = 0 to dim - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get out i +. (c *. Array.unsafe_get u i))
      done
    end
  done

(* out := J^{-T} b (the transpose of the same operator). *)
let apply_jinv_t s dim rank b out =
  lut_solve s dim b out;
  for j = 0 to rank - 1 do
    let c = dot dim s.us.(j) b in
    if c <> 0.0 then begin
      let v = s.vs.(j) in
      for i = 0 to dim - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get out i +. (c *. Array.unsafe_get v i))
      done
    end
  done

(* Quasi-Newton polish on [F(y) = 0] where [F] is the projected fluid
   field.  A finite-difference Jacobian is built (and inverted) only
   when needed; accepted steps update the inverse directly with
   Broyden's good method via Sherman-Morrison, so the steady-state cost
   per step is two field evaluations plus O(dim^2) arithmetic instead
   of a fresh Jacobian and an O(dim^3) factorisation.  Every trial step
   must shrink [|F|^2] (backtracking line search) or the Jacobian is
   rebuilt; a rebuild that still cannot make progress ends the polish,
   so it can stall on a kink but never diverge.  Returns the field
   evaluations spent. *)
let qn_polish p s ~y ~tol ~max_steps =
  let dim = p.Ode.dim in
  let evals = ref 0 in
  let f v out =
    p.Ode.f v out;
    incr evals
  in
  let steps = ref 0 in
  let stop = ref false in
  let fresh = ref false in
  let stale = ref true in
  let rank = ref 0 in
  f y s.f0;
  while (not !stop) && !steps < max_steps do
    incr steps;
    if residual dim y s.f0 <= tol then stop := true
    else begin
      if !stale then begin
        (* Forward-difference Jacobian straight into the row-major LU
           scratch, then factor (the corrections list restarts). *)
        for j = 0 to dim - 1 do
          let h = 1e-6 *. Minmax.max 1.0 (Float.abs y.(j)) in
          let saved = y.(j) in
          y.(j) <- saved +. h;
          f y s.f1;
          y.(j) <- saved;
          let inv_h = 1.0 /. h in
          for i = 0 to dim - 1 do
            s.lu.(i).(j) <-
              (Array.unsafe_get s.f1 i -. Array.unsafe_get s.f0 i) *. inv_h
          done
        done;
        if lu_factor s dim then begin
          rank := 0;
          stale := false;
          fresh := true
        end
        else stop := true (* singular even with a fresh build *)
      end;
      if not !stop then begin
        let phi0 = norm2 s.f0 in
        apply_jinv s dim !rank s.f0 s.delta;
        for i = 0 to dim - 1 do
          s.delta.(i) <- -.s.delta.(i)
        done;
        (* Backtracking line search: halve the step until |F|^2
           drops. *)
        let t = ref 1.0 in
        let accepted = ref false in
        let tries = ref 0 in
        while (not !accepted) && !tries < 20 do
          incr tries;
          for i = 0 to dim - 1 do
            s.y_try.(i) <- y.(i) +. (!t *. s.delta.(i))
          done;
          p.Ode.project s.y_try;
          f s.y_try s.f1;
          if norm2 s.f1 < phi0 then accepted := true
          else t := !t *. 0.5
        done;
        if !accepted then begin
          for i = 0 to dim - 1 do
            s.dvec.(i) <- s.y_try.(i) -. y.(i);
            s.f1.(i) <- s.f1.(i) -. s.f0.(i) (* f1 becomes df *)
          done;
          Array.blit s.y_try 0 y 0 dim;
          for i = 0 to dim - 1 do
            s.f0.(i) <- s.f0.(i) +. s.f1.(i) (* back to F(y_new) *)
          done;
          if !t < 0.05 then
            (* A heavily backtracked step means the local linear model
               is wrong here (a kink, or a stale inverse); folding the
               secant of such a step into J^{-1} poisons later
               directions, so rebuild instead. *)
            stale := true
          else if !rank >= max_rank1 then stale := true
          else begin
            (* Broyden's good update of the inverse via
               Sherman-Morrison, appended to the correction list:
               Jinv += (dy - Jinv df) (dy^T Jinv) / (dy^T Jinv df). *)
            apply_jinv s dim !rank s.f1 s.t1; (* Jinv df *)
            apply_jinv_t s dim !rank s.dvec s.t2; (* (dy^T Jinv)^T *)
            let denom = dot dim s.t2 s.f1 in
            if Float.abs denom > 1e-300 then begin
              let inv_denom = 1.0 /. denom in
              if Array.length s.us.(!rank) = 0 then begin
                s.us.(!rank) <- Array.make dim 0.0;
                s.vs.(!rank) <- Array.make dim 0.0
              end;
              let u = s.us.(!rank) and v = s.vs.(!rank) in
              for i = 0 to dim - 1 do
                u.(i) <- (s.dvec.(i) -. s.t1.(i)) *. inv_denom;
                v.(i) <- s.t2.(i)
              done;
              incr rank;
              fresh := false
            end
            else stale := true (* degenerate update; rebuild next time *)
          end
        end
        else if !fresh then stop := true (* fresh J and still stalled *)
        else stale := true (* stale J was to blame; rebuild *)
      end
    end
  done;
  !evals

let max_iter = 200_000

let solve m ?y0 ?(tol = 1e-4) () =
  let p = Model.problem m in
  let y =
    match y0 with
    | Some y -> Array.copy y
    | None -> Model.warm_start m
  in
  p.Ode.project y;
  let dim = p.Ode.dim in
  let dy = Array.make dim 0.0 in
  let s = qn_scratch dim in
  let dt = ref 2e-4 in
  let prev = ref infinity in
  let res = ref infinity in
  let evals = ref 0 in
  let converged () = !res <= tol in
  let check () =
    p.Ode.f y dy;
    incr evals;
    res := residual dim y dy
  in
  (* The polish converges in a handful of Jacobian builds when it
     starts inside Newton's basin; the damped-Euler phases walk it
     there along the (stable) fluid dynamics when the warm start is not
     already close enough.  Every phase costs field evaluations out of
     the same [max_iter] budget. *)
  let euler_phase budget =
    let steps = ref 0 in
    while (not (converged ())) && !steps < budget && !evals < max_iter do
      incr steps;
      check ();
      if not (converged ()) then begin
        if !res > !prev *. 1.2 then dt := Minmax.max dt_min (!dt *. 0.5)
        else dt := Minmax.min dt_max (!dt *. 1.05);
        prev := !res;
        for i = 0 to dim - 1 do
          y.(i) <- y.(i) +. (!dt *. dy.(i))
        done;
        p.Ode.project y
      end
    done
  in
  check ();
  let rounds = ref 0 in
  while (not (converged ())) && !evals < max_iter && !rounds < 40 do
    incr rounds;
    evals := !evals + qn_polish p s ~y ~tol ~max_steps:60;
    check ();
    if not (converged ()) then euler_phase 500
  done;
  ( y,
    { converged = converged ();
      iterations = !evals;
      residual = !res;
      dt = !dt } )
