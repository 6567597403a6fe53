type problem = {
  dim : int;
  f : float array -> float array -> unit;
  project : float array -> unit;
}

type stats = { steps : int; rejected : int; last_dt : float }

let merge_stats a b =
  { steps = a.steps + b.steps;
    rejected = a.rejected + b.rejected;
    last_dt = b.last_dt }

(* One classic RK4 step from [y] with step [dt], result into [out].
   [k1..k4] and [tmp] are caller-provided scratch of length [dim]. *)
let rk4_step p ~dt ~y ~out ~k1 ~k2 ~k3 ~k4 ~tmp =
  let n = p.dim in
  p.f y k1;
  for i = 0 to n - 1 do tmp.(i) <- y.(i) +. (0.5 *. dt *. k1.(i)) done;
  p.f tmp k2;
  for i = 0 to n - 1 do tmp.(i) <- y.(i) +. (0.5 *. dt *. k2.(i)) done;
  p.f tmp k3;
  for i = 0 to n - 1 do tmp.(i) <- y.(i) +. (dt *. k3.(i)) done;
  p.f tmp k4;
  let c = dt /. 6.0 in
  for i = 0 to n - 1 do
    out.(i) <-
      y.(i) +. (c *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i)))
  done

let dt_min = 1e-7

let integrate p ~y ~t0 ~t1 ?(dt0 = 1e-4) ?(tol = 1e-6) ?dt_max () =
  if Array.length y <> p.dim then
    invalid_arg "Ode.integrate: state has the wrong dimension";
  if t1 < t0 then invalid_arg "Ode.integrate: t1 < t0";
  let horizon = t1 -. t0 in
  let dt_max =
    match dt_max with Some d -> d | None -> Minmax.max dt_min (horizon /. 4.0)
  in
  let n = p.dim in
  let k1 = Array.make n 0.0 and k2 = Array.make n 0.0 in
  let k3 = Array.make n 0.0 and k4 = Array.make n 0.0 in
  let tmp = Array.make n 0.0 in
  let tmp2 = Array.make n 0.0 in
  let full = Array.make n 0.0 in
  let half = Array.make n 0.0 in
  let steps = ref 0 and rejected = ref 0 in
  let t = ref t0 in
  let dt = ref (Minmax.min (Minmax.max dt0 dt_min) dt_max) in
  p.project y;
  while t1 -. !t > 1e-12 do
    let dt_now = Minmax.min !dt (t1 -. !t) in
    (* One full step ... *)
    rk4_step p ~dt:dt_now ~y ~out:full ~k1 ~k2 ~k3 ~k4 ~tmp;
    (* ... versus two half steps. *)
    let h = 0.5 *. dt_now in
    rk4_step p ~dt:h ~y ~out:half ~k1 ~k2 ~k3 ~k4 ~tmp;
    (* [tmp2] keeps the stage scratch distinct from [k1] here: aliasing
       them corrupts the k1 term of the final RK4 combination. *)
    Array.blit half 0 tmp 0 n;
    rk4_step p ~dt:h ~y:tmp ~out:half ~k1 ~k2 ~k3 ~k4 ~tmp:tmp2;
    let err = ref 0.0 in
    for i = 0 to n - 1 do
      let scale = Minmax.max 1.0 (Float.abs half.(i)) in
      let e = Float.abs (full.(i) -. half.(i)) /. scale in
      if e > !err then err := e
    done;
    let finite = Float.is_finite !err in
    if (not finite) && dt_now <= dt_min then
      failwith "Ode.integrate: non-finite derivative at the minimum step";
    if finite && (!err <= tol || dt_now <= dt_min) then begin
      Array.blit half 0 y 0 n;
      p.project y;
      t := !t +. dt_now;
      incr steps;
      (* Standard fifth-order growth rule, kept conservative. *)
      let grow =
        if !err <= 0.0 then 2.0
        else Minmax.min 2.0 (0.9 *. ((tol /. !err) ** 0.2))
      in
      dt :=
        Minmax.min dt_max (Minmax.max dt_min (dt_now *. Minmax.max 0.5 grow))
    end
    else begin
      incr rejected;
      dt := Minmax.max dt_min (dt_now *. 0.5)
    end
  done;
  { steps = !steps; rejected = !rejected; last_dt = !dt }
