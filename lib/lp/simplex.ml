type result =
  | Optimal of solution
  | Unbounded
  | Infeasible

and solution = {
  objective : float;
  x : float array;
  dual : float array;
}

let eps = 1e-9
let max_iterations = 100_000

let validate ~c ~a ~b =
  let m = Array.length a and n = Array.length c in
  if Array.length b <> m then
    invalid_arg "Simplex.solve: |b| must equal the number of rows of a";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Simplex.solve: every row of a must have length |c|")
    a;
  let check v =
    if not (Float.is_finite v) then
      invalid_arg "Simplex.solve: non-finite coefficient"
  in
  Array.iter check c;
  Array.iter check b;
  Array.iter (Array.iter check) a;
  (m, n)

(* Tableau state: [rows] is an m x (nvars + 1) matrix (last column = rhs),
   [basis.(i)] is the variable basic in row i.  Reduced costs are
   recomputed from scratch each iteration — O(m n) per pivot, which is the
   robust choice at the problem sizes in this repository. *)
type tableau = {
  rows : float array array;
  basis : int array;
  nvars : int;
}

let pivot t r col =
  let row = t.rows.(r) in
  let p = row.(col) in
  Array.iteri (fun j v -> row.(j) <- v /. p) row;
  Array.iteri
    (fun i other ->
      if i <> r then begin
        let k = other.(col) in
        if Float.abs k > 0.0 then
          Array.iteri (fun j v -> other.(j) <- v -. (k *. row.(j))) other
      end)
    t.rows;
  t.basis.(r) <- col

(* One simplex phase, maximizing [cost] (indexed by variable, length
   nvars).  [allowed v] filters entering variables (used to bar
   artificials in phase 2).  Returns [`Optimal] or [`Unbounded]. *)
let optimize t ~cost ~allowed =
  let m = Array.length t.rows in
  let width = t.nvars + 1 in
  let reduced = Array.make t.nvars 0.0 in
  let rec loop iter =
    if iter > max_iterations then
      failwith "Simplex: iteration limit exceeded (cycling?)";
    for j = 0 to t.nvars - 1 do
      let z = ref 0.0 in
      for i = 0 to m - 1 do
        let cb = cost.(t.basis.(i)) in
        if cb <> 0.0 then z := !z +. (cb *. t.rows.(i).(j))
      done;
      reduced.(j) <- cost.(j) -. !z
    done;
    (* Bland: entering variable = smallest index with positive reduced
       cost. *)
    let entering = ref (-1) in
    (try
       for j = 0 to t.nvars - 1 do
         if allowed j && reduced.(j) > eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      (* Ratio test; Bland tie-break on the smallest basic variable. *)
      let best_row = ref (-1) and best_ratio = ref infinity in
      for i = 0 to m - 1 do
        let coeff = t.rows.(i).(col) in
        if coeff > eps then begin
          let ratio = t.rows.(i).(width - 1) /. coeff in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps
                && (!best_row < 0 || t.basis.(i) < t.basis.(!best_row)))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        pivot t !best_row col;
        loop (iter + 1)
      end
    end
  in
  loop 0

let objective_value t ~cost =
  let z = ref 0.0 in
  Array.iteri
    (fun i v ->
      let cb = cost.(v) in
      if cb <> 0.0 then z := !z +. (cb *. t.rows.(i).(Array.length t.rows.(i) - 1)))
    t.basis;
  !z

let solve ~c ~a ~b =
  let m, n = validate ~c ~a ~b in
  if m = 0 then
    (* No constraints: optimal iff no profitable direction. *)
    if Array.exists (fun cj -> cj > eps) c then Unbounded
    else Optimal { objective = 0.0; x = Array.make n 0.0; dual = [||] }
  else begin
    let negated = Array.map (fun bi -> bi < 0.0) b in
    let n_art = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 negated in
    let nvars = n + m + n_art in
    let width = nvars + 1 in
    let rows = Array.init m (fun _ -> Array.make width 0.0) in
    let basis = Array.make m 0 in
    let art_of_row = Array.make m (-1) in
    let next_art = ref (n + m) in
    for i = 0 to m - 1 do
      let sign = if negated.(i) then -1.0 else 1.0 in
      for j = 0 to n - 1 do
        rows.(i).(j) <- sign *. a.(i).(j)
      done;
      rows.(i).(n + i) <- sign;
      rows.(i).(width - 1) <- sign *. b.(i);
      if negated.(i) then begin
        rows.(i).(!next_art) <- 1.0;
        basis.(i) <- !next_art;
        art_of_row.(i) <- !next_art;
        incr next_art
      end
      else basis.(i) <- n + i
    done;
    let t = { rows; basis; nvars } in
    let is_artificial v = v >= n + m in
    let infeasible = ref false in
    if n_art > 0 then begin
      let cost1 = Array.init nvars (fun v -> if is_artificial v then -1.0 else 0.0) in
      (match optimize t ~cost:cost1 ~allowed:(fun _ -> true) with
      | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
      | `Optimal -> ());
      if objective_value t ~cost:cost1 < -.eps then infeasible := true
      else
        (* Drive any artificial still basic (at level 0) out of the basis;
           if its row has no usable pivot the row is redundant and can be
           neutralised. *)
        Array.iteri
          (fun i v ->
            if is_artificial v then begin
              let found = ref (-1) in
              (try
                 for j = 0 to (n + m) - 1 do
                   if Float.abs t.rows.(i).(j) > eps then begin
                     found := j;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if !found >= 0 then pivot t i !found
              else begin
                (* Redundant row: zero it so it can never constrain
                   phase 2. *)
                Array.fill t.rows.(i) 0 width 0.0;
                t.rows.(i).(v) <- 1.0
              end
            end)
          t.basis
    end;
    if !infeasible then Infeasible
    else begin
      let cost2 = Array.init nvars (fun v -> if v < n then c.(v) else 0.0) in
      match optimize t ~cost:cost2 ~allowed:(fun v -> not (is_artificial v)) with
      | `Unbounded -> Unbounded
      | `Optimal ->
        let x = Array.make n 0.0 in
        Array.iteri
          (fun i v -> if v < n then x.(v) <- t.rows.(i).(width - 1))
          t.basis;
        (* Dual of row i = reduced-cost magnitude on its slack column,
           sign-corrected for rows that were negated. *)
        let dual =
          Array.init m (fun i ->
              let j = n + i in
              let z = ref 0.0 in
              Array.iteri
                (fun k v ->
                  let cb = cost2.(v) in
                  if cb <> 0.0 then z := !z +. (cb *. t.rows.(k).(j)))
                t.basis;
              let y = !z in
              if negated.(i) then -.y else y)
        in
        Optimal { objective = objective_value t ~cost:cost2; x; dual }
    end
  end

let pp_result fmt = function
  | Unbounded -> Format.fprintf fmt "unbounded"
  | Infeasible -> Format.fprintf fmt "infeasible"
  | Optimal { objective; x; _ } ->
    Format.fprintf fmt "optimal %.6g at (%a)" objective
      (Format.pp_print_array
         ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
         (fun f v -> Format.fprintf f "%.6g" v))
      x

let feasible ~a ~b ~x ~eps =
  let ok = ref true in
  Array.iter (fun xi -> if xi < -.eps then ok := false) x;
  Array.iteri
    (fun i row ->
      let lhs = ref 0.0 in
      Array.iteri (fun j v -> lhs := !lhs +. (v *. x.(j))) row;
      if !lhs > b.(i) +. eps then ok := false)
    a;
  !ok
