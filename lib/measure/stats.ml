type summary = {
  count : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
}

let percentile values ~p =
  let n = Array.length values in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy values in
  (* Float.compare, not polymorphic compare: same order on finite
     floats, but no boxed-comparison cost and well-defined on nan. *)
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let summarise values =
  match values with
  | [] -> None
  | _ ->
    List.iter
      (fun v ->
        if not (Float.is_finite v) then
          invalid_arg "Stats.summarise: non-finite value")
      values;
    let arr = Array.of_list values in
    let n = Array.length arr in
    let m = mean values in
    let ss =
      List.fold_left (fun acc v -> acc +. ((v -. m) *. (v -. m))) 0.0 values
    in
    let std = if n < 2 then 0.0 else Float.sqrt (ss /. float_of_int (n - 1)) in
    Some
      {
        count = n;
        mean = m;
        std;
        min = Array.fold_left Float.min infinity arr;
        max = Array.fold_left Float.max neg_infinity arr;
        p50 = percentile arr ~p:50.0;
        p90 = percentile arr ~p:90.0;
      }

let confidence95 s =
  if s.count < 2 then 0.0
  else 1.96 *. s.std /. Float.sqrt (float_of_int s.count)
