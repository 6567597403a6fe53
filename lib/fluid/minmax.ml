(* Strict order decides without the sign bit: if [x > y], both are
   numbers and [x] cannot be the negative one of a pair of opposite
   signs, so Stdlib's sign test is false too. *)
let[@inline] min (x : float) y =
  if y > x then x else if x > y then y else Float.min x y

let[@inline] max (x : float) y =
  if y > x then y else if x > y then x else Float.max x y
