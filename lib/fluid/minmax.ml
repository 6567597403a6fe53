(* Strict order decides without the sign bit: if [x > y], both are
   numbers and [x] cannot be the negative one of a pair of opposite
   signs, so Stdlib's sign test is false too.  Equal arguments are the
   same number unless they are zeros of opposite signs; [1 / x] reads
   the sign of a zero ([-0] gives [-inf]), and Stdlib's [min] picks the
   negative zero, [max] the positive one.  Only NaN reaches Stdlib. *)
let[@inline] min (x : float) y =
  if y > x then x
  else if x > y then y
  else if x = y then if 1.0 /. x < 0.0 then x else y
  else Float.min x y

let[@inline] max (x : float) y =
  if y > x then y
  else if x > y then x
  else if x = y then if 1.0 /. x > 0.0 then x else y
  else Float.max x y
