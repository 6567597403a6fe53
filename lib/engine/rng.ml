type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed }

let[@inline] bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take 62 non-negative bits; modulo bias is negligible for the small
     bounds used here (< 2^40). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = ref (float t 1.0) in
  if !u = 0.0 then u := 1e-12;
  -.mean *. log !u

let uniform_time t ~lo ~hi =
  if Stdlib.( < ) hi lo then invalid_arg "Rng.uniform_time: hi < lo";
  lo + int t (hi - lo + 1)
