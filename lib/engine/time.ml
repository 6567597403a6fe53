type t = int

let zero = 0
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

let of_float_s x =
  if not (Float.is_finite x) || x < 0.0 then
    invalid_arg "Time.of_float_s: negative or non-finite"
  else Float.to_int (Float.round (x *. 1e9))

let to_float_s t = float_of_int t /. 1e9
external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"
external diff : t -> t -> t = "%subint"
let scale t k = Float.to_int (Float.round (float_of_int t *. k))
external equal : t -> t -> bool = "%eq"
external ( < ) : t -> t -> bool = "%ltint"
external ( <= ) : t -> t -> bool = "%leint"
external ( > ) : t -> t -> bool = "%gtint"
external ( >= ) : t -> t -> bool = "%geint"

let pp fmt t =
  if t >= s 1 then Format.fprintf fmt "%.6gs" (to_float_s t)
  else if t >= ms 1 then Format.fprintf fmt "%.6gms" (float_of_int t /. 1e6)
  else if t >= us 1 then Format.fprintf fmt "%.6gus" (float_of_int t /. 1e3)
  else Format.fprintf fmt "%dns" t

let to_string t = Format.asprintf "%a" pp t

let tx_time ~bits ~rate_bps =
  if rate_bps <= 0 then invalid_arg "Time.tx_time: rate must be positive";
  if bits < 0 then invalid_arg "Time.tx_time: negative size";
  (* ceil (bits * 1e9 / rate); [bits] stays below ~2^17 for any packet, so
     the product fits comfortably in 63 bits. *)
  ((bits * 1_000_000_000) + rate_bps - 1) / rate_bps
