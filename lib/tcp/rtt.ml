type t = {
  min_rto : Engine.Time.t;
  max_rto : Engine.Time.t;
  initial_rto : Engine.Time.t;
  mutable srtt : Engine.Time.t option;
  mutable rttvar : Engine.Time.t;
  mutable backoff_factor : int;
}

let create ?(initial_rto = Engine.Time.s 1) ?(min_rto = Engine.Time.ms 200)
    ?(max_rto = Engine.Time.s 60) () =
  { min_rto; max_rto; initial_rto; srtt = None; rttvar = Engine.Time.zero;
    backoff_factor = 1 }

let sample t r =
  if Engine.Time.( < ) r Engine.Time.zero then
    invalid_arg "Rtt.sample: negative RTT";
  (match t.srtt with
  | None ->
    t.srtt <- Some r;
    t.rttvar <- r / 2
  | Some srtt ->
    let err = abs (Engine.Time.diff srtt r) in
    (* rttvar := 3/4 rttvar + 1/4 |err|;  srtt := 7/8 srtt + 1/8 r *)
    t.rttvar <- ((3 * t.rttvar) + err) / 4;
    t.srtt <- Some (((7 * srtt) + r) / 8));
  t.backoff_factor <- 1

let srtt t = t.srtt
let rttvar t = t.rttvar

let base_rto t =
  match t.srtt with
  | None -> t.initial_rto
  | Some srtt ->
    let raw = Engine.Time.add srtt (4 * t.rttvar) in
    Int.max t.min_rto raw

let rto t = Int.min t.max_rto (base_rto t * t.backoff_factor)

let backoff t =
  if Engine.Time.( < ) (rto t) t.max_rto then
    t.backoff_factor <- t.backoff_factor * 2
