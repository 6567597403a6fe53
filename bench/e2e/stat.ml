(* Sample statistics and process probes shared by the benchmark and the
   compare tool. *)

let now = Unix.gettimeofday

let percentile xs p =
  if Array.length xs = 0 then Float.nan else Measure.Stats.percentile xs ~p

let median xs = percentile xs 50.

(* First and third quartile exactly as Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method),
   so spreads printed here match ones computed with it.
   Needs at least two values. *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  let m = ld + 1 in
  let cut i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.
  in
  if ld < 2 then (d.(0), d.(0)) else (cut 1, cut 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  if Array.length xs < 2 then 0.
  else
    let q1, q3 = quartiles xs in
    let med = median xs in
    if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* The rate a closed-loop client sustained in the fastest tenth of its
   window.  [times] are its completion times, in order; they are split
   into consecutive groups of 200 (fewer when the window holds fewer
   than 2000), and the result is the 90th percentile of the groups'
   rates. *)
let fast_rate times =
  let group = max 1 (min 200 (Array.length times / 10)) in
  let rates =
    Array.init
      (max 0 (Array.length times - 1) / group)
      (fun k ->
        float_of_int group /. (times.((k + 1) * group) -. times.(k * group)))
  in
  percentile rates 90.

(* Quick mode: every min-of-N measurement takes a single sample. *)
let quick = ref false

(* Min-of-N timing: [prepare ()] builds untimed state and returns the
   timed part.  It runs at least [reps] times and until [budget_s] has
   passed; the fastest run's time (seconds) and result are returned.
   The minimum is the estimate least disturbed by other load on the
   machine. *)
let fastest ?(reps = 5) ?(budget_s = 0.15) prepare =
  let reps, budget_s = if !quick then (1, 0.) else (reps, budget_s) in
  let best = ref None and n = ref 0 in
  let t_end = now () +. budget_s in
  while !n < reps || now () < t_end do
    let timed = prepare () in
    let t0 = now () in
    let v = timed () in
    let dt = now () -. t0 in
    (match !best with Some (b, _) when b <= dt -> () | _ -> best := Some (dt, v));
    incr n
  done;
  Option.get !best

(* Min-of-N cost of one operation, when the timed part performs [units]. *)
let unit_cost ?reps ?budget_s ~units prepare =
  fst (fastest ?reps ?budget_s prepare) /. float_of_int units

(* Peak resident set of a process, in MB ("VmHWM" of /proc/PID/status);
   nan where /proc is unavailable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> Float.nan
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
        in
        scan ())

(* Growable float sample buffer; one per client thread. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let length t = t.n
end
