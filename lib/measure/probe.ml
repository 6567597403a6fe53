type t = {
  period : Engine.Time.t;
  started : Engine.Time.t;
  values : float array;
  mutable size : int;
}

let attach ~sched ~period ~until f =
  if Engine.Time.( <= ) period Engine.Time.zero then
    invalid_arg "Probe.attach: period must be positive";
  let started = Engine.Sched.now sched in
  (* [periodic] fires at [started + k * period] for every k >= 1 that
     lands at or before [until]: that many samples, known now. *)
  let ticks = max 0 ((until - started) / period) in
  let t = { period; started; values = Array.make ticks 0.0; size = 0 } in
  Engine.Sched.periodic sched ~period ~until (fun () ->
      t.values.(t.size) <- f ();
      t.size <- t.size + 1);
  t

let series t =
  Series.create
    ~t0:(Engine.Time.to_float_s t.started)
    ~dt:(Engine.Time.to_float_s t.period)
    (Array.sub t.values 0 t.size)

let samples t = t.size
