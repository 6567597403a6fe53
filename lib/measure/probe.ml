type t = {
  period : Engine.Time.t;
  started : Engine.Time.t;
  mutable values : float array;
  mutable size : int;
}

let push t v =
  let cap = Array.length t.values in
  if cap = 0 then t.values <- Array.make 256 v
  else if t.size = cap then begin
    let fresh = Array.make (2 * cap) v in
    Array.blit t.values 0 fresh 0 t.size;
    t.values <- fresh
  end;
  t.values.(t.size) <- v;
  t.size <- t.size + 1

let attach ~sched ~period ~until f =
  let t =
    { period; started = Engine.Sched.now sched; values = [||]; size = 0 }
  in
  Engine.Sched.periodic sched ~period ~until (fun () -> push t (f ()));
  t

let series t =
  Series.create
    ~t0:(Engine.Time.to_float_s t.started)
    ~dt:(Engine.Time.to_float_s t.period)
    (Array.sub t.values 0 t.size)

let samples t = t.size
