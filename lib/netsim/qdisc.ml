type red = {
  min_th : int;
  max_th : int;
  max_p : float;
  weight : float;
  ecn : bool;
}

type codel = { target : Engine.Time.t; interval : Engine.Time.t }

type t =
  | Drop_tail
  | Red of red
  | Codel of codel
  | Broken_oversubscribe

let default_red =
  { min_th = 5; max_th = 15; max_p = 0.1; weight = 0.002; ecn = false }

let default_red_ecn = { default_red with ecn = true }

let default_codel = { target = Engine.Time.ms 5; interval = Engine.Time.ms 100 }

type state = {
  (* RED *)
  mutable avg : float;
  mutable since_drop : int;
  (* CoDel (RFC 8289 pseudocode variables) *)
  mutable first_above_time : Engine.Time.t; (* 0 = not above target *)
  mutable dropping : bool;
  mutable drop_next : Engine.Time.t;
  mutable drop_count : int;
}

let make_state (_ : t) =
  { avg = 0.0; since_drop = 0; first_above_time = 0; dropping = false;
    drop_next = 0; drop_count = 0 }

type decision = Admit | Mark | Drop

let decide t state ~queue_pkts ~limit_pkts ~ecn_capable ~rng =
  match t with
  | Broken_oversubscribe -> Admit (* deliberately ignores limit_pkts *)
  | _ when queue_pkts >= limit_pkts -> Drop
  | Drop_tail | Codel _ -> Admit (* CoDel acts at dequeue *)
    | Red { min_th; max_th; max_p; weight; ecn } ->
      state.avg <-
        ((1.0 -. weight) *. state.avg) +. (weight *. float_of_int queue_pkts);
      let congest () = if ecn && ecn_capable then Mark else Drop in
      if state.avg < float_of_int min_th then begin
        state.since_drop <- state.since_drop + 1;
        Admit
      end
      else if state.avg >= float_of_int max_th then begin
        state.since_drop <- 0;
        congest ()
      end
      else begin
        (* Early-drop region: probability grows linearly with the average
           and with the count of packets admitted since the last drop
           (Floyd-Jacobson uniformisation). *)
        let pb =
          max_p *. (state.avg -. float_of_int min_th)
          /. float_of_int (max_th - min_th)
        in
        let pa =
          let denom = 1.0 -. (float_of_int state.since_drop *. pb) in
          if denom <= 0.0 then 1.0 else pb /. denom
        in
        if Engine.Rng.float rng 1.0 < pa then begin
          state.since_drop <- 0;
          congest ()
        end
        else begin
          state.since_drop <- state.since_drop + 1;
          Admit
        end
      end

(* CoDel control law: the next drop comes interval / sqrt(count) after
   the previous one, so the drop rate gently increases while the queue
   stays bloated. *)
let control_law codel state now =
  now
  + int_of_float
      (float_of_int codel.interval
       /. Float.sqrt (float_of_int (max 1 state.drop_count)))

let dequeue_drop t state ~sojourn ~now =
  match t with
  | Drop_tail | Red _ | Broken_oversubscribe -> false
  | Codel codel ->
    if sojourn < codel.target then begin
      (* Below target: leave the dropping state entirely. *)
      state.first_above_time <- 0;
      state.dropping <- false;
      false
    end
    else if not state.dropping then begin
      if state.first_above_time = 0 then begin
        state.first_above_time <- now + codel.interval;
        false
      end
      else if now >= state.first_above_time then begin
        (* Sojourn stayed above target for a whole interval: start
           dropping. *)
        state.dropping <- true;
        state.drop_count <- (if state.drop_count > 2 then state.drop_count - 2
                             else 1);
        state.drop_next <- control_law codel state now;
        true
      end
      else false
    end
    else if now >= state.drop_next then begin
      state.drop_count <- state.drop_count + 1;
      state.drop_next <- control_law codel state now;
      true
    end
    else false

let avg_queue state = state.avg
