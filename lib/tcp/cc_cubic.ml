(* All-float state record: OCaml stores float-only records flat, so the
   per-ACK field writes below never allocate a boxed float. *)
type state = {
  mutable w_max : float;        (* window just before the last reduction *)
  mutable epoch_start : float;  (* seconds; < 0 when no epoch is open *)
  mutable k : float;            (* time to regrow to w_max, seconds *)
  mutable origin : float;       (* plateau window of the current epoch *)
  mutable w_est : float;        (* Reno-equivalent window (TCP friendliness) *)
  mutable acked_in_epoch : float; (* MSS acked since epoch start *)
}

(* RFC 8312's constants; fast convergence is always on. *)
let c = 0.4
let beta = 0.7

(* Reno-equivalent window growth at the standard coupled rate
   (section 4.2): 3 (1-beta) / (1+beta) MSS per RTT. *)
let reno_gain = 3.0 *. (1.0 -. beta) /. (1.0 +. beta)

let make () =
  { w_max = 0.0; epoch_start = -1.0; k = 0.0; origin = 0.0; w_est = 0.0;
    acked_in_epoch = 0.0 }

let open_epoch st ~now ~cwnd =
  st.epoch_start <- now;
  st.acked_in_epoch <- 0.0;
  if cwnd < st.w_max then begin
    st.k <- Float.cbrt ((st.w_max -. cwnd) /. c);
    st.origin <- st.w_max
  end
  else begin
    st.k <- 0.0;
    st.origin <- cwnd
  end;
  st.w_est <- cwnd

let congestion_avoidance st (ctx : Cc.ctx) ~acked_mss =
  let now = ctx.Cc.now_s () in
  let cwnd = ctx.Cc.get_cwnd () in
  let rtt = ctx.Cc.srtt_s () in
  if st.epoch_start < 0.0 then open_epoch st ~now ~cwnd;
  st.acked_in_epoch <- st.acked_in_epoch +. acked_mss;
  (* Target window one RTT into the future (RFC 8312 section 4.1). *)
  let t = now -. st.epoch_start +. rtt in
  let dt = t -. st.k in
  let w_cubic = (c *. dt *. dt *. dt) +. st.origin in
  st.w_est <- st.w_est +. (reno_gain *. acked_mss /. cwnd);
  let target =
    if w_cubic < st.w_est then st.w_est
    else Float.min w_cubic (1.5 *. cwnd)
  in
  if target > cwnd then
    ctx.Cc.set_cwnd (cwnd +. ((target -. cwnd) /. cwnd *. acked_mss))
  else
    (* Minimal growth to stay responsive near the plateau. *)
    ctx.Cc.set_cwnd (cwnd +. (0.01 *. acked_mss /. cwnd))

let factory ctx =
  let st = make () in
  let on_ack ~acked =
    let acked_mss = float_of_int acked /. float_of_int ctx.Cc.mss in
    if not (Cc.slow_start_ack ctx ~acked) then
      congestion_avoidance st ctx ~acked_mss
  in
  let reduce () =
    let cwnd = ctx.Cc.get_cwnd () in
    st.epoch_start <- -1.0;
    if cwnd < st.w_max then
      (* Release capacity faster when the window is still shrinking. *)
      st.w_max <- cwnd *. (2.0 -. beta) /. 2.0
    else st.w_max <- cwnd;
    Float.max Cc.min_cwnd (cwnd *. beta)
  in
  let on_loss () =
    let w = reduce () in
    ctx.Cc.set_ssthresh w;
    ctx.Cc.set_cwnd w
  in
  let on_rto () =
    let w = reduce () in
    ctx.Cc.set_ssthresh w;
    ctx.Cc.set_cwnd 1.0
  in
  { Cc.on_ack; on_loss; on_rto }
