open Tcp

type state = {
  mutable base_rtt_s : float;    (* running minimum of the smoothed RTT *)
  mutable next_adjust_s : float; (* Vegas acts once per RTT *)
}

let gamma = 1.0 (* backlog (packets) that ends slow start *)
let total_alpha = 10.0 (* global backlog budget, packets *)

(* This path's share of the global backlog budget, by rate. *)
let quota (ctx : Cc.ctx) =
  let total_rate = Coupled.rate_sum (ctx.Cc.group ()) in
  let own_rate = ctx.Cc.get_cwnd () /. ctx.Cc.srtt_s () in
  if total_rate <= 0.0 then 2.0
  else Float.max 2.0 (total_alpha *. own_rate /. total_rate)

let factory (ctx : Cc.ctx) =
  let st = { base_rtt_s = infinity; next_adjust_s = 0.0 } in
  let on_ack ~acked:_ =
    let now = ctx.Cc.now_s () in
    let rtt = ctx.Cc.srtt_s () in
    if rtt < st.base_rtt_s then st.base_rtt_s <- rtt;
    if now >= st.next_adjust_s then begin
      st.next_adjust_s <- now +. rtt;
      let cwnd = ctx.Cc.get_cwnd () in
      let diff = cwnd *. (1.0 -. (st.base_rtt_s /. rtt)) in
      if Cc.in_slow_start ctx then begin
        if diff > gamma then ctx.Cc.set_ssthresh cwnd (* leave slow start *)
        else ctx.Cc.set_cwnd (Float.min (2.0 *. cwnd) (ctx.Cc.get_ssthresh ()))
      end
      else begin
        let alpha = quota ctx in
        if diff < alpha then ctx.Cc.set_cwnd (cwnd +. 1.0)
        else if diff > alpha +. 2.0 then
          ctx.Cc.set_cwnd (Float.max Cc.min_cwnd (cwnd -. 1.0))
      end
    end
  in
  let on_loss () =
    Coupled.halve_on_loss ctx;
    (* A loss means the backlog estimate was stale: forget the epoch. *)
    st.next_adjust_s <- ctx.Cc.now_s () +. ctx.Cc.srtt_s ()
  in
  {
    Cc.on_ack;
    on_loss;
    on_rto = (fun () -> Coupled.collapse_on_rto ctx);
  }
