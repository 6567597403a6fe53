open Tcp

let alpha ctx =
  let g = ctx.Cc.group () in
  let x_r = ctx.Cc.get_cwnd () /. ctx.Cc.srtt_s () in
  if x_r <= 0.0 then 1.0 else Float.max 1.0 (Coupled.max_rate g /. x_r)

let factory (ctx : Cc.ctx) =
  let on_ack ~acked =
    if not (Cc.slow_start_ack ctx ~acked) then begin
      let g = ctx.Cc.group () in
      let sum = Coupled.rate_sum g in
      if sum > 0.0 then begin
        let w = ctx.Cc.get_cwnd () in
        let rtt = ctx.Cc.srtt_s () in
        let a = alpha ctx in
        let x_r = w /. rtt in
        let inc =
          x_r /. rtt /. (sum *. sum) *. ((1.0 +. a) /. 2.0)
          *. ((4.0 +. a) /. 5.0)
        in
        let acked_mss = float_of_int acked /. float_of_int ctx.Cc.mss in
        let inc = Float.min inc (1.0 /. w) in
        ctx.Cc.set_cwnd (w +. (inc *. acked_mss))
      end
    end
  in
  let on_loss () =
    let w = ctx.Cc.get_cwnd () in
    let a = alpha ctx in
    let next = Float.max Cc.min_cwnd (w -. (w /. 2.0 *. Float.min a 1.5)) in
    ctx.Cc.set_ssthresh next;
    ctx.Cc.set_cwnd next
  in
  {
    Cc.on_ack;
    on_loss;
    on_rto = (fun () -> Coupled.collapse_on_rto ctx);
  }
