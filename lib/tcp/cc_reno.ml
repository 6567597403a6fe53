let factory (ctx : Cc.ctx) =
  let on_ack ~acked =
    if not (Cc.slow_start_ack ctx ~acked) then begin
      let cwnd = ctx.Cc.get_cwnd () in
      let acked_mss = float_of_int acked /. float_of_int ctx.Cc.mss in
      ctx.Cc.set_cwnd (cwnd +. (acked_mss /. cwnd))
    end
  in
  let on_loss () =
    let half = Float.max Cc.min_cwnd (ctx.Cc.get_cwnd () /. 2.0) in
    ctx.Cc.set_ssthresh half;
    ctx.Cc.set_cwnd half
  in
  let on_rto () =
    let half = Float.max Cc.min_cwnd (ctx.Cc.get_cwnd () /. 2.0) in
    ctx.Cc.set_ssthresh half;
    ctx.Cc.set_cwnd 1.0
  in
  { Cc.on_ack; on_loss; on_rto }
