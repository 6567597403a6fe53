open Tcp

let factory (ctx : Cc.ctx) =
  let on_ack ~acked =
    if not (Cc.slow_start_ack ctx ~acked) then begin
      let g = ctx.Cc.group () in
      let w_total = Coupled.total_cwnd g in
      let denom = Coupled.rate_sum g in
      let alpha =
        if denom <= 0.0 || w_total <= 0.0 then 0.0
        else w_total *. Coupled.max_rate2 g /. (denom *. denom)
      in
      let w = ctx.Cc.get_cwnd () in
      let acked_mss = float_of_int acked /. float_of_int ctx.Cc.mss in
      let coupled = if w_total > 0.0 then alpha /. w_total else 0.0 in
      let inc = Float.min coupled (1.0 /. w) in
      ctx.Cc.set_cwnd (w +. (inc *. acked_mss))
    end
  in
  {
    Cc.on_ack;
    on_loss = (fun () -> Coupled.halve_on_loss ctx);
    on_rto = (fun () -> Coupled.collapse_on_rto ctx);
  }
