open Tcp

let factory (ctx : Cc.ctx) =
  let on_ack ~acked =
    if not (Cc.slow_start_ack ctx ~acked) then begin
      let n = Coupled.active_count (ctx.Cc.group ()) in
      let gain = 1.0 /. Float.sqrt (float_of_int (max 1 n)) in
      let w = ctx.Cc.get_cwnd () in
      let acked_mss = float_of_int acked /. float_of_int ctx.Cc.mss in
      ctx.Cc.set_cwnd (w +. (gain *. acked_mss /. w))
    end
  in
  {
    Cc.on_ack;
    on_loss = (fun () -> Coupled.halve_on_loss ctx);
    on_rto = (fun () -> Coupled.collapse_on_rto ctx);
  }
