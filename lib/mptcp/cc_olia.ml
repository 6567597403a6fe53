open Tcp

let eps = 1e-9

(* Index sets over the group's slots (only established paths are
   considered, plus [self] so the deciding path always sees itself).
   Two flat passes over the group arrays: one caching each slot's
   loss-interval quality while finding the best quality and the max
   window, one counting B\M and M membership — the old version
   materialised the B\M and M sets as lists per ACK.

   The float scratch ([g.scratch] aggregates, [g.qualities] per-slot)
   lives in the group so the passes neither box floats (float-array
   stores are unboxed without flambda) nor race between parallel
   scenario runs on pool domains.  The counters are plain local int /
   bool refs: non-escaping immediate refs compile to mutable stack
   slots, so they cost nothing. *)
let alpha_for (g : Cc.group) ~self =
  let n = g.Cc.n in
  let cwnds = g.Cc.cwnds
  and srtts = g.Cc.srtts
  and lis = g.Cc.loss_intervals
  and est = g.Cc.established in
  let qw = g.Cc.scratch and qs = g.Cc.qualities in
  qw.(0) <- neg_infinity;
  qw.(1) <- neg_infinity;
  for i = 0 to n - 1 do
    if est.(i) || i = self then begin
      let l = lis.(i) in
      let q = l *. l /. srtts.(i) in
      qs.(i) <- q;
      if q > qw.(0) then qw.(0) <- q;
      if cwnds.(i) > qw.(1) then qw.(1) <- cwnds.(i)
    end
  done;
  let bq = qw.(0) -. eps and mw = qw.(1) -. eps in
  let n_best = ref 0 and n_max = ref 0 in
  let self_best = ref false and self_max = ref false in
  for i = 0 to n - 1 do
    if est.(i) || i = self then begin
      let in_b = qs.(i) >= bq in
      let in_m = cwnds.(i) >= mw in
      if in_b && not in_m then begin
        incr n_best;
        if i = self then self_best := true
      end;
      if in_m then begin
        incr n_max;
        if i = self then self_max := true
      end
    end
  done;
  let n_f = float_of_int n in
  if !n_best = 0 then 0.0
  else if !self_best then 1.0 /. (n_f *. float_of_int !n_best)
  else if !self_max then -1.0 /. (n_f *. float_of_int !n_max)
  else 0.0

let factory (ctx : Cc.ctx) =
  let on_ack ~acked =
    if not (Cc.slow_start_ack ctx ~acked) then begin
      let g = ctx.Cc.group () in
      let self = ctx.Cc.self_index () in
      let denom = Coupled.rate_sum g in
      let w = ctx.Cc.get_cwnd () in
      let rtt = ctx.Cc.srtt_s () in
      let coupled =
        if denom <= 0.0 then 0.0
        else w /. (rtt *. rtt) /. (denom *. denom)
      in
      let alpha = alpha_for g ~self in
      let acked_mss = float_of_int acked /. float_of_int ctx.Cc.mss in
      let inc = coupled +. (alpha /. w) in
      (* The increase may be negative on max-window paths; never shrink
         below the floor, and never faster than 1 MSS per MSS acked. *)
      let inc = Float.min inc (1.0 /. w) in
      ctx.Cc.set_cwnd (Float.max Cc.min_cwnd (w +. (inc *. acked_mss)))
    end
  in
  {
    Cc.on_ack;
    on_loss = (fun () -> Coupled.halve_on_loss ctx);
    on_rto = (fun () -> Coupled.collapse_on_rto ctx);
  }
