type kind = Reno | Cubic | Lia | Olia

let name = function
  | Reno -> "reno"
  | Cubic -> "cubic"
  | Lia -> "lia"
  | Olia -> "olia"

let of_string s =
  match String.lowercase_ascii s with
  | "reno" -> Some Reno
  | "cubic" -> Some Cubic
  | "lia" -> Some Lia
  | "olia" -> Some Olia
  | _ -> None

let of_algorithm = function
  | Mptcp.Algorithm.Cubic -> Some Cubic
  | Mptcp.Algorithm.Reno -> Some Reno
  | Mptcp.Algorithm.Lia -> Some Lia
  | Mptcp.Algorithm.Olia -> Some Olia
  | Mptcp.Algorithm.Balia | Mptcp.Algorithm.Ewtcp | Mptcp.Algorithm.Wvegas ->
    None

let to_algorithm = function
  | Reno -> Mptcp.Algorithm.Reno
  | Cubic -> Mptcp.Algorithm.Cubic
  | Lia -> Mptcp.Algorithm.Lia
  | Olia -> Mptcp.Algorithm.Olia

let extra_dim = function Cubic -> 2 | Reno | Lia | Olia -> 0

type view = {
  n : int;
  w : float array;
  rtt : float array;
  rate : float array;
  loss : float array;
}

(* CUBIC parameters, matching Tcp.Cc_cubic.factory's defaults. *)
let cubic_c = 0.4
let cubic_beta = 0.7
let reno_gain = 3.0 *. (1.0 -. cubic_beta) /. (1.0 +. cubic_beta)

let eps = 1e-9

(* Sum of w_k / rtt_k over every subflow — Coupled.rate_sum with all
   subflows established, as every subflow is from the start. *)
let rate_sum v =
  let acc = ref 0.0 in
  for k = 0 to v.n - 1 do acc := !acc +. v.rate.(k) done;
  !acc

let max_rate2 v =
  let acc = ref 0.0 in
  for k = 0 to v.n - 1 do
    let r = v.w.(k) /. (v.rtt.(k) *. v.rtt.(k)) in
    if r > !acc then acc := r
  done;
  !acc

(* OLIA's alpha, from Mptcp.Cc_olia.alpha_for with the loss interval
   l_p taken at its fluid mean of 1/p packets — but with the packet
   law's hard set memberships ("best quality", "largest window")
   replaced by continuous ramps over a relative band.  The exact
   indicator sets make the vector field discontinuous exactly at the
   equilibrium OLIA steers towards (where path qualities tie), so the
   relaxation chatters instead of settling; the membership band keeps
   the same sets away from ties and smooths the boundary. *)
let olia_band = 0.25

(* Membership in [0,1]: 1 at the set's argmax, fading to 0 below
   (1 - band) of it. *)
let member x top =
  if top <= 0.0 then 0.0
  else begin
    let lo = (1.0 -. olia_band) *. top in
    if x <= lo then 0.0
    else begin
      let u = Minmax.min 1.0 ((x -. lo) /. (olia_band *. top)) in
      (* C1 smoothstep: no derivative kink at either edge. *)
      u *. u *. (3.0 -. (2.0 *. u))
    end
  end

let olia_quality v k =
  let l = 1.0 /. Minmax.max v.loss.(k) 1e-12 in
  l *. l /. v.rtt.(k)

let dwindows kind v ~extras ~dextras ~k_memo ~out =
  let n = v.n in
  match kind with
  | Reno ->
    for i = 0 to n - 1 do
      let w = v.w.(i) and x = v.rate.(i) and p = v.loss.(i) in
      out.(i) <- (x *. (1.0 -. p) /. w) -. (x *. p *. w *. 0.5)
    done
  | Lia ->
    let denom = rate_sum v in
    let coupled =
      if denom <= 0.0 then 0.0 else max_rate2 v /. (denom *. denom)
    in
    for i = 0 to n - 1 do
      let w = v.w.(i) and x = v.rate.(i) and p = v.loss.(i) in
      let inc = Minmax.min coupled (1.0 /. w) in
      out.(i) <- (x *. (1.0 -. p) *. inc) -. (x *. p *. w *. 0.5)
    done
  | Olia ->
    let denom = rate_sum v in
    let inv_denom2 =
      if denom <= 0.0 then 0.0 else 1.0 /. (denom *. denom)
    in
    (* The coupled sums and both argmax sets are shared by every
       subflow; one pass sizes them, a second hands out the alphas. *)
    let best_q = ref 0.0 and max_w = ref 0.0 in
    for k = 0 to n - 1 do
      let q = olia_quality v k in
      if q > !best_q then best_q := q;
      if v.w.(k) > !max_w then max_w := v.w.(k)
    done;
    let c_sum = ref 0.0 and m_sum = ref 0.0 in
    for k = 0 to n - 1 do
      let mu_b = member (olia_quality v k) !best_q in
      let mu_m = member v.w.(k) !max_w in
      c_sum := !c_sum +. (mu_b *. (1.0 -. mu_m));
      m_sum := !m_sum +. mu_m
    done;
    (* The packet law hands +1/n to the collected set and -1/n to the
       maxers, split per member; the gate fades both out as the
       collected set empties (no redistribution when best paths already
       carry the largest windows). *)
    let scale =
      if !c_sum <= eps then 0.0
      else Minmax.min 1.0 !c_sum /. float_of_int n
    in
    for i = 0 to n - 1 do
      let w = v.w.(i) and x = v.rate.(i) and p = v.loss.(i) in
      let alpha =
        if scale = 0.0 then 0.0
        else begin
          let mu_b = member (olia_quality v i) !best_q in
          let mu_m = member w !max_w in
          let c = mu_b *. (1.0 -. mu_m) in
          scale *. ((c /. !c_sum) -. (mu_m /. Minmax.max !m_sum eps))
        end
      in
      let coupled = w /. (v.rtt.(i) *. v.rtt.(i)) *. inv_denom2 in
      let inc = Minmax.min (coupled +. (alpha /. w)) (1.0 /. w) in
      out.(i) <- (x *. (1.0 -. p) *. inc) -. (x *. p *. w *. 0.5)
    done
  | Cubic ->
    for i = 0 to n - 1 do
      let w = v.w.(i) and x = v.rate.(i) and p = v.loss.(i) in
      let ack_rate = x *. (1.0 -. p) in
      let loss_rate = x *. p in
      let s = extras.(2 * i) and w_max = extras.((2 * i) + 1) in
      let arg = Minmax.max 0.0 (w_max *. (1.0 -. cubic_beta)) /. cubic_c in
      (* A finite-difference Jacobian moves one state per call, so
         [w_max], and with it [K], is mostly the last call's. *)
      let k =
        if arg = k_memo.(2 * i) then k_memo.((2 * i) + 1)
        else begin
          let k = Float.cbrt arg in
          k_memo.(2 * i) <- arg;
          k_memo.((2 * i) + 1) <- k;
          k
        end
      in
      let ds = s -. k in
      let growth_cubic = 3.0 *. cubic_c *. ds *. ds in
      let growth_reno = ack_rate *. reno_gain /. w in
      (* The packet law clamps the one-RTT target at 1.5 cwnd. *)
      let growth_cap = 0.5 *. w /. v.rtt.(i) in
      let growth =
        Minmax.min (Minmax.max growth_cubic growth_reno) growth_cap
      in
      dextras.(2 * i) <- 1.0 -. (loss_rate *. s);
      dextras.((2 * i) + 1) <- loss_rate *. (w -. w_max);
      out.(i) <- growth -. (loss_rate *. (1.0 -. cubic_beta) *. w)
    done

(* The n = 1 specialization of [dwindows], applied independently to the
   classes listed in [idx] — the law Fluid.Background evaluates for
   thousands of single-path flow classes per call.  For LIA the coupled
   increase [max_rate2 / denom^2] collapses to [1/w] when a connection
   has one subflow, and OLIA's redistribution alphas vanish (its only
   path is both best-quality and largest-window), so both share Reno's
   law exactly — no approximation.  CUBIC keeps its two auxiliary
   states, stored compactly: position [j] in [idx] owns slots
   [extras_off + 2j] and [extras_off + 2j + 1] of [extras]/[dextras]. *)
let dwindows_single kind ~idx ~w ~rtt ~rate ~loss ~extras ~extras_off ~dextras
    ~out =
  let n = Array.length idx in
  match kind with
  | Reno | Lia | Olia ->
    for j = 0 to n - 1 do
      let i = Array.unsafe_get idx j in
      let wi = Array.unsafe_get w i
      and x = Array.unsafe_get rate i
      and p = Array.unsafe_get loss i in
      Array.unsafe_set out i
        ((x *. (1.0 -. p) /. wi) -. (x *. p *. wi *. 0.5))
    done
  | Cubic ->
    for j = 0 to n - 1 do
      let i = Array.unsafe_get idx j in
      let wi = Array.unsafe_get w i
      and x = Array.unsafe_get rate i
      and p = Array.unsafe_get loss i in
      let ack_rate = x *. (1.0 -. p) in
      let loss_rate = x *. p in
      let s = Array.unsafe_get extras (extras_off + (2 * j))
      and w_max = Array.unsafe_get extras (extras_off + (2 * j) + 1) in
      let k =
        Float.cbrt (Minmax.max 0.0 (w_max *. (1.0 -. cubic_beta)) /. cubic_c)
      in
      let ds = s -. k in
      let growth_cubic = 3.0 *. cubic_c *. ds *. ds in
      let growth_reno = ack_rate *. reno_gain /. wi in
      let growth_cap = 0.5 *. wi /. Array.unsafe_get rtt i in
      let growth =
        Minmax.min (Minmax.max growth_cubic growth_reno) growth_cap
      in
      Array.unsafe_set dextras (extras_off + (2 * j))
        (1.0 -. (loss_rate *. s));
      Array.unsafe_set dextras
        (extras_off + (2 * j) + 1)
        (loss_rate *. (wi -. w_max));
      Array.unsafe_set out i
        (growth -. (loss_rate *. (1.0 -. cubic_beta) *. wi))
    done

let init_extras kind ~n = Array.make (extra_dim kind * n) 0.0

let seed_extras kind ~w ~loss_rate =
  let n = Array.length w in
  let e = Array.make (extra_dim kind * n) 0.0 in
  (match kind with
  | Cubic ->
    for i = 0 to n - 1 do
      (* At a fluid equilibrium dw_max = 0 forces w_max = w, and
         ds = 1 - x p s = 0 pins the epoch age at the mean loss
         interval 1 / (x p); fall back to the age where cubic growth
         vanishes when the seed carries no loss yet. *)
      let lr = loss_rate i in
      e.(2 * i) <-
        (if lr > eps then 1.0 /. lr
         else Float.cbrt (w.(i) *. (1.0 -. cubic_beta) /. cubic_c));
      e.((2 * i) + 1) <- w.(i)
    done
  | Reno | Lia | Olia -> ());
  e
