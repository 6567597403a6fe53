(* The coupled-controller view of a connection is a flat "group": one
   float array per per-subflow quantity, refreshed in place by each
   sender.  The previous representation — a fresh array of sibling
   records rebuilt by closure on every ACK of every subflow — allocated
   the array, five-field records, and (records mixing floats with other
   fields) a box per float, all minor-GC churn on the per-ACK path.
   Here the aggregate inputs (established count, per-slot windows and
   RTTs) are updated incrementally by plain stores, and the controllers
   fold over unboxed float arrays. *)

type group = {
  n : int;                      (* subflows in the owning connection *)
  cwnds : float array;          (* congestion windows, MSS units *)
  srtts : float array;          (* smoothed RTTs, seconds *)
  loss_intervals : float array; (* OLIA l_p, bytes *)
  established : bool array;     (* has the slot sent at least one segment *)
  mutable n_established : int;  (* O(1) aggregate over [established] *)
  scratch : float array;        (* fold accumulators (see cc.mli) *)
  qualities : float array;      (* per-slot scratch, n cells *)
}

let group_create n =
  if n <= 0 then invalid_arg "Cc.group_create: need at least one slot";
  {
    n;
    cwnds = Array.make n 0.0;
    srtts = Array.make n 1.0;
    loss_intervals = Array.make n 0.0;
    established = Array.make n false;
    n_established = 0;
    scratch = Array.make 2 0.0;
    qualities = Array.make n 0.0;
  }

let group_set_established g i v =
  if g.established.(i) <> v then begin
    g.established.(i) <- v;
    g.n_established <- (g.n_established + if v then 1 else -1)
  end

type ctx = {
  now_s : unit -> float;
  mss : int;
  get_cwnd : unit -> float;
  set_cwnd : float -> unit;
  get_ssthresh : unit -> float;
  set_ssthresh : float -> unit;
  srtt_s : unit -> float;
  group : unit -> group;
  self_index : unit -> int;
}

type instance = {
  on_ack : acked:int -> unit;
  on_loss : unit -> unit;
  on_rto : unit -> unit;
}

type factory = ctx -> instance

let min_cwnd = 2.0

let in_slow_start ctx = ctx.get_cwnd () < ctx.get_ssthresh ()

let slow_start_ack ctx ~acked =
  let cwnd = ctx.get_cwnd () in
  let ssthresh = ctx.get_ssthresh () in
  if cwnd < ssthresh then begin
    let grown = cwnd +. (float_of_int acked /. float_of_int ctx.mss) in
    ctx.set_cwnd (Float.min grown ssthresh);
    true
  end
  else false
