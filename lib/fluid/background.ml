(* Background flow classes as fluid fields.

   A class aggregates [flows] identical single-path flows: one window
   state evolved by the controller's single-flow law
   (Controller.dwindows_single), or a constant per-flow rate for
   CBR-style classes.  Classes share directional link *channels*; each
   channel carries one queue state with the same quadratic loss ramp
   and Lipschitz boundary layers as Model, so the class fields and the
   connection model describe queues identically.  The channel's packet
   side (the foreground simulation) enters as an exogenous arrival rate
   refreshed each coarse tick; the field's outputs — occupancy and
   bandwidth share per channel — drive Netsim.Linkq's service and drop
   decisions through Driver below.

   Only windowed classes carry state.  A constant class has no
   dynamics, so it is an arrival term, not a state: the active constant
   classes that precede the first windowed class fold into a
   per-channel open-loop rate when they activate, and the rest are
   added in class order during each derivative evaluation, so every
   channel sums its arrivals in exactly the class order. *)

type law = Constant | Windowed of Controller.kind

type class_spec = {
  flows : int;
  law : law;
  flow_rate_pps : float;  (* Constant classes: per-flow sending rate *)
  base_rtt_s : float;
  chans : int array;      (* channel indices the class crosses *)
  start_s : float;        (* field time at which the class becomes active *)
}

type channel_spec = { cap_pps : float; limit_pkts : int }

(* State vector [y]: the windowed classes' windows in class order
   (positions [0, nw)), then the channel queues ([nw, nw + l)), then the
   CUBIC auxiliary pairs ([extra_off, dim)). *)
type t = {
  classes : class_spec array;
  c : int;
  l : int;
  nw : int;               (* windowed classes *)
  pos : int array;        (* class -> window position, or -1 if constant *)
  wcls : int array;       (* window position -> class *)
  first_w : int;          (* first windowed class, or [c] if none *)
  extra_off : int;
  dim : int;
  reno_idx : int array;   (* window positions of Reno/Lia/Olia classes *)
  cubic_idx : int array;  (* window positions of CUBIC classes *)
  cubic_pos : int array;  (* window position -> position in cubic_idx, or -1 *)
  cap_pps : float array;
  qmax : float array;
  q0 : float array;
  y : float array;
  mutable time_s : float;
  mutable last_dt : float;
  active : bool array;    (* per class, as of the last refresh *)
  mutable active_at : int;  (* [start_ptr] [active] was computed at, or -1 *)
  open_pps : float array; (* per channel: active constant classes before
                             [first_w], folded in class order *)
  starts : float array;   (* distinct future activation times, ascending *)
  mutable start_ptr : int;
  fg_pps : float array;   (* exogenous foreground arrival per channel *)
  (* scratch reused by [deriv]; a [t] is single-domain *)
  rtt : float array;      (* per window position *)
  loss : float array;
  rate : float array;     (* per-flow pps *)
  chan_loss : float array;
  chan_qdelay : float array;
  arrival : float array;  (* aggregate, foreground included *)
  qss_s : float array;    (* overload blend per channel, 0 = pure ODE *)
  qss_qeq : float array;  (* slaved equilibrium queue where qss_s > 0 *)
  (* outputs, refreshed after every [advance] *)
  occupancy : float array;
  departure : float array;  (* background bandwidth share, pps *)
  mutable steps : int;
  (* tick-level dormancy: a converged field holds its outputs and skips
     integration until an input moves or a class activates *)
  y_prev : float array;
  sleep_fg : float array;
  mutable calm : int;
  mutable dormant : bool;
  mutable dormant_skips : int;
}

(* Step-doubling error bound for [Ode.integrate]: coarser than the
   foreground default because class fields are aggregates. *)
let tol = 1e-4

let compile ~(channels : channel_spec array) ~classes () =
  let c = Array.length classes and l = Array.length channels in
  if c = 0 then invalid_arg "Background.compile: no classes";
  Array.iter
    (fun cl ->
      if cl.flows < 1 then invalid_arg "Background.compile: class without flows";
      if Array.length cl.chans = 0 then
        invalid_arg "Background.compile: class crosses no channel";
      Array.iter
        (fun ch ->
          if ch < 0 || ch >= l then
            invalid_arg "Background.compile: channel index out of range")
        cl.chans;
      match cl.law with
      | Constant ->
        if cl.flow_rate_pps <= 0.0 then
          invalid_arg "Background.compile: constant class needs a rate"
      | Windowed _ -> ())
    classes;
  let wcls =
    Array.of_seq
      (Seq.filter (fun i -> classes.(i).law <> Constant) (Seq.init c Fun.id))
  in
  let nw = Array.length wcls in
  let pos = Array.make c (-1) in
  Array.iteri (fun k i -> pos.(i) <- k) wcls;
  let reno = ref [] and cubic = ref [] in
  for k = nw - 1 downto 0 do
    match classes.(wcls.(k)).law with
    | Windowed Controller.Cubic -> cubic := k :: !cubic
    | Windowed (Controller.Reno | Controller.Lia | Controller.Olia) ->
      reno := k :: !reno
    | Constant -> ()
  done;
  let cubic_idx = Array.of_list !cubic in
  let cubic_pos = Array.make nw (-1) in
  Array.iteri (fun j k -> cubic_pos.(k) <- j) cubic_idx;
  let extra_off = nw + l in
  let dim = extra_off + (2 * Array.length cubic_idx) in
  let qmax =
    Array.map (fun ch -> float_of_int (max 1 ch.limit_pkts)) channels
  in
  let starts =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun cl -> if cl.start_s > 1e-12 then Hashtbl.replace tbl cl.start_s ())
      classes;
    let a = Array.of_seq (Hashtbl.to_seq_keys tbl) in
    Array.sort Float.compare a;
    a
  in
  let t =
    { classes;
      c;
      l;
      nw;
      pos;
      wcls;
      first_w = (if nw = 0 then c else wcls.(0));
      extra_off;
      dim;
      reno_idx = Array.of_list !reno;
      cubic_idx;
      cubic_pos;
      cap_pps = Array.map (fun (ch : channel_spec) -> ch.cap_pps) channels;
      qmax;
      q0 = Array.map (fun q -> Model.loss_start *. q) qmax;
      y = Array.make dim 0.0;
      time_s = 0.0;
      last_dt = 1e-4;
      active = Array.make c false;
      active_at = -1;
      open_pps = Array.make l 0.0;
      starts;
      start_ptr = 0;
      fg_pps = Array.make l 0.0;
      rtt = Array.make nw 0.0;
      loss = Array.make nw 0.0;
      rate = Array.make nw 0.0;
      chan_loss = Array.make l 0.0;
      chan_qdelay = Array.make l 0.0;
      arrival = Array.make l 0.0;
      qss_s = Array.make l 0.0;
      qss_qeq = Array.make l 0.0;
      occupancy = Array.make l 0.0;
      departure = Array.make l 0.0;
      steps = 0;
      y_prev = Array.make dim 0.0;
      sleep_fg = Array.make l 0.0;
      calm = 0;
      dormant = false;
      dormant_skips = 0 }
  in
  Array.fill t.y 0 nw Tcp.Cc.min_cwnd;
  t

let dim t = t.dim

(* Quasi-steady state for deeply overloaded channels.  The queue ODE's
   fast mode has rate [arrival * ramp'(q)]: under heavy overload the
   explicit stepper would be stability-limited to microsecond steps
   resolving a queue that is simply pinned at its equilibrium.  Above
   [qss_lo * capacity] we blend the integrated queue toward the
   algebraic equilibrium of the ramp — [p_eq = 1 - c/A], [q_eq =
   q0 + (qmax - q0) * sqrt p_eq] — reaching a pure slaved treatment at
   [qss_hi * capacity]; the blend uses the previous derivative
   evaluation's aggregate arrival, which moves on the slow (window)
   timescale.  Below [qss_lo] the dynamics are untouched. *)
let qss_lo = 1.5
let qss_hi = 2.5
let qss_tau = Model.boundary_tau

(* Dormancy: once [calm_ticks] consecutive advances each finish in a
   couple of accepted steps with relative state drift under [calm_eps],
   the field is at its operating point and further ticks are skipped
   outright.  A foreground-rate move beyond [wake_frac] of the
   channel's aggregate arrival, a capacity change or a pending class
   activation wakes it. *)
let calm_eps = 1e-5
let calm_ticks = 3
let wake_frac = 0.02

let wake t =
  t.dormant <- false;
  t.calm <- 0

let set_foreground t ~chan ~pps =
  let pps = Float.max 0.0 pps in
  if t.dormant then begin
    let scale =
      Float.max t.arrival.(chan) (0.01 *. t.cap_pps.(chan))
    in
    if Float.abs (pps -. t.sleep_fg.(chan)) > wake_frac *. scale then wake t
  end;
  t.fg_pps.(chan) <- pps

let set_capacity t ~chan ~cap_pps =
  if cap_pps <= 0.0 then invalid_arg "Background.set_capacity: rate <= 0";
  if
    t.dormant
    && Float.abs (cap_pps -. t.cap_pps.(chan)) > 1e-9 *. t.cap_pps.(chan)
  then wake t;
  t.cap_pps.(chan) <- cap_pps

(* Aggregate rate of a constant class: all its flows. *)
let constant_pps (cl : class_spec) = cl.flow_rate_pps *. float_of_int cl.flows

(* Which classes have started, and the open-loop arrival per channel of
   the active constant classes before the first windowed class.  The
   active set only changes when [start_ptr] moves, so [advance] calls
   this on its first integration and after each move. *)
let activate t =
  for i = 0 to t.c - 1 do
    t.active.(i) <- t.classes.(i).start_s <= t.time_s +. 1e-12
  done;
  Array.fill t.open_pps 0 t.l 0.0;
  for i = 0 to t.first_w - 1 do
    if t.active.(i) then begin
      let cl = t.classes.(i) in
      let agg = constant_pps cl in
      Array.iter (fun ch -> t.open_pps.(ch) <- t.open_pps.(ch) +. agg) cl.chans
    end
  done;
  t.active_at <- t.start_ptr

(* Channel queues and per-class views from a state vector (mid-step RK
   states may sit slightly outside the box, so reads are clamped).
   Arrivals start from the folded open-loop rate and continue over the
   remaining classes in class order; a constant class there only adds
   its aggregate rate. *)
let refresh t y =
  for ch = 0 to t.l - 1 do
    let q = Float.min t.qmax.(ch) (Float.max 0.0 y.(t.nw + ch)) in
    let cap = t.cap_pps.(ch) in
    let r = t.arrival.(ch) /. cap in
    let s =
      if r <= qss_lo then 0.0
      else if r >= qss_hi then 1.0
      else begin
        let u = (r -. qss_lo) /. (qss_hi -. qss_lo) in
        u *. u *. (3.0 -. (2.0 *. u))
      end
    in
    t.qss_s.(ch) <- s;
    if s = 0.0 then begin
      t.qss_qeq.(ch) <- 0.0;
      t.chan_loss.(ch) <- Model.ramp_loss ~q0:t.q0.(ch) ~qmax:t.qmax.(ch) q;
      t.chan_qdelay.(ch) <- q /. cap
    end
    else begin
      let p_eq = 1.0 -. (1.0 /. r) in
      let q_eq =
        t.q0.(ch) +. ((t.qmax.(ch) -. t.q0.(ch)) *. sqrt p_eq)
      in
      t.qss_qeq.(ch) <- q_eq;
      let ramp = Model.ramp_loss ~q0:t.q0.(ch) ~qmax:t.qmax.(ch) q in
      t.chan_loss.(ch) <- ((1.0 -. s) *. ramp) +. (s *. p_eq);
      t.chan_qdelay.(ch) <- (((1.0 -. s) *. q) +. (s *. q_eq)) /. cap
    end
  done;
  Array.blit t.open_pps 0 t.arrival 0 t.l;
  for i = t.first_w to t.c - 1 do
    let cl = Array.unsafe_get t.classes i in
    let chans = cl.chans in
    let k = Array.unsafe_get t.pos i in
    let agg =
      if k < 0 then
        if Array.unsafe_get t.active i then constant_pps cl else 0.0
      else begin
        let rtt = ref cl.base_rtt_s and surv = ref 1.0 in
        for j = 0 to Array.length chans - 1 do
          let ch = Array.unsafe_get chans j in
          rtt := !rtt +. Array.unsafe_get t.chan_qdelay ch;
          surv := !surv *. (1.0 -. Array.unsafe_get t.chan_loss ch)
        done;
        t.rtt.(k) <- !rtt;
        t.loss.(k) <- 1.0 -. !surv;
        let x =
          if not (Array.unsafe_get t.active i) then 0.0
          else Float.max Tcp.Cc.min_cwnd (Array.unsafe_get y k) /. !rtt
        in
        t.rate.(k) <- x;
        x *. float_of_int cl.flows
      end
    in
    if agg > 0.0 then
      for j = 0 to Array.length chans - 1 do
        let ch = Array.unsafe_get chans j in
        Array.unsafe_set t.arrival ch (Array.unsafe_get t.arrival ch +. agg)
      done
  done;
  for ch = 0 to t.l - 1 do
    t.arrival.(ch) <- t.arrival.(ch) +. t.fg_pps.(ch)
  done

let deriv t y dy =
  refresh t y;
  (* Queues: admitted aggregate arrivals minus drain, with Model's
     Lipschitz boundary layers at both box edges. *)
  let tau = Model.boundary_tau in
  for ch = 0 to t.l - 1 do
    let q = Float.max 0.0 y.(t.nw + ch) in
    let d =
      (t.arrival.(ch) *. (1.0 -. t.chan_loss.(ch))) -. t.cap_pps.(ch)
    in
    let d = Float.max d (-.q /. tau) in
    let d = Float.min d ((t.qmax.(ch) -. q) /. tau) in
    let s = t.qss_s.(ch) in
    let d =
      if s = 0.0 then d
      else ((1.0 -. s) *. d) +. (s *. ((t.qss_qeq.(ch) -. q) /. qss_tau))
    in
    dy.(t.nw + ch) <- d
  done;
  (* Windows, batched per law family. *)
  if Array.length t.reno_idx > 0 then
    Controller.dwindows_single Controller.Reno ~idx:t.reno_idx ~w:y ~rtt:t.rtt
      ~rate:t.rate ~loss:t.loss ~extras:y ~extras_off:t.extra_off ~dextras:dy
      ~out:dy;
  if Array.length t.cubic_idx > 0 then
    Controller.dwindows_single Controller.Cubic ~idx:t.cubic_idx ~w:y
      ~rtt:t.rtt ~rate:t.rate ~loss:t.loss ~extras:y ~extras_off:t.extra_off
      ~dextras:dy ~out:dy;
  (* Window floor boundary layer, and a frozen field for classes that
     have not started yet (their rate is zero, but CUBIC's epoch age
     would still tick). *)
  for k = 0 to t.nw - 1 do
    if not t.active.(t.wcls.(k)) then begin
      dy.(k) <- 0.0;
      let j = t.cubic_pos.(k) in
      if j >= 0 then begin
        dy.(t.extra_off + (2 * j)) <- 0.0;
        dy.(t.extra_off + (2 * j) + 1) <- 0.0
      end
    end
    else begin
      let slack = (y.(k) -. Tcp.Cc.min_cwnd) /. Model.boundary_tau in
      dy.(k) <- Float.max dy.(k) (-.Float.max 0.0 slack)
    end
  done

let project t y =
  let floor = Tcp.Cc.min_cwnd in
  for k = 0 to t.nw - 1 do
    if y.(k) < floor then y.(k) <- floor
  done;
  for ch = 0 to t.l - 1 do
    (* Fully slaved channels snap straight to the ramp equilibrium: a
       deeply overloaded queue fills in microseconds (qmax / excess
       arrival), far inside one step, so the snap is more accurate than
       relaxing toward it — and it kills the settle tail that would
       otherwise keep the field integrating for tens of ticks. *)
    if t.qss_s.(ch) = 1.0 then y.(t.nw + ch) <- t.qss_qeq.(ch)
    else begin
      let q = y.(t.nw + ch) in
      if q < 0.0 then y.(t.nw + ch) <- 0.0
      else if q > t.qmax.(ch) then y.(t.nw + ch) <- t.qmax.(ch)
    end
  done;
  for j = t.extra_off to t.dim - 1 do
    if y.(j) < 0.0 then y.(j) <- 0.0
  done

let problem t =
  { Ode.dim = t.dim; f = (fun y dy -> deriv t y dy); project = project t }

(* Final-state outputs: channel occupancy and the background's
   bandwidth share (its admitted arrivals, capped at capacity). *)
let refresh_outputs t =
  refresh t t.y;
  for ch = 0 to t.l - 1 do
    t.occupancy.(ch) <- Float.min t.qmax.(ch) (Float.max 0.0 t.y.(t.nw + ch));
    let bg_arr = Float.max 0.0 (t.arrival.(ch) -. t.fg_pps.(ch)) in
    t.departure.(ch) <-
      Float.min (bg_arr *. (1.0 -. t.chan_loss.(ch))) t.cap_pps.(ch)
  done

let advance t ~dt_s =
  if dt_s <= 0.0 then invalid_arg "Background.advance: non-positive step";
  (* A class activation landing inside this step means the dynamics are
     about to change: never sleep across it. *)
  let activating =
    t.start_ptr < Array.length t.starts
    && t.starts.(t.start_ptr) <= t.time_s +. dt_s +. 1e-12
  in
  if t.dormant && not activating then begin
    t.time_s <- t.time_s +. dt_s;
    t.dormant_skips <- t.dormant_skips + 1;
    { Ode.steps = 0; rejected = 0; last_dt = t.last_dt }
  end
  else begin
    if activating then wake t;
    if t.active_at <> t.start_ptr then activate t;
    Array.blit t.y 0 t.y_prev 0 t.dim;
    let stats =
      Ode.integrate (problem t) ~y:t.y ~t0:t.time_s ~t1:(t.time_s +. dt_s)
        ~dt0:t.last_dt ~tol ~dt_max:dt_s ()
    in
    t.time_s <- t.time_s +. dt_s;
    t.last_dt <- stats.Ode.last_dt;
    t.steps <- t.steps + stats.Ode.steps;
    while
      t.start_ptr < Array.length t.starts
      && t.starts.(t.start_ptr) <= t.time_s +. 1e-12
    do
      t.start_ptr <- t.start_ptr + 1
    done;
    refresh_outputs t;
    (* Quiescence: a cheap integration whose state barely moved.  After
       [calm_ticks] of those in a row, go dormant and hold the outputs
       until an input wakes the field. *)
    let drift = ref 0.0 in
    for i = 0 to t.dim - 1 do
      let d =
        Float.abs (t.y.(i) -. t.y_prev.(i)) /. (1.0 +. Float.abs t.y.(i))
      in
      if d > !drift then drift := d
    done;
    if
      stats.Ode.steps <= 2 && stats.Ode.rejected = 0 && !drift < calm_eps
      && not activating
    then begin
      t.calm <- t.calm + 1;
      if t.calm >= calm_ticks then begin
        t.dormant <- true;
        Array.blit t.fg_pps 0 t.sleep_fg 0 t.l
      end
    end
    else t.calm <- 0;
    stats
  end

let occupancy_pkts t ~chan = t.occupancy.(chan)
let departure_pps t ~chan = t.departure.(chan)

(* Per-flow rate and path loss of class [i] as of the last refresh.  A
   constant class's are not kept: they follow from [active] and the
   channel losses that refresh left. *)
let class_rate t i =
  let k = t.pos.(i) in
  if k >= 0 then t.rate.(k)
  else if t.active.(i) then t.classes.(i).flow_rate_pps
  else 0.0

let class_loss t i =
  let k = t.pos.(i) in
  if k >= 0 then t.loss.(k)
  else
    1.0
    -. Array.fold_left
         (fun surv ch -> surv *. (1.0 -. t.chan_loss.(ch)))
         1.0 t.classes.(i).chans

let offered_pps t =
  let acc = ref 0.0 in
  for i = 0 to t.c - 1 do
    acc := !acc +. (class_rate t i *. float_of_int t.classes.(i).flows)
  done;
  !acc

let goodput_pps t =
  let acc = ref 0.0 in
  for i = 0 to t.c - 1 do
    acc :=
      !acc
      +. (class_rate t i *. (1.0 -. class_loss t i)
         *. float_of_int t.classes.(i).flows)
  done;
  !acc

let ode_steps t = t.steps
let dormant_ticks t = t.dormant_skips

(* --- the co-simulation driver --- *)

module Driver = struct
  type decl = {
    links : (int * bool) array;  (* (topology link id, forward?) *)
    classes : int;
    flows : int;
    kind : Controller.kind option;  (* [None] = constant-rate *)
    flow_rate_bps : int;
    rtt_s : float;
    start_s : float;
  }

  type field = t

  type t = {
    field : field;
    qs : Netsim.Linkq.t array;  (* per channel *)
    tick_s : float;
    bits_per_pkt : float;
    prev_delivered : int array;
    fg_ewma : float array;
    mutable ticks : int;
  }

  (* Foreground-rate smoothing: one tick of history carries half the
     weight, so a single quiet tick cannot collapse the estimate. *)
  let fg_alpha = 0.5

  let tick d =
    let field = d.field in
    for ch = 0 to Array.length d.qs - 1 do
      let q = d.qs.(ch) in
      set_capacity field ~chan:ch
        ~cap_pps:(float_of_int (Netsim.Linkq.rate_bps q) /. d.bits_per_pkt);
      let delivered = (Netsim.Linkq.stats q).Netsim.Linkq.bytes_delivered in
      let inst =
        float_of_int ((delivered - d.prev_delivered.(ch)) * 8)
        /. d.tick_s /. d.bits_per_pkt
      in
      d.prev_delivered.(ch) <- delivered;
      d.fg_ewma.(ch) <-
        (if d.ticks = 0 then inst
         else (fg_alpha *. inst) +. ((1.0 -. fg_alpha) *. d.fg_ewma.(ch)));
      set_foreground field ~chan:ch ~pps:d.fg_ewma.(ch)
    done;
    ignore (advance field ~dt_s:d.tick_s);
    for ch = 0 to Array.length d.qs - 1 do
      Netsim.Linkq.set_background d.qs.(ch)
        ~occupancy_pkts:(occupancy_pkts field ~chan:ch)
        ~rate_bps:
          (int_of_float (departure_pps field ~chan:ch *. d.bits_per_pkt))
    done;
    d.ticks <- d.ticks + 1

  let attach ~sched ~net ~tick:period ~until
      ?(config = Model.default_config) decls =
    if Array.length decls = 0 then invalid_arg "Background.Driver: no classes";
    let bits_per_pkt = float_of_int (8 * config.Model.mss_bytes) in
    (* Dedup (link, direction) pairs into channels. *)
    let table = Hashtbl.create 16 in
    let qs = ref [] and n_chans = ref 0 in
    let chan_of (link, fwd) =
      match Hashtbl.find_opt table (link, fwd) with
      | Some ch -> ch
      | None ->
        let dir = if fwd then Netsim.Net.Fwd else Netsim.Net.Rev in
        let q = Netsim.Net.linkq net ~link ~dir in
        let ch = !n_chans in
        Hashtbl.add table (link, fwd) ch;
        qs := q :: !qs;
        incr n_chans;
        ch
    in
    (* A declaration expands into [classes] classes on one path.
       Windowed classes spread their propagation RTTs +/-15% around the
       declared mean so they don't move as one synchronized cohort;
       constant classes ignore RTT, so theirs share one spec. *)
    let expand decl =
      let n = decl.classes in
      if n < 1 then
        invalid_arg "Background.Driver: declaration without classes";
      let chans = Array.map chan_of decl.links in
      let spec law base_rtt_s =
        { flows = decl.flows;
          law;
          flow_rate_pps = float_of_int decl.flow_rate_bps /. bits_per_pkt;
          base_rtt_s;
          chans;
          start_s = decl.start_s }
      in
      match decl.kind with
      | None -> Array.make n (spec Constant decl.rtt_s)
      | Some k ->
        Array.init n (fun i ->
            let frac =
              if n = 1 then 0.5 else float_of_int i /. float_of_int (n - 1)
            in
            spec (Windowed k) (decl.rtt_s *. (0.85 +. (0.3 *. frac))))
    in
    let classes = Array.concat (Array.to_list (Array.map expand decls)) in
    let qs = Array.of_list (List.rev !qs) in
    let channels =
      Array.map
        (fun q ->
          { cap_pps = float_of_int (Netsim.Linkq.rate_bps q) /. bits_per_pkt;
            limit_pkts = Netsim.Linkq.limit_pkts q })
        qs
    in
    let d =
      { field = compile ~channels ~classes ();
        qs;
        tick_s = Engine.Time.to_float_s period;
        bits_per_pkt;
        prev_delivered = Array.map (fun _ -> 0) qs;
        fg_ewma = Array.make (Array.length qs) 0.0;
        ticks = 0 }
    in
    Engine.Sched.periodic sched ~period ~until (fun () -> tick d);
    d

  let field d = d.field
  let ticks d = d.ticks

  type summary = {
    classes : int;
    flows : int;
    channels : int;
    ticks : int;
    ode_steps : int;
    offered_mbps : float;
    goodput_mbps : float;
    max_occupancy_pkts : float;
  }

  let summary d =
    let f = d.field in
    let max_occ = Array.fold_left Float.max 0.0 f.occupancy in
    { classes = f.c;
      flows =
        Array.fold_left
          (fun acc (cl : class_spec) -> acc + cl.flows)
          0 f.classes;
      channels = f.l;
      ticks = d.ticks;
      ode_steps = f.steps;
      offered_mbps = offered_pps f *. d.bits_per_pkt /. 1e6;
      goodput_mbps = goodput_pps f *. d.bits_per_pkt /. 1e6;
      max_occupancy_pkts = max_occ }

  let pp_summary fmt s =
    Format.fprintf fmt
      "background: %d classes (%d flows) over %d channels, %d ticks \
       (%d ODE steps), offered %.1f Mbps, goodput %.1f Mbps, max queue \
       %.1f pkts"
      s.classes s.flows s.channels s.ticks s.ode_steps s.offered_mbps
      s.goodput_mbps s.max_occupancy_pkts
end
