type config = { mss_bytes : int; buffer_pkts : int }

let default_config = { mss_bytes = Packet.default_mss; buffer_pkts = 16 }
let loss_start = 0.5

type t = {
  topo : Netgraph.Topology.t;
  paths : Netgraph.Path.t array;
  kind : Controller.kind;
  config : config;
  sys : Netgraph.Constraints.system;
  n : int;  (* subflows *)
  m : int;  (* links with traffic *)
  extra_off : int;
  dim : int;
  cap_pps : float array;         (* per link row *)
  flow_links : int array array;  (* per flow: link-row indices *)
  base_rtt : float array;        (* 2x propagation, seconds *)
  qmax : float;
  q0 : float;
  (* scratch reused by [deriv]; a [t] is single-domain *)
  view : Controller.view;
  link_loss : float array;
  link_qdelay : float array;  (* clamped q / capacity, seconds *)
  link_surv : float array;    (* 1 - link loss *)
  link_arrival : float array;
  extras : float array;
  dextras : float array;
  k_memo : float array;
}

let compile topo ~paths ~controller ?(config = default_config) () =
  let sys = Netgraph.Constraints.extract topo paths in
  let paths = sys.Netgraph.Constraints.paths in
  let n = Array.length paths in
  let m = Array.length sys.Netgraph.Constraints.link_rows in
  let bits_per_pkt = float_of_int (8 * config.mss_bytes) in
  let cap_pps =
    Array.map (fun b -> b /. bits_per_pkt) sys.Netgraph.Constraints.b
  in
  let flow_links =
    Array.init n (fun i ->
        let rows = ref [] in
        for l = m - 1 downto 0 do
          if sys.Netgraph.Constraints.a.(l).(i) > 0.0 then rows := l :: !rows
        done;
        Array.of_list !rows)
  in
  let base_rtt =
    Array.map
      (fun p ->
        2.0 *. Engine.Time.to_float_s (Netgraph.Path.one_way_delay topo p))
      paths
  in
  let qmax = float_of_int config.buffer_pkts in
  let extra = Controller.extra_dim controller * n in
  { topo;
    paths;
    kind = controller;
    config;
    sys;
    n;
    m;
    extra_off = n + m;
    dim = n + m + extra;
    cap_pps;
    flow_links;
    base_rtt;
    qmax;
    q0 = loss_start *. qmax;
    view =
      { Controller.n;
        w = Array.make n 0.0;
        rtt = Array.make n 0.0;
        rate = Array.make n 0.0;
        loss = Array.make n 0.0 };
    link_loss = Array.make m 0.0;
    link_qdelay = Array.make m 0.0;
    link_surv = Array.make m 0.0;
    link_arrival = Array.make m 0.0;
    extras = Array.make extra 0.0;
    dextras = Array.make extra 0.0;
    k_memo = Array.make extra Float.nan }

(* Width (in pseudo-time seconds) of the Lipschitz boundary layer that
   replaces hard derivative stalls at the state box's edges. *)
let boundary_tau = 2e-3

(* Quadratic loss ramp from the knee [q0] to the full buffer [qmax] —
   the one field compilation shared between the connection model here
   and the per-class background fields in {!Background}, so both
   engines agree on what a given queue level means. *)
let[@inline] ramp ~q0 ~qmax q =
  if q <= q0 then 0.0
  else begin
    let r = Minmax.min 1.0 ((q -. q0) /. (qmax -. q0)) in
    r *. r
  end

let ramp_loss ~q0 ~qmax q = ramp ~q0 ~qmax (Minmax.min qmax (Minmax.max 0.0 q))

let controller t = t.kind
let n_flows t = t.n
let link_ids t = Array.copy t.sys.Netgraph.Constraints.link_rows
let system t = t.sys

(* Fill [t.view] and [t.link_loss] from a state vector.  Mid-step RK
   states may sit slightly outside the box, so reads are clamped. *)
let refresh_view t y =
  let v = t.view in
  for l = 0 to t.m - 1 do
    let q = Minmax.min t.qmax (Minmax.max 0.0 (Array.unsafe_get y (t.n + l))) in
    let p = ramp ~q0:t.q0 ~qmax:t.qmax q in
    Array.unsafe_set t.link_loss l p;
    Array.unsafe_set t.link_surv l (1.0 -. p);
    Array.unsafe_set t.link_qdelay l (q /. Array.unsafe_get t.cap_pps l)
  done;
  for i = 0 to t.n - 1 do
    let w = Minmax.max Tcp.Cc.min_cwnd (Array.unsafe_get y i) in
    let rtt = ref (Array.unsafe_get t.base_rtt i) in
    let surv = ref 1.0 in
    let links = Array.unsafe_get t.flow_links i in
    for j = 0 to Array.length links - 1 do
      let l = Array.unsafe_get links j in
      rtt := !rtt +. Array.unsafe_get t.link_qdelay l;
      surv := !surv *. Array.unsafe_get t.link_surv l
    done;
    Array.unsafe_set v.Controller.w i w;
    Array.unsafe_set v.Controller.rtt i !rtt;
    Array.unsafe_set v.Controller.rate i (w /. !rtt);
    Array.unsafe_set v.Controller.loss i (1.0 -. !surv)
  done

let deriv t y dy =
  refresh_view t y;
  let v = t.view in
  (* Aggregate per-link arrivals. *)
  Array.fill t.link_arrival 0 t.m 0.0;
  for i = 0 to t.n - 1 do
    let links = Array.unsafe_get t.flow_links i in
    let rate = Array.unsafe_get v.Controller.rate i in
    for j = 0 to Array.length links - 1 do
      let l = Array.unsafe_get links j in
      Array.unsafe_set t.link_arrival l
        (Array.unsafe_get t.link_arrival l +. rate)
    done
  done;
  (* Queues: admitted arrivals minus drain.  The box edges are handled
     with a Lipschitz boundary layer rather than a hard stall: within
     [boundary_tau] of the edge the outward component fades linearly
     ([dq >= -q / tau], [dq <= (qmax - q) / tau]), so the field is
     continuous across the boundary — a hard zero-at-the-edge stall
     would put a jump discontinuity exactly where underloaded queues
     sit, breaking both the step-doubling error estimate and the
     Newton polish of {!Equilibrium}. *)
  for l = 0 to t.m - 1 do
    let q = Minmax.max 0.0 y.(t.n + l) in
    let d = (t.link_arrival.(l) *. (1.0 -. t.link_loss.(l))) -. t.cap_pps.(l) in
    let d = Minmax.max d (-.q /. boundary_tau) in
    let d = Minmax.min d ((t.qmax -. q) /. boundary_tau) in
    dy.(t.n + l) <- d
  done;
  (* Windows and controller extras; the same boundary layer keeps the
     field Lipschitz at the window floor. *)
  let extra = t.dim - t.extra_off in
  if extra > 0 then Array.blit y t.extra_off t.extras 0 extra;
  Controller.dwindows t.kind v ~extras:t.extras ~dextras:t.dextras
    ~k_memo:t.k_memo ~out:dy;
  for i = 0 to t.n - 1 do
    let slack = (y.(i) -. Tcp.Cc.min_cwnd) /. boundary_tau in
    dy.(i) <- Minmax.max dy.(i) (-.Minmax.max 0.0 slack)
  done;
  if extra > 0 then Array.blit t.dextras 0 dy t.extra_off extra

let project t y =
  for i = 0 to t.n - 1 do
    if y.(i) < Tcp.Cc.min_cwnd then y.(i) <- Tcp.Cc.min_cwnd
  done;
  for l = 0 to t.m - 1 do
    let q = y.(t.n + l) in
    if q < 0.0 then y.(t.n + l) <- 0.0
    else if q > t.qmax then y.(t.n + l) <- t.qmax
  done;
  for j = t.extra_off to t.dim - 1 do
    if y.(j) < 0.0 then y.(j) <- 0.0
  done

let problem t =
  { Ode.dim = t.dim; f = (fun y dy -> deriv t y dy); project = project t }


let initial t =
  let y = Array.make t.dim 0.0 in
  for i = 0 to t.n - 1 do y.(i) <- Tcp.Cc.min_cwnd done;
  let e = Controller.init_extras t.kind ~n:t.n in
  Array.blit e 0 y t.extra_off (Array.length e);
  y

let warm_start t =
  let opt =
    Netgraph.Constraints.optimum t.topo (Array.to_list t.paths)
  in
  let bits_per_pkt = float_of_int (8 * t.config.mss_bytes) in
  let y = Array.make t.dim 0.0 in
  (* Queues inside the loss ramp on the LP's binding links and empty
     elsewhere (underloaded, pinned at the box edge).  The queue level
     is chosen so the link's loss probability matches the Reno-style
     window balance p ~ 2 / w^2 of the flows crossing it (split across
     each flow's binding links): the warm loss then roughly balances
     the window growth, not just the queue drain.  Never seed exactly
     at the knee — there both [p] and [dp/dq] vanish (the ramp is
     quadratic), so every state that only moves through loss (CUBIC's
     epoch age and w_max) would have an identically zero Jacobian row
     and Newton could not start. *)
  let binding = Array.make t.m false in
  List.iter
    (fun (link_id, _) ->
      Array.iteri
        (fun l id -> if id = link_id then binding.(l) <- true)
        t.sys.Netgraph.Constraints.link_rows)
    opt.Netgraph.Constraints.bottlenecks;
  (* First pass: provisional windows at knee-level queues, to size the
     loss balance. *)
  let rates = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    rates.(i) <- opt.Netgraph.Constraints.per_path_bps.(i) /. bits_per_pkt
  done;
  let w_rough = Array.make t.n 0.0 in
  let n_binding = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let rtt = ref t.base_rtt.(i) in
    let links = t.flow_links.(i) in
    for j = 0 to Array.length links - 1 do
      let l = links.(j) in
      if binding.(l) then begin
        rtt := !rtt +. (t.q0 /. t.cap_pps.(l));
        n_binding.(i) <- n_binding.(i) + 1
      end
    done;
    w_rough.(i) <- Minmax.max Tcp.Cc.min_cwnd (rates.(i) *. !rtt)
  done;
  for l = 0 to t.m - 1 do
    if binding.(l) then begin
      (* Average the per-flow loss targets over the flows that cross
         this link. *)
      let acc = ref 0.0 and cnt = ref 0 in
      for i = 0 to t.n - 1 do
        let links = t.flow_links.(i) in
        for j = 0 to Array.length links - 1 do
          if links.(j) = l then begin
            let w = w_rough.(i) in
            acc :=
              !acc
              +. (2.0 /. (w *. w) /. float_of_int (max 1 n_binding.(i)));
            incr cnt
          end
        done
      done;
      let p = if !cnt = 0 then 0.0 else !acc /. float_of_int !cnt in
      (* Invert the quadratic ramp, keeping a floor inside it. *)
      let r = Minmax.min 0.9 (Minmax.max 0.02 (sqrt p)) in
      y.(t.n + l) <- t.q0 +. (r *. (t.qmax -. t.q0))
    end
  done;
  (* Windows sized to send exactly the LP-optimal rates at those
     queues. *)
  for i = 0 to t.n - 1 do
    let rtt = ref t.base_rtt.(i) in
    let links = t.flow_links.(i) in
    for j = 0 to Array.length links - 1 do
      let l = links.(j) in
      rtt := !rtt +. (y.(t.n + l) /. t.cap_pps.(l))
    done;
    y.(i) <- Minmax.max Tcp.Cc.min_cwnd (rates.(i) *. !rtt)
  done;
  let w = Array.sub y 0 t.n in
  refresh_view t y;
  let e =
    Controller.seed_extras t.kind ~w ~loss_rate:(fun i ->
        t.view.Controller.rate.(i) *. t.view.Controller.loss.(i))
  in
  Array.blit e 0 y t.extra_off (Array.length e);
  y

let windows t y = Array.sub y 0 t.n

let queues_pkts t y = Array.sub y t.n t.m

let rates_bps t y =
  refresh_view t y;
  let bits_per_pkt = float_of_int (8 * t.config.mss_bytes) in
  Array.init t.n (fun i ->
      t.view.Controller.rate.(i)
      *. (1.0 -. t.view.Controller.loss.(i))
      *. bits_per_pkt)

let total_mbps t y =
  let r = rates_bps t y in
  Array.fold_left ( +. ) 0.0 r /. 1e6
