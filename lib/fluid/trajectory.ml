type sample = {
  t : float;
  windows : float array;
  queues : float array;
  rates_mbps : float array;
  total_mbps : float;
}

let sample_of m ~t y =
  { t;
    windows = Model.windows m y;
    queues = Model.queues_pkts m y;
    rates_mbps = Array.map (fun r -> r /. 1e6) (Model.rates_bps m y);
    total_mbps = Model.total_mbps m y }

let run m ~horizon ~samples =
  if samples <= 0 then invalid_arg "Trajectory.run: samples must be positive";
  if not (Float.is_finite horizon) || horizon <= 0.0 then
    invalid_arg "Trajectory.run: horizon must be positive";
  let p = Model.problem m in
  let y = Model.initial m in
  p.Ode.project y;
  let dt = horizon /. float_of_int samples in
  let acc = ref { Ode.steps = 0; rejected = 0; last_dt = 0.0 } in
  let out = ref [ sample_of m ~t:0.0 y ] in
  for k = 1 to samples do
    let t0 = dt *. float_of_int (k - 1) in
    let t1 = dt *. float_of_int k in
    let stats = Ode.integrate p ~y ~t0 ~t1 () in
    acc := Ode.merge_stats !acc stats;
    out := sample_of m ~t:t1 y :: !out
  done;
  (List.rev !out, !acc)

let write_csv m ppf samples =
  let n = Model.n_flows m in
  let ids = Model.link_ids m in
  Format.fprintf ppf "t_s";
  for i = 0 to n - 1 do Format.fprintf ppf ",w%d" i done;
  Array.iter (fun id -> Format.fprintf ppf ",q_link%d" id) ids;
  for i = 0 to n - 1 do Format.fprintf ppf ",rate%d_mbps" i done;
  Format.fprintf ppf ",total_mbps@.";
  List.iter
    (fun s ->
      Format.fprintf ppf "%.6g" s.t;
      Array.iter (fun w -> Format.fprintf ppf ",%.6g" w) s.windows;
      Array.iter (fun q -> Format.fprintf ppf ",%.6g" q) s.queues;
      Array.iter (fun r -> Format.fprintf ppf ",%.6g" r) s.rates_mbps;
      Format.fprintf ppf ",%.6g@." s.total_mbps)
    samples
