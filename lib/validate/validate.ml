type path_report = {
  tag : Packet.tag;
  fluid_mbps : float;
  lp_mbps : float;
  sim_mbps : float option;
}

type t = {
  controller : Fluid.Controller.kind;
  diag : Fluid.Equilibrium.diag;
  per_path : path_report list;
  fluid_total_mbps : float;
  lp_total_mbps : float;
  sim_total_mbps : float option;
  lp_gap : float;
  max_sim_dev_mbps : float option;
  lp_feasible : bool;
}

let model_of_spec (spec : Core.Scenario.spec) =
  match Fluid.Controller.of_algorithm spec.Core.Scenario.cc with
  | None ->
    Error
      (Printf.sprintf "no fluid model for %s"
         (Mptcp.Algorithm.name spec.Core.Scenario.cc))
  | Some kind ->
    let config =
      { Fluid.Model.mss_bytes = spec.Core.Scenario.sender_config.Tcp.Sender.mss;
        buffer_pkts = spec.Core.Scenario.net_config.Netsim.Net.limit_pkts }
    in
    let paths = List.map snd spec.Core.Scenario.paths in
    Ok
      (Fluid.Model.compile spec.Core.Scenario.topo ~paths ~controller:kind ~config
         ())

let report_of ~spec ~m ~diag ~y ~sim =
  let tags = List.map fst spec.Core.Scenario.paths in
  let fluid_bps = Fluid.Model.rates_bps m y in
  let lp_bps = Core.Scenario.optimum_rates spec in
  let per_path =
    List.mapi
      (fun i tag ->
        { tag;
          fluid_mbps = fluid_bps.(i) /. 1e6;
          lp_mbps = lp_bps.(i) /. 1e6;
          sim_mbps = Option.map (fun rates -> List.assoc tag rates) sim })
      tags
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 per_path in
  let fluid_total = sum (fun r -> r.fluid_mbps) in
  let lp_total = sum (fun r -> r.lp_mbps) in
  let sim_total =
    Option.map (fun rates -> List.fold_left (fun a (_, r) -> a +. r) 0.0 rates)
      sim
  in
  let max_sim_dev =
    match sim with
    | None -> None
    | Some _ ->
      Some
        (List.fold_left
           (fun acc r ->
             match r.sim_mbps with
             | Some s -> Float.max acc (Float.abs (r.fluid_mbps -. s))
             | None -> acc)
           0.0 per_path)
  in
  { controller = Fluid.Model.controller m;
    diag;
    per_path;
    fluid_total_mbps = fluid_total;
    lp_total_mbps = lp_total;
    sim_total_mbps = sim_total;
    lp_gap = (if lp_total > 0.0 then (lp_total -. fluid_total) /. lp_total else 0.0);
    max_sim_dev_mbps = max_sim_dev;
    lp_feasible =
      Netgraph.Constraints.feasible ~slack_frac:0.01 (Fluid.Model.system m)
        ~x:fluid_bps }

let equilibrium ?tol (spec : Core.Scenario.spec) =
  match model_of_spec spec with
  | Error _ as e -> e
  | Ok m ->
    let y, diag = Fluid.Equilibrium.solve m ?tol () in
    Ok (report_of ~spec ~m ~diag ~y ~sim:None)

let against_sim ?tol (spec : Core.Scenario.spec) =
  match model_of_spec spec with
  | Error _ as e -> e
  | Ok m ->
    let y, diag = Fluid.Equilibrium.solve m ?tol () in
    let result = Core.Scenario.run spec in
    let sim = Core.Scenario.per_path_tail_mbps result in
    Ok (report_of ~spec ~m ~diag ~y ~sim:(Some sim))

let sweep ?jobs specs = Engine.Pool.map ?domains:jobs equilibrium specs

let pp ppf t =
  Format.fprintf ppf "@[<v>fluid %s equilibrium (%a)@,"
    (Fluid.Controller.name t.controller)
    Fluid.Equilibrium.pp_diag t.diag;
  Format.fprintf ppf "%-6s %12s %12s %12s@," "path" "fluid Mbps" "LP Mbps"
    "sim Mbps";
  List.iter
    (fun r ->
      Format.fprintf ppf "tag %-2d %12.2f %12.2f %12s@," r.tag r.fluid_mbps
        r.lp_mbps
        (match r.sim_mbps with
        | Some s -> Printf.sprintf "%.2f" s
        | None -> "-"))
    t.per_path;
  Format.fprintf ppf "total  %12.2f %12.2f %12s@," t.fluid_total_mbps
    t.lp_total_mbps
    (match t.sim_total_mbps with
    | Some s -> Printf.sprintf "%.2f" s
    | None -> "-");
  Format.fprintf ppf "LP gap %.1f%%, LP-feasible: %b" (100.0 *. t.lp_gap)
    t.lp_feasible;
  (match t.max_sim_dev_mbps with
  | Some d -> Format.fprintf ppf ", max |fluid-sim| %.2f Mbps" d
  | None -> ());
  Format.fprintf ppf "@]"
