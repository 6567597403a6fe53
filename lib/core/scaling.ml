type row = {
  n : int;
  cc : Mptcp.Algorithm.t;
  optimal_mbps : float;
  achieved_mbps : float;
  ratio : float;
  time_to_opt_s : float option;
}

let one ~n ~cc ~duration =
  let topo, paths =
    Netgraph.Generate.pairwise_overlap ~n
      ~cap_bps:(Netgraph.Generate.spread_caps ~base_mbps:30 ~step_mbps:5)
  in
  let spec =
    Scenario.make ~topo ~paths:(Mptcp.Path_manager.tag_paths paths) ~cc
      ~duration ~sampling:(Engine.Time.ms 100) ~seed:1 ()
  in
  let r = Scenario.run spec in
  let optimal_mbps = Scenario.optimal_total_mbps r in
  let achieved_mbps = Scenario.tail_mean_mbps r in
  {
    n;
    cc;
    optimal_mbps;
    achieved_mbps;
    ratio = achieved_mbps /. optimal_mbps;
    time_to_opt_s = Scenario.time_to_optimum_s r;
  }

let sweep ?(ns = [ 2; 3; 4; 5 ])
    ?(ccs = Mptcp.Algorithm.[ Cubic; Lia; Olia ])
    ?(duration = Engine.Time.s 15) ?jobs () =
  let grid = List.concat_map (fun n -> List.map (fun cc -> (n, cc)) ccs) ns in
  Engine.Pool.map ?domains:jobs (fun (n, cc) -> one ~n ~cc ~duration) grid

let pp_table fmt rows =
  Format.fprintf fmt "@[<v>%-4s %-7s %-10s %-10s %-7s %-8s@," "n" "cc"
    "opt[Mbps]" "got[Mbps]" "ratio" "t_opt[s]";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-4d %-7s %-10.1f %-10.1f %-7.3f %-8s@," r.n
        (Mptcp.Algorithm.name r.cc) r.optimal_mbps r.achieved_mbps r.ratio
        (match r.time_to_opt_s with
        | Some t -> Printf.sprintf "%.2f" t
        | None -> "never"))
    rows;
  Format.fprintf fmt "@]"

let to_csv rows =
  Measure.Render.to_csv
    ~header:[ "n"; "cc_id"; "optimal_mbps"; "achieved_mbps"; "ratio" ]
    ~rows:
      (List.map
         (fun r ->
           [ float_of_int r.n;
             float_of_int
               (match r.cc with
               | Mptcp.Algorithm.Cubic -> 0
               | Mptcp.Algorithm.Reno -> 1
               | Mptcp.Algorithm.Lia -> 2
               | Mptcp.Algorithm.Olia -> 3
               | Mptcp.Algorithm.Balia -> 4
               | Mptcp.Algorithm.Ewtcp -> 5
               | Mptcp.Algorithm.Wvegas -> 6);
             r.optimal_mbps; r.achieved_mbps; r.ratio ])
         rows)
