type row = {
  cc : Mptcp.Algorithm.t;
  default_path : int;
  seeds : int;
  reached : int;
  mean_time_to_opt_s : float;
  mean_tail_mbps : float;
  tail_std_mbps : float;
  mean_dips : float;
  tail_cv : float;
}

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let cell_specs ~cc ~default_path ~seeds ~duration =
  List.map
    (fun seed ->
      let topo = Paper_net.topology () in
      let paths = Paper_net.tagged_paths ~default:default_path topo in
      Scenario.make ~topo ~paths ~cc ~duration ~sampling:(Engine.Time.ms 100)
        ~seed ())
    seeds

let cell_of_runs ~cc ~default_path ~tolerance runs =
  let times =
    List.filter_map (Scenario.time_to_optimum_s ~tolerance ~hold:3) runs
  in
  let target = Paper_net.optimal_total_mbps in
  let tails = List.map Scenario.tail_mean_mbps runs in
  {
    cc;
    default_path;
    seeds = List.length runs;
    reached = List.length times;
    mean_time_to_opt_s = mean times;
    mean_tail_mbps = mean tails;
    tail_std_mbps =
      (match Measure.Stats.summarise tails with
      | Some s -> s.Measure.Stats.std
      | None -> Float.nan);
    mean_dips =
      mean
        (List.map
           (fun r ->
             float_of_int
               (Measure.Converge.dip_count r.Scenario.total ~target ~tolerance
                  ()))
           runs);
    tail_cv =
      mean
        (List.map
           (fun r ->
             let from_s =
               0.75 *. Engine.Time.to_float_s r.Scenario.spec.Scenario.duration
             in
             Measure.Converge.coefficient_of_variation r.Scenario.total
               ~from_s)
           runs);
  }

(* The grid is flattened to individual (cc, default, seed) scenario runs
   — the unit of parallelism — then folded back into per-cell rows, so a
   parallel sweep aggregates exactly the same runs in the same order as
   a serial one. *)
let sweep
    ?(ccs =
      Mptcp.Algorithm.[ Cubic; Lia; Olia; Balia; Ewtcp; Wvegas ])
    ?(defaults = [ 1; 2; 3 ]) ?(seeds = [ 1; 2; 3 ])
    ?(duration = Engine.Time.s 20) ?jobs () =
  let tolerance = 0.05 in
  let cells =
    List.concat_map
      (fun cc -> List.map (fun default_path -> (cc, default_path)) defaults)
      ccs
  in
  let specs =
    List.concat_map
      (fun (cc, default_path) -> cell_specs ~cc ~default_path ~seeds ~duration)
      cells
  in
  let runs = Engine.Pool.map ?domains:jobs Scenario.run specs in
  let per_cell = List.length seeds in
  let rec chunk acc runs = function
    | [] -> List.rev acc
    | (cc, default_path) :: rest ->
      let mine = List.filteri (fun i _ -> i < per_cell) runs in
      let others = List.filteri (fun i _ -> i >= per_cell) runs in
      chunk
        (cell_of_runs ~cc ~default_path ~tolerance mine :: acc)
        others rest
  in
  chunk [] runs cells

let pp_table fmt rows =
  Format.fprintf fmt
    "@[<v>%-7s %-7s %-8s %-10s %-14s %-7s %-7s@,"
    "cc" "default" "reached" "t_opt[s]" "tail[Mbps]" "dips" "tailCV";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-7s %-7d %d/%-6d %-10s %5.1f +/-%-5.1f %-7.1f %-7.3f@,"
        (Mptcp.Algorithm.name r.cc)
        r.default_path r.reached r.seeds
        (if r.reached = 0 then "never"
         else Printf.sprintf "%.2f" r.mean_time_to_opt_s)
        r.mean_tail_mbps
        (if Float.is_nan r.tail_std_mbps then 0.0 else r.tail_std_mbps)
        r.mean_dips r.tail_cv)
    rows;
  Format.fprintf fmt "@]"

let to_csv rows =
  Measure.Render.to_csv
    ~header:
      [ "cc_id"; "default_path"; "seeds"; "reached"; "mean_time_to_opt_s";
        "mean_tail_mbps"; "tail_std_mbps"; "mean_dips"; "tail_cv" ]
    ~rows:
      (List.map
         (fun r ->
           [ float_of_int
               (match r.cc with
               | Mptcp.Algorithm.Cubic -> 0
               | Mptcp.Algorithm.Reno -> 1
               | Mptcp.Algorithm.Lia -> 2
               | Mptcp.Algorithm.Olia -> 3
               | Mptcp.Algorithm.Balia -> 4
               | Mptcp.Algorithm.Ewtcp -> 5
               | Mptcp.Algorithm.Wvegas -> 6);
             float_of_int r.default_path;
             float_of_int r.seeds;
             float_of_int r.reached;
             r.mean_time_to_opt_s;
             r.mean_tail_mbps;
             r.tail_std_mbps;
             r.mean_dips;
             r.tail_cv ])
         rows)
