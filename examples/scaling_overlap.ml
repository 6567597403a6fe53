(* Scaling the paper's construction: n pairwise-overlapping paths.

   The paper's introduction asks how complicated the optimization problem
   MPTCP faces can become.  This example generalises the Fig. 1 network
   to n paths, where every pair shares a dedicated bottleneck
   (C(n,2) coupled constraints), and measures how close each congestion
   controller gets to the LP optimum as n grows.

     dune exec examples/scaling_overlap.exe *)

let () =
  Format.printf
    "n pairwise-overlapping paths; caps 30 + 5(i+j) Mbps per pair@.@.";
  let rows =
    Core.Scaling.sweep ~ns:[ 2; 3; 4 ]
      ~ccs:Mptcp.Algorithm.[ Cubic; Lia; Olia ]
      ~duration:(Engine.Time.s 10) ()
  in
  Format.printf "%a@." Core.Scaling.pp_table rows;
  (* And the paper's own instance through the generator. *)
  let topo, paths =
    Netgraph.Generate.pairwise_overlap ~n:3
      ~cap_bps:Netgraph.Generate.paper_caps
  in
  let opt = Netgraph.Constraints.optimum topo paths in
  Format.printf
    "generator with the paper's capacities: optimum %.0f Mbps at (%s) — \
     matches Fig. 1c@."
    (opt.Netgraph.Constraints.total_bps /. 1e6)
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun v -> Printf.sprintf "%.0f" (v /. 1e6))
             opt.Netgraph.Constraints.per_path_bps)))
