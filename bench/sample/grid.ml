(* The paper_grid workload's work without the benchmark harness, as a
   target for the sampler: the paper's 9 runs (CUBIC, LIA and OLIA x
   default path 1/2/3 on the paper net, 2 s each) run 30 times, round r
   at scenario seed r.

   Run with: dune exec bench/sample/grid.exe *)

let rounds = 30

let () =
  let topo = Core.Paper_net.topology () in
  for seed = 1 to rounds do
    List.iter
      (fun cc ->
        List.iter
          (fun default ->
            let paths = Core.Paper_net.tagged_paths ~default topo in
            let spec =
              Core.Scenario.make ~topo ~paths ~cc
                ~duration:(Engine.Time.s 2) ~seed ()
            in
            ignore (Core.Scenario.run spec : Core.Scenario.result))
          [ 1; 2; 3 ])
      Mptcp.Algorithm.[ Cubic; Lia; Olia ]
  done
