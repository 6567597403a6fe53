(* Prints the micro-benchmark table (bench/micro.ml) on its own, without
   the figures, sweeps and ablations bench/main.exe runs first: the tight
   loop for iterating on a hot-path optimisation.

   Run with: dune exec bench/scratch.exe *)

let () =
  Engine.Gctune.tune ();
  ignore (Micro.run () : (string * float) list)
