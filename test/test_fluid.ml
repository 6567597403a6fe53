(* Tests for the fluid-model engine: the integrator on a closed-form
   ODE, golden equilibria on the paper topology, LP feasibility via the
   shared constraint checker, and jobs-independence of batched
   sweeps. *)

let feps = 1e-6

let paper_spec cc =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:2 topo in
  Core.Scenario.make ~topo ~paths ~cc ()

let paper_model controller =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.paths topo in
  Fluid.Model.compile topo ~paths ~controller ()

(* --- float clamps --- *)

let minmax_matches_stdlib () =
  (* Every ordered pair of special and ordinary values, NaN and both
     zeros included: the fast path must return Stdlib's bits. *)
  let xs =
    [ Float.nan; -.Float.nan; 0.0; -0.0; 1.0; -1.0; 2.5; -2.5;
      Float.infinity; Float.neg_infinity; Float.min_float; -.Float.min_float;
      Float.max_float; -.Float.max_float; 1e-300; 0.5 ]
  in
  let same what f g x y =
    Alcotest.(check int64)
      (Printf.sprintf "%s %h %h" what x y)
      (Int64.bits_of_float (g x y))
      (Int64.bits_of_float (f x y))
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          same "min" Fluid.Minmax.min Float.min x y;
          same "max" Fluid.Minmax.max Float.max x y)
        xs)
    xs

(* --- integrator --- *)

let rk4_exponential_decay () =
  (* dy/dt = -y from y(0) = 1 over one unit of time: y(1) = e^-1.
     Step-doubling must hold the global error well under the per-step
     tolerance here (smooth scalar field). *)
  let p =
    { Fluid.Ode.dim = 1;
      f = (fun y dy -> dy.(0) <- -.y.(0));
      project = (fun _ -> ()) }
  in
  let y = [| 1.0 |] in
  let stats = Fluid.Ode.integrate p ~y ~t0:0.0 ~t1:1.0 ~tol:1e-9 () in
  Alcotest.(check (float 1e-7)) "e^-1" (exp (-1.0)) y.(0);
  Alcotest.(check bool) "accepted steps" true (stats.Fluid.Ode.steps > 0)

let rk4_projection_clamps () =
  (* A field pushing below zero with a [max 0] projection must pin the
     trajectory at the boundary instead of escaping the box. *)
  let p =
    { Fluid.Ode.dim = 1;
      f = (fun _ dy -> dy.(0) <- -10.0);
      project = (fun y -> if y.(0) < 0.0 then y.(0) <- 0.0) }
  in
  let y = [| 0.5 |] in
  ignore (Fluid.Ode.integrate p ~y ~t0:0.0 ~t1:1.0 ());
  Alcotest.(check (float feps)) "clamped at 0" 0.0 y.(0)

(* --- golden equilibria on the paper topology --- *)

(* Totals pinned from the verified equilibria (see doc/FLUID.md): the
   fluid model's analogue of the paper's Fig. 2 story.  OLIA attains
   the 90 Mbps LP optimum, LIA lands 2.2% short (only the 40 and 60
   Mbps links saturate at its equilibrium), CUBIC's uncoupled subflows
   overshare the 40 Mbps bottleneck and pay for it in total. *)
let solve_total kind =
  let m = paper_model kind in
  let y, diag = Fluid.Equilibrium.solve m () in
  Alcotest.(check bool)
    (Fluid.Controller.name kind ^ " converged")
    true diag.Fluid.Equilibrium.converged;
  (m, y, Fluid.Model.total_mbps m y)

let golden_cubic () =
  let m, y, total = solve_total Fluid.Controller.Cubic in
  Alcotest.(check (float 0.5)) "cubic total" 85.44 total;
  (* The uncoupled split: path 1 holds more of the shared 40 Mbps link
     than the LP's 10 Mbps allotment (paths are in plain 1, 2, 3
     order here, unlike the CLI's default-first tagged order). *)
  let rates = Fluid.Model.rates_bps m y in
  Alcotest.(check bool) "path-1 overshare" true (rates.(0) /. 1e6 > 12.0)

let golden_lia () =
  let _, _, total = solve_total Fluid.Controller.Lia in
  Alcotest.(check (float 0.5)) "lia total" 88.05 total;
  Alcotest.(check bool) "lia within 3% of LP" true (total >= 90.0 *. 0.97)

let golden_olia () =
  let m, y, total = solve_total Fluid.Controller.Olia in
  Alcotest.(check (float 0.5)) "olia total" 89.98 total;
  Alcotest.(check bool) "olia within 2% of LP" true (total >= 90.0 *. 0.98);
  (* Per-path: the LP vertex (10, 30, 50) in plain path order. *)
  let rates = Fluid.Model.rates_bps m y in
  Alcotest.(check (float 0.6)) "path 1" 10.0 (rates.(0) /. 1e6);
  Alcotest.(check (float 0.6)) "path 2" 30.0 (rates.(1) /. 1e6);
  Alcotest.(check (float 0.6)) "path 3" 50.0 (rates.(2) /. 1e6)

let paper_ordering () =
  (* The packet-sim ordering (Table 1) reproduced analytically:
     CUBIC < LIA < OLIA <= LP. *)
  let _, _, cubic = solve_total Fluid.Controller.Cubic in
  let _, _, lia = solve_total Fluid.Controller.Lia in
  let _, _, olia = solve_total Fluid.Controller.Olia in
  Alcotest.(check bool) "cubic < lia" true (cubic < lia);
  Alcotest.(check bool) "lia < olia" true (lia < olia);
  Alcotest.(check bool) "olia <= LP" true (olia <= 90.0 +. feps)

let cold_start_agrees () =
  (* The solver must find the same equilibrium from the cold start as
     from the warm start (same basin; only the iteration count
     differs). *)
  let m = paper_model Fluid.Controller.Lia in
  let y_warm, d1 = Fluid.Equilibrium.solve m () in
  let y_cold, d2 = Fluid.Equilibrium.solve m ~y0:(Fluid.Model.initial m) () in
  Alcotest.(check bool) "warm converged" true d1.Fluid.Equilibrium.converged;
  Alcotest.(check bool) "cold converged" true d2.Fluid.Equilibrium.converged;
  Alcotest.(check (float 0.1))
    "same total" (Fluid.Model.total_mbps m y_warm)
    (Fluid.Model.total_mbps m y_cold)

let lossy_pack_warm_start () =
  (* The 10%-loss scenario pack (PR 7): failover topology, LIA, a
     loss-set event at 0.5 s.  The fluid model compiles the same spec
     the simulator runs; the warm start must land in the same basin as
     the cold start, in no more iterations, and the totals are pinned
     as goldens against the 100 Mbps LP optimum of the 10 + 90 Mbps
     failover paths. *)
  let _topo, spec =
    Core.Expfile.load ~topo_file:"../examples/failover_topo.sexp"
      ~xp_file:"../examples/lossy_xp.sexp"
  in
  let m =
    match Validate.model_of_spec spec with
    | Ok m -> m
    | Error e -> Alcotest.failf "model_of_spec: %s" e
  in
  let y_warm, d_warm = Fluid.Equilibrium.solve m () in
  let y_cold, d_cold = Fluid.Equilibrium.solve m ~y0:(Fluid.Model.initial m) () in
  Alcotest.(check bool) "warm converged" true d_warm.Fluid.Equilibrium.converged;
  Alcotest.(check bool) "cold converged" true d_cold.Fluid.Equilibrium.converged;
  (* The whole point of Model.warm_start: seeding at the LP operating
     point must not cost more Newton iterations than the cold start. *)
  Alcotest.(check bool) "warm start no slower" true
    (d_warm.Fluid.Equilibrium.iterations <= d_cold.Fluid.Equilibrium.iterations);
  let warm_total = Fluid.Model.total_mbps m y_warm in
  (* Disjoint 10 + 90 Mbps paths: LIA saturates both, so the fluid
     equilibrium attains the LP optimum (no shared bottleneck to
     misallocate). *)
  Alcotest.(check (float 0.5)) "lossy-pack total" 100.0 warm_total;
  Alcotest.(check (float 0.1)) "same total" warm_total
    (Fluid.Model.total_mbps m y_cold);
  (* Golden + LP cross-check through the validation harness. *)
  (match Validate.equilibrium spec with
  | Error e -> Alcotest.failf "equilibrium: %s" e
  | Ok v ->
    Alcotest.(check (float 0.01)) "lp total" 100.0 v.Validate.lp_total_mbps;
    Alcotest.(check bool) "lp feasible" true v.Validate.lp_feasible;
    Alcotest.(check (float 0.1)) "harness agrees" warm_total
      v.Validate.fluid_total_mbps)

(* --- validation harness --- *)

let validate_lp_feasible () =
  List.iter
    (fun cc ->
      match Validate.equilibrium (paper_spec cc) with
      | Error e -> Alcotest.failf "%s: %s" (Mptcp.Algorithm.name cc) e
      | Ok v ->
        Alcotest.(check bool)
          (Mptcp.Algorithm.name cc ^ " feasible")
          true v.Validate.lp_feasible;
        (* The LP side of the report comes from the shared
           Core.Scenario.optimum_rates entry point. *)
        Alcotest.(check (float 0.01)) "lp total" 90.0
          v.Validate.lp_total_mbps)
    Mptcp.Algorithm.[ Cubic; Lia; Olia ]

let validate_rejects_unmodelled () =
  match Validate.equilibrium (paper_spec Mptcp.Algorithm.Balia) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "balia has no fluid model yet"

let sweep_jobs_deterministic () =
  (* Batched sweeps must be bit-identical across domain counts: each
     job compiles its own model, so nothing is shared. *)
  let specs =
    List.concat_map
      (fun cc -> [ paper_spec cc; paper_spec cc ])
      Mptcp.Algorithm.[ Cubic; Lia; Olia ]
  in
  let run jobs =
    List.map
      (function
        | Ok v ->
          List.map (fun p -> p.Validate.fluid_mbps)
            v.Validate.per_path
        | Error e -> Alcotest.failf "sweep: %s" e)
      (Validate.sweep ~jobs specs)
  in
  let r1 = run 1 and r4 = run 4 in
  List.iter2
    (List.iter2 (fun a b ->
         Alcotest.(check bool) "bit-identical" true (Float.equal a b)))
    r1 r4

let () =
  Alcotest.run "fluid"
    [
      ( "minmax",
        [ Alcotest.test_case "matches Stdlib bit for bit" `Quick
            minmax_matches_stdlib ] );
      ( "ode",
        [
          Alcotest.test_case "rk4 exponential decay" `Quick
            rk4_exponential_decay;
          Alcotest.test_case "projection clamps" `Quick rk4_projection_clamps;
        ] );
      ( "equilibrium",
        [
          Alcotest.test_case "golden cubic" `Quick golden_cubic;
          Alcotest.test_case "golden lia" `Quick golden_lia;
          Alcotest.test_case "golden olia" `Quick golden_olia;
          Alcotest.test_case "paper ordering" `Quick paper_ordering;
          Alcotest.test_case "cold start agrees" `Quick cold_start_agrees;
          Alcotest.test_case "lossy pack warm start" `Quick
            lossy_pack_warm_start;
        ] );
      ( "validate",
        [
          Alcotest.test_case "lp feasible" `Quick validate_lp_feasible;
          Alcotest.test_case "rejects unmodelled" `Quick
            validate_rejects_unmodelled;
          Alcotest.test_case "sweep jobs=1 = jobs=4" `Quick
            sweep_jobs_deterministic;
        ] );
    ]
