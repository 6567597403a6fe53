(* Tests for the domain worker pool: order preservation, exception
   propagation, pool reuse, and agreement with the serial path. *)

open Engine

exception Boom of int

let check_ints = Alcotest.(check (list int))

let map_preserves_order () =
  let xs = List.init 100 (fun i -> i) in
  check_ints "parallel = serial"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~domains:4 (fun x -> x * x) xs)

let map_serial_shortcut () =
  let xs = [ 3; 1; 4; 1; 5 ] in
  check_ints "domains:1 is List.map" (List.map succ xs)
    (Pool.map ~domains:1 succ xs)

let map_edge_lists () =
  check_ints "empty" [] (Pool.map ~domains:4 succ []);
  check_ints "singleton" [ 2 ] (Pool.map ~domains:4 succ [ 1 ])

let map_uneven_work () =
  (* Fast jobs must not overtake slow ones in the result list. *)
  let work x =
    let spin = if x mod 7 = 0 then 200_000 else 10 in
    let acc = ref 0 in
    for i = 1 to spin do
      acc := !acc + ((x + i) land 1023)
    done;
    (x, !acc)
  in
  let xs = List.init 50 (fun i -> i) in
  Alcotest.(check bool) "ordered despite uneven cost" true
    (Pool.map ~domains:3 work xs = List.map work xs)

let exceptions_propagate () =
  Alcotest.check_raises "raises the failing job's exception" (Boom 7)
    (fun () ->
      ignore
        (Pool.map ~domains:3
           (fun x -> if x = 7 then raise (Boom 7) else x)
           (List.init 20 (fun i -> i))))

let exception_lowest_index_wins () =
  (* Several failures: the propagated one must be deterministic (the
     lowest input index), whatever the worker interleaving. *)
  for _ = 1 to 5 do
    Alcotest.check_raises "lowest index" (Boom 2) (fun () ->
        ignore
          (Pool.map ~domains:4
             (fun x -> if x >= 2 then raise (Boom x) else x)
             [ 0; 1; 2; 3; 4; 5 ]))
  done

let pool_reuse () =
  let pool = Pool.create ~domains:2 () in
  Alcotest.(check int) "two workers" 2 (Pool.size pool);
  let batch f xs =
    List.map Pool.await (List.map (fun x -> Pool.submit pool (fun () -> f x)) xs)
  in
  let a = batch succ [ 1; 2; 3 ] in
  let b = batch (fun s -> s) [ "x"; "y" ] in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  check_ints "first batch" [ 2; 3; 4 ] a;
  Alcotest.(check (list string)) "second batch" [ "x"; "y" ] b

let rejects_bad_domains () =
  Alcotest.check_raises "create 0"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Pool.create ~domains:0 ()));
  Alcotest.check_raises "map 0"
    (Invalid_argument "Pool.map: domains must be >= 1") (fun () ->
      ignore (Pool.map ~domains:0 succ [ 1; 2 ]))

let default_domains_positive () =
  Alcotest.(check bool) "at least one" true (Pool.default_domains () >= 1)

let parallel_simulations_deterministic () =
  (* The real workload: independent schedulers/RNGs per job.  Running
     the same seeded simulation on 1 and 4 domains must agree. *)
  let sim seed =
    let sched = Sched.create () in
    let rng = Rng.create seed in
    let count = ref 0 in
    let rec tick n () =
      count := !count + (Rng.int rng 97);
      if n > 0 then
        ignore (Sched.after sched (Time.us (1 + Rng.int rng 50)) (tick (n - 1)))
    in
    ignore (Sched.at sched Time.zero (tick 200));
    Sched.run sched;
    (!count, Sched.events_processed sched)
  in
  let seeds = List.init 8 (fun i -> i + 1) in
  Alcotest.(check bool) "1 domain = 4 domains" true
    (Pool.map ~domains:1 sim seeds = Pool.map ~domains:4 sim seeds)

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "preserves order" `Quick map_preserves_order;
          Alcotest.test_case "domains:1 shortcut" `Quick map_serial_shortcut;
          Alcotest.test_case "empty and singleton" `Quick map_edge_lists;
          Alcotest.test_case "uneven job cost" `Quick map_uneven_work;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "propagate to caller" `Quick exceptions_propagate;
          Alcotest.test_case "lowest index wins" `Quick
            exception_lowest_index_wins;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "reuse across batches" `Quick pool_reuse;
          Alcotest.test_case "bad domain counts rejected" `Quick
            rejects_bad_domains;
          Alcotest.test_case "default_domains >= 1" `Quick
            default_domains_positive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded sims agree across domain counts" `Quick
            parallel_simulations_deterministic;
        ] );
    ]
