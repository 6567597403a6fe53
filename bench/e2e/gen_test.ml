(* Generator test: the seed alone fixes every input the benchmark feeds
   the program.  For every workload and a few seeds, the inputs rendered
   as text -- canonical scenario specs (seeds, churn scripts, background
   classes) and daemon request plans with their hot set -- come out
   byte-identical from two generations, and differ under the next seed.
   Exit code 1 on any failure. *)

let render name ~seed =
  match List.find_opt (fun d -> d.Sim_load.name = name) Sim_load.all with
  | Some d ->
    String.concat "\n"
      (List.map
         (fun (label, mk) -> label ^ " " ^ Core.Canon.text (mk ()))
         (d.Sim_load.build ~quick:false ~seed))
  | None ->
    let d = List.find (fun d -> d.Daemon_load.name = name) Daemon_load.all in
    String.concat "\n" (List.map Events.Sexp.to_string (Gen.hot_grids ~quick:false ~seed))
    ^ "\n"
    ^ Gen.plan_text ~seed ~miss_pct:d.Daemon_load.miss_pct
        ~clients:Daemon_load.clients ~n:2000

let () =
  let names =
    List.map (fun d -> d.Sim_load.name) Sim_load.all
    @ List.map (fun d -> d.Daemon_load.name) Daemon_load.all
  in
  let failures = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let a = render name ~seed and b = render name ~seed in
          let c = render name ~seed:(seed + 1) in
          let ok = a = b && a <> c in
          if not ok then incr failures;
          Printf.printf "%-4s %-14s seed %d: %d bytes, digest %s\n"
            (if ok then "ok" else "FAIL") name seed (String.length a)
            (Digest.to_hex (Digest.string a)))
        [ 1; 2; 3 ])
    names;
  exit (if !failures = 0 then 0 else 1)
