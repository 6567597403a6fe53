(* The repository benchmark: five seeded workloads, measured from
   outside the libraries.

   One workload, in this process (the form BENCHMARK.json runs):
     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--json FILE] [--trace-out FILE] [--quick]
   prints a human report, then as its last line one JSON object with
   the keys correct, attempted, failed and metrics: the end-to-end
   metrics with --trace 0, the per-layer ones with --trace 1.

   Every workload, each in its own child process:
     main.exe --seed N [--seconds S] [--json FILE] [--quick] [--expect FILE]
     main.exe --traced [--seed N] [--trace-out FILE] [--quick] [--expect FILE]
   With --expect BENCHMARK.json, every workload must also report exactly
   the metrics that file lists (end_to_end untraced, per_layer traced),
   by name and unit.

   One set-up sample of a simulation workload (Sim_load.setup_sample):
     main.exe --setup-only --workload NAME --seed N [--quick]

   The exit code is 0 only when every result check passed.  Scratch
   files (the daemon's socket and store) live under _e2e/ in the
   working directory and are removed on every exit path, together with
   any daemon still running. *)

let workloads =
  List.map (fun d -> d.Sim_load.name) Sim_load.all
  @ List.map (fun d -> d.Daemon_load.name) Daemon_load.all

let default_seconds = 22.
let scratch_root = "_e2e"

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--json FILE] [--trace-out FILE] [--quick]\n\
    \       main.exe --seed N [--seconds S] [--json FILE] [--quick] [--expect FILE]\n\
    \       main.exe --traced [--seed N] [--trace-out FILE] [--quick] [--expect FILE]";
  Printf.eprintf "workloads: %s\n" (String.concat " " workloads);
  exit 2

type args = {
  workload : string option;
  seed : int;
  seconds : float option;
  trace : bool;
  quick : bool;
  json : string option;
  trace_out : string option;
  expect : string option;
  setup_only : bool;
}

let parse_args argv =
  let a =
    ref
      { workload = None; seed = 1; seconds = None; trace = false; quick = false;
        json = None; trace_out = None; expect = None; setup_only = false }
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      a := { !a with quick = true };
      go rest
    | "--traced" :: rest ->
      a := { !a with trace = true };
      go rest
    | "--setup-only" :: rest ->
      a := { !a with setup_only = true };
      go rest
    | flag :: v :: rest -> (
      let int () = match int_of_string_opt v with Some n -> n | None -> usage () in
      (match flag with
      | "--workload" ->
        if not (List.mem v workloads) then usage ();
        a := { !a with workload = Some v }
      | "--seed" -> a := { !a with seed = int () }
      | "--seconds" -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> a := { !a with seconds = Some s }
        | _ -> usage ())
      | "--trace" -> (
        match v with
        | "0" -> a := { !a with trace = false }
        | "1" -> a := { !a with trace = true }
        | _ -> usage ())
      | "--json" -> a := { !a with json = Some v }
      | "--trace-out" -> a := { !a with trace_out = Some v }
      | "--expect" -> a := { !a with expect = Some v }
      | _ -> usage ());
      go rest)
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  !a

(* ---- scratch directory and cleanup ---- *)

let make_scratch () =
  (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.temp_dir ~temp_dir:scratch_root "run" ""

let cleanup tmp () =
  Daemon_load.kill_all ();
  Cfg.kill_children ();
  Cfg.rm_rf tmp;
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

let install_cleanup tmp =
  at_exit (cleanup tmp);
  let quit _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  (* a daemon that hangs up mid-request must surface as an error *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ---- one workload ---- *)

let print_self_times () =
  match Span.self_by_name () with
  | [] -> ()
  | rows ->
    print_endline "self time by span:";
    List.iteri
      (fun k (name, (n, s)) ->
        if k < 12 then Printf.printf "  %-22s %8d spans %10.3f ms\n" name n (1e3 *. s))
      rows;
    if !Span.dropped > 0 then
      Printf.printf "  (%d spans beyond the %d-span limit not kept)\n" !Span.dropped !Span.cap

let run_one (a : args) name =
  let tmp = make_scratch () in
  install_cleanup tmp;
  let cfg =
    { Cfg.seed = a.seed;
      seconds =
        Option.value a.seconds ~default:(if a.quick then 0.3 else default_seconds);
      quick = a.quick; tmp }
  in
  Stat.quick := cfg.quick;
  if a.trace then Span.enable ~limit:50_000;
  let report =
    Span.with_ ("workload " ^ name) (fun _ ->
        match List.find_opt (fun d -> d.Sim_load.name = name) Sim_load.all with
        | Some d -> if a.trace then Sim_load.traced cfg d else Sim_load.run cfg d
        | None ->
          let d = List.find (fun d -> d.Daemon_load.name = name) Daemon_load.all in
          if a.trace then Daemon_load.traced cfg d else Daemon_load.run cfg d)
    |> Report.with_metrics_check
  in
  if a.trace then print_self_times ();
  (* One Chrome-trace process per workload, numbered in workload order. *)
  let pid = 1 + Option.get (List.find_index (String.equal name) workloads) in
  Option.iter
    (fun path ->
      Json.write_file path (Span.trace_file (Span.chrome_events ~pid)))
    a.trace_out;
  Report.print_human report;
  Option.iter (fun path -> Json.write_file path (Report.to_json report)) a.json;
  print_endline (Json.to_string (Report.line report));
  exit (if Report.correct report then 0 else 1)

(* ---- every workload, one child process each ---- *)

let run_all (a : args) =
  let tmp = make_scratch () in
  install_cleanup tmp;
  let exe = Sys.executable_name in
  let results =
    List.mapi
      (fun k name ->
        let json = Filename.concat tmp (name ^ ".json") in
        let trace = Filename.concat tmp (name ^ ".trace.json") in
        let argv =
          [ exe; "--workload"; name; "--seed"; string_of_int a.seed;
            "--trace"; (if a.trace then "1" else "0"); "--json"; json ]
          @ (match a.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
          @ (if a.quick then [ "--quick" ] else [])
          @ (if a.trace_out <> None then [ "--trace-out"; trace ] else [])
        in
        Printf.printf "---- %s (%d/%d) ----\n%!" name (k + 1) (List.length workloads);
        let status = Cfg.run_child (Array.of_list argv) in
        let report = try Some (List.hd (Report.load json)) with _ -> None in
        let events =
          if a.trace_out <> None then
            try Json.to_list (Option.get (Json.member "traceEvents" (Json.read_file trace)))
            with _ -> []
          else []
        in
        (name, status, report, events))
      workloads
  in
  Printf.printf "\n==== seed %d%s ====\n" a.seed (if a.trace then " (traced)" else "");
  let ok = ref true in
  List.iter
    (fun (name, status, report, _) ->
      match (status, report) with
      | Unix.WEXITED 0, Some r -> Printf.printf "%-14s ok   digest %s\n" name r.Report.digest
      | _, Some r ->
        ok := false;
        Printf.printf "%-14s FAIL digest %s\n" name r.Report.digest;
        List.iter
          (fun c -> if not c.Report.ok then Printf.printf "    failed check: %s\n" c.Report.what)
          r.Report.checks
      | _, None ->
        ok := false;
        Printf.printf "%-14s FAIL (no result)\n" name)
    results;
  let reports = List.filter_map (fun (_, _, r, _) -> r) results in
  Option.iter
    (fun path ->
      let key = if a.trace then "per_layer" else "end_to_end" in
      let expected =
        List.map
          (fun m ->
            let field k = Option.value ~default:"" (Option.bind (Json.member k m) Json.to_str) in
            (field "name", field "unit"))
          (Option.fold ~none:[] ~some:Json.to_list (Json.member key (Json.read_file path)))
      in
      List.iter
        (fun (r : Report.t) ->
          let got = List.map (fun (m : Report.metric) -> (m.name, m.unit_)) r.metrics in
          if got <> expected then begin
            ok := false;
            Printf.printf "%-14s FAIL metrics differ from the %s of %s\n" r.workload key path
          end)
        reports)
    a.expect;
  (match reports with
  | r :: _ ->
    Printf.printf "\n%-26s" "metric";
    List.iter (fun r -> Printf.printf " %14s" r.Report.workload) reports;
    print_newline ();
    List.iter
      (fun (m : Report.metric) ->
        Printf.printf "%-26s" (Printf.sprintf "%s (%s)" m.name m.unit_);
        List.iter
          (fun r ->
            match List.find_opt (fun (x : Report.metric) -> x.name = m.name) r.Report.metrics with
            | Some x -> Printf.printf " %14.6g" x.value
            | None -> Printf.printf " %14s" "-")
          reports;
        print_newline ())
      r.Report.metrics
  | [] -> ());
  Option.iter
    (fun path ->
      Json.write_file path
        (Json.Obj
           [ ("seed", Json.Num (float_of_int a.seed));
             ("traced", Json.Bool a.trace);
             ("workloads", Json.Arr (List.map Report.to_json reports)) ]))
    a.json;
  Option.iter
    (fun path ->
      Json.write_file path
        (Span.trace_file (List.concat_map (fun (_, _, _, ev) -> ev) results));
      Printf.printf "Chrome trace: %s\n" path)
    a.trace_out;
  exit (if !ok then 0 else 1)

(* A set-up sample of a simulation workload (see Sim_load.setup_sample):
   no scratch directory, no output. *)
let setup_only (a : args) name =
  match List.find_opt (fun d -> d.Sim_load.name = name) Sim_load.all with
  | Some d ->
    Sim_load.instantiate { Cfg.seed = a.seed; seconds = 0.; quick = a.quick; tmp = "" } d
  | None -> usage ()

let () =
  let a = parse_args Sys.argv in
  match a.workload with
  | Some name when a.setup_only -> setup_only a name
  | Some name -> run_one a name
  | None -> run_all a
