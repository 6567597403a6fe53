(* Compare two sets of benchmark result files, run by run.

     compare.exe [--bench BENCHMARK.json] PARENT.json... -- CHANGE.json...

   Each file is a --json output of main.exe (one workload, or all of
   them).  The i-th run of one side is paired with the i-th run of the
   other.  For every workload and metric it prints both medians and
   quartiles, the share of pairs the change won, and a verdict:

   - improved: the change wins at least 9 pairs in 10 (ties count for
     neither side) and the medians differ by more than the parent's
     interquartile distance;
   - regressed: the change's median is worse than the parent's by more
     than the metric's bound, or the parent wins at least 9 pairs in 10
     and the medians differ by more than its interquartile distance.
     The second rule catches a clear regression smaller than the bound
     on a workload quieter than the one that set it, and applies to
     metrics without a bound too;
   - unresolved: the parent's own spread is wider than the metric's
     bound and not every change run beats every parent run;
   - unchanged: otherwise.

   Run the pairs alternately (parent, change, parent, ...) so that a
   drift in the machine's speed falls on both sides alike.  Bounds and
   directions come from BENCHMARK.json (end_to_end and per_layer);
   workload-specific extras carry their own direction and have no bound.
   The exit code is 1 when any metric regressed or a change run failed
   its checks, 2 on bad arguments. *)

let usage () =
  prerr_endline
    "usage: compare.exe [--bench BENCHMARK.json] PARENT.json... -- CHANGE.json...";
  exit 2

type spec = { lower_better : bool; bound : float option }

let bench_specs path =
  let j = Json.read_file path in
  let read key =
    List.filter_map
      (fun m ->
        match Option.bind (Json.member "name" m) Json.to_str with
        | Some name ->
          Some
            ( name,
              { lower_better =
                  Option.bind (Json.member "better" m) Json.to_str <> Some "higher";
                bound = Option.bind (Json.member "bound" m) Json.to_num } )
        | None -> None)
      (Option.fold ~none:[] ~some:Json.to_list (Json.member key j))
  in
  read "end_to_end" @ read "per_layer"

(* Values of [metric] in [workload], one per run, in file order. *)
let values runs workload metric =
  List.filter_map
    (fun (r : Report.t) ->
      if r.workload <> workload then None
      else
        match List.find_opt (fun (m : Report.metric) -> m.name = metric) r.metrics with
        | Some m -> Some m.value
        | None ->
          Option.map
            (fun ((m : Report.metric), _) -> m.value)
            (List.find_opt (fun ((m : Report.metric), _) -> m.name = metric) r.extras))
    runs
  |> Array.of_list

let verdict spec a b =
  let med_a = Stat.median a and med_b = Stat.median b in
  let q1a, q3a = Stat.quartiles a in
  let iqr_a = q3a -. q1a in
  let better x y = if spec.lower_better then x < y else x > y in
  let pairs = min (Array.length a) (Array.length b) in
  let wins_b = ref 0 and wins_a = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr wins_b else if better a.(i) b.(i) then incr wins_a
  done;
  let share n = float_of_int n /. float_of_int (max 1 pairs) in
  let rel_worse =
    let d = (med_b -. med_a) /. Float.abs med_a in
    let d = if med_a = 0. then if med_b = med_a then 0. else Float.copy_sign infinity (med_b -. med_a) else d in
    if spec.lower_better then d else -.d
  in
  let clear = Float.abs (med_b -. med_a) > iqr_a in
  let all_better =
    Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b
  in
  let beyond_bound = match spec.bound with Some b -> rel_worse > b | None -> false in
  let v =
    if share !wins_b >= 0.9 && clear && better med_b med_a then "improved"
    else if beyond_bound || (share !wins_a >= 0.9 && clear && better med_a med_b) then
      "regressed"
    else
      match spec.bound with
      | Some bound when Stat.spread a > bound && not all_better -> "unresolved"
      | _ -> "unchanged"
  in
  (v, share !wins_b, rel_worse)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bench, args =
    match args with
    | "--bench" :: path :: rest -> (path, rest)
    | _ -> ("BENCHMARK.json", args)
  in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> usage ()
  in
  let pa, pb = split [] args in
  if pa = [] || pb = [] then usage ();
  let load files = List.concat_map Report.load files in
  let a = load pa and b = load pb in
  let specs = bench_specs bench in
  let workloads =
    List.fold_left
      (fun acc (r : Report.t) -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] a
  in
  let failing = ref false in
  List.iter
    (fun (r : Report.t) ->
      if not (Report.correct r) then begin
        failing := true;
        Printf.printf "change run of %s (seed %d) failed its checks\n" r.workload r.seed
      end)
    b;
  Printf.printf "%-14s %-24s %13s %25s %13s %25s %6s %8s  %s\n" "workload" "metric"
    "parent" "(q1 .. q3)" "change" "(q1 .. q3)" "won" "worse" "verdict";
  List.iter
    (fun w ->
      let first = List.find (fun (r : Report.t) -> r.workload = w) a in
      let names =
        List.map (fun (m : Report.metric) -> (m.name, None)) first.metrics
        @ List.map (fun ((m : Report.metric), better) -> (m.name, Some better)) first.extras
      in
      List.iter
        (fun (name, extra_dir) ->
          let va = values a w name and vb = values b w name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let spec =
              match (List.assoc_opt name specs, extra_dir) with
              | Some s, _ -> s
              | None, Some d -> { lower_better = d <> "higher"; bound = None }
              | None, None -> { lower_better = true; bound = None }
            in
            let v, won, worse = verdict spec va vb in
            if v = "regressed" then failing := true;
            let q1a, q3a = Stat.quartiles va and q1b, q3b = Stat.quartiles vb in
            Printf.printf "%-14s %-24s %13.6g (%11.5g .. %11.5g) %13.6g (%11.5g .. %11.5g) %5.0f%% %+7.1f%%  %s%s\n"
              w name (Stat.median va) q1a q3a (Stat.median vb) q1b q3b (100. *. won)
              (100. *. worse) v
              (match spec.bound with
              | Some bd -> Printf.sprintf " (bound %.0f%%)" (100. *. bd)
              | None -> "")
          end)
        names)
    workloads;
  exit (if !failing then 1 else 0)
