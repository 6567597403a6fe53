(* One workload run's outcome, and its two renderings: the full result
   file (read back by the compare tool) and the one-line summary the
   benchmark prints last. *)

type metric = { name : string; value : float; unit_ : string }

type check = { what : string; ok : bool; detail : string }

type t = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
      (* the end-to-end metrics of BENCHMARK.json (untraced run) or its
         per-layer metrics (traced run), in that file's order *)
  extras : (metric * string) list;
      (* workload-specific numbers with their better direction
         ("lower"/"higher"): hit/miss split, sim rate, accuracy *)
  checks : check list;
  digest : string;
}

let correct t = List.for_all (fun c -> c.ok) t.checks

let check what ok detail = { what; ok; detail }

let metric name value unit_ = { name; value; unit_ }

(* Every reported metric must be a finite number, and an end-to-end one
   above 0. *)
let with_metrics_check t =
  let bad =
    List.filter
      (fun m -> (not (Float.is_finite m.value)) || ((not t.traced) && m.value <= 0.))
      t.metrics
  in
  { t with
    checks =
      t.checks
      @ [ check
            (if t.traced then "every metric is finite"
             else "every metric is finite and above 0")
            (bad = [])
            (String.concat ", " (List.map (fun m -> m.name) bad)) ] }

(* The end-to-end metrics every workload reports, in BENCHMARK.json
   order.  Each workload says how it derives them robustly from its
   window. *)
let e2e ~setup_s ~throughput ~rss =
  [ metric "setup_s" setup_s "s"; metric "throughput_ops" throughput "1/s"; metric "peak_rss_mb" rss "MB" ]

let metric_json m =
  Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]

let metrics_json ms = Json.Obj (List.map (fun m -> (m.name, metric_json m)) ms)

(* Exactly the four keys of the benchmark's result line. *)
let line t =
  Json.Obj
    [ ("correct", Json.Bool (correct t));
      ("attempted", Json.Num (float_of_int t.attempted));
      ("failed", Json.Num (float_of_int t.failed));
      ("metrics", metrics_json t.metrics) ]

let to_json t =
  Json.Obj
    [ ("workload", Json.Str t.workload);
      ("seed", Json.Num (float_of_int t.seed));
      ("traced", Json.Bool t.traced);
      ("correct", Json.Bool (correct t));
      ("attempted", Json.Num (float_of_int t.attempted));
      ("failed", Json.Num (float_of_int t.failed));
      ("metrics", metrics_json t.metrics);
      ( "extras",
        Json.Obj
          (List.map
             (fun (m, better) ->
               ( m.name,
                 Json.Obj
                   [ ("value", Json.Num m.value);
                     ("unit", Json.Str m.unit_);
                     ("better", Json.Str better) ] ))
             t.extras) );
      ( "checks",
        Json.Arr
          (List.map
             (fun c ->
               Json.Obj
                 [ ("check", Json.Str c.what);
                   ("ok", Json.Bool c.ok);
                   ("detail", Json.Str c.detail) ])
             t.checks) );
      ("digest", Json.Str t.digest) ]

let metrics_of_json j =
  List.filter_map
    (fun (name, v) ->
      match Option.bind (Json.member "value" v) Json.to_num with
      | Some value ->
        let unit_ =
          Option.value ~default:"" (Option.bind (Json.member "unit" v) Json.to_str)
        in
        Some ({ name; value; unit_ }, Option.bind (Json.member "better" v) Json.to_str)
      | None -> None)
    (Json.to_assoc j)

let of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let num k = Option.bind (Json.member k j) Json.to_num in
  let int k = Option.fold ~none:0 ~some:int_of_float (num k) in
  let ms k =
    Option.fold ~none:[] ~some:metrics_of_json (Json.member k j)
  in
  {
    workload = Option.value ~default:"?" (str "workload");
    seed = int "seed";
    traced = Json.member "traced" j = Some (Json.Bool true);
    attempted = int "attempted";
    failed = int "failed";
    metrics = List.map fst (ms "metrics");
    extras =
      List.map (fun (m, b) -> (m, Option.value ~default:"lower" b)) (ms "extras");
    checks =
      List.map
        (fun c ->
          {
            what =
              Option.value ~default:"" (Option.bind (Json.member "check" c) Json.to_str);
            ok = Json.member "ok" c = Some (Json.Bool true);
            detail = "";
          })
        (Option.fold ~none:[] ~some:Json.to_list (Json.member "checks" j));
    digest = Option.value ~default:"" (str "digest");
  }

(* A result file holds one workload object, or several under
   "workloads" (the --json file of the all-workload form). *)
let load path =
  let j = Json.read_file path in
  match Json.member "workloads" j with
  | Some ws -> List.map of_json (Json.to_list ws)
  | None -> [ of_json j ]

let print_human t =
  Printf.printf "== %s (seed %d%s): %d attempted, %d failed, digest %s\n"
    t.workload t.seed
    (if t.traced then ", traced" else "")
    t.attempted t.failed t.digest;
  List.iter
    (fun m -> Printf.printf "   %-26s %14.6g %s\n" m.name m.value m.unit_)
    t.metrics;
  List.iter
    (fun (m, _) -> Printf.printf "   (%-24s %14.6g %s)\n" m.name m.value m.unit_)
    t.extras;
  List.iter
    (fun c ->
      Printf.printf "   check %-4s %s%s\n"
        (if c.ok then "ok" else "FAIL")
        c.what
        (if c.detail = "" then "" else ": " ^ c.detail))
    t.checks
