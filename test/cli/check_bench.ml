(* Smoke-checker for `bench/main.exe --quick --jobs 2 --profile`: the
   harness must exit 0 (enforced by the dune rule that produced the
   capture) and its output must contain every figure header plus each
   sweep/ablation section, the domain-utilisation profile, and the JSON
   marker.  The timing numbers themselves vary run to run, so a golden
   diff is not applicable here. *)

let required =
  [
    "Fig. 1a/1b: the network and the three overlapping paths";
    "Fig. 1c: throughput constraints and LP optimum";
    "Fig. 2a: per-path rate, MPTCP-CUBIC, 100 ms sampling";
    "Fig. 2b: per-path rate, MPTCP-OLIA, 100 ms sampling";
    "Fig. 2c: per-path rate, MPTCP-CUBIC, first 0.5 s at 10 ms";
    "paper vs measured (figure summary)";
    "Table 1: convergence by congestion control x default path";
    "Ablation: buffer size";
    "Ablation: queue discipline";
    "Ablation: subflow scheduler";
    "Ablation: delayed ACKs";
    "Ablation: scheduler under a 64 KB send buffer";
    "Baseline: single-path TCP";
    "Extension: n pairwise-overlapping paths";
    "Extension: two MPTCP connections";
    "Hybrid: fluid background classes vs all-packet equivalent";
    "Daemon: cold-process vs warm-daemon submission latency";
    "allocation profile: paper sim (CUBIC)";
    "words per packet";
    "failover words per packet";
    "micro-benchmarks (ns per run, round-robin min-of-N)";
    "fluid equilibrium paper (CUBIC)";
    "fluid speedup: paper equilibrium";
    "profile: per-phase domain utilisation";
    "[json] wrote";
    "=== done ===";
  ]

(* The rows `bench/main.exe --gate` reads.  Listed here on purpose
   rather than taken from bench/micro.ml: a row renamed or dropped there
   must fail this check. *)
let gated_rows =
  [
    "heap push+pop 1k";
    "wheel push+pop 1k";
    "cubic 1k acks";
    "olia 1k acks";
    "paper sim 200ms (CUBIC)";
    "fluid equilibrium paper (CUBIC)";
  ]

let find haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let contains haystack needle = find haystack needle <> None

(* The number after ["row": ] inside the "microbench_ns" object. *)
let microbench_ns json row =
  match find json "\"microbench_ns\": {" with
  | None -> None
  | Some start ->
    let section =
      String.sub json start (String.index_from json start '}' - start)
    in
    Option.bind
      (find section (Printf.sprintf "\"%s\": " row))
      (fun i ->
        let entry = String.sub section i (String.length section - i) in
        Scanf.sscanf_opt entry "%S: %f" (fun _ ns -> ns))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let () =
  match Sys.argv with
  | [| _; output; json |] ->
    let text = read_file output in
    let missing = List.filter (fun h -> not (contains text h)) required in
    List.iter (Printf.eprintf "missing section: %S\n") missing;
    let j = read_file json in
    let bad_rows =
      List.filter
        (fun row ->
          match microbench_ns j row with Some ns -> ns <= 0.0 | None -> true)
        gated_rows
    in
    List.iter (Printf.eprintf "no positive microbench_ns for %S\n") bad_rows;
    let json_ok =
      bad_rows = [] && contains j "\"schema\": 2,"
      && contains j "\"wall_clock_s\""
      && contains j "\"jobs\": 2" && contains j "\"profile\""
      && contains j "\"alloc\"" && contains j "\"words_per_packet\""
      && contains j "\"pool_recycled\""
      && contains j "\"failover_words_per_packet\"" && contains j "\"hybrid\""
      && contains j "\"speedup\"" && contains j "\"daemon\""
      && contains j "\"warm_p99_ms\""
    in
    if not json_ok then Printf.eprintf "malformed %s:\n%s\n" json j;
    if missing <> [] || not json_ok then exit 1;
    print_endline "bench --quick --jobs 2 output complete"
  | _ ->
    prerr_endline "usage: check_bench <bench-output> <bench-json>";
    exit 2
