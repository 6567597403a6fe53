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
    "Bechamel micro-benchmarks";
    "fluid equilibrium paper (CUBIC)";
    "fluid speedup: paper equilibrium";
    "profile: per-phase domain utilisation";
    "[json] wrote";
    "=== done ===";
  ]

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

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
    let json_ok =
      contains j "\"microbench_ns\"" && contains j "\"wall_clock_s\""
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
