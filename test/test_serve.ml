(* Scenario-service tests: canonical hashing, the content-addressed
   store's integrity layers, batch parsing, trend history, and the
   cache-correctness property the whole subsystem rests on — a second
   submission of an identical batch performs zero simulation work and
   returns bit-identical results. *)

let sexps s = Events.Sexp.parse_string s

let batch_of s = Serve.Batch.of_sexps ~base_dir:"." (sexps s)

let one_entry s =
  match batch_of s with
  | [ e ] -> e
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

(* A fresh store directory per test; dune runs tests sandboxed, so a
   relative directory in the cwd is private to the run. *)
let fresh_store =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Serve.Store.open_store ~dir:(Printf.sprintf "_serve_store_%d" !counter)

(* Fast paper-network cell: 0.5 simulated seconds is enough to produce
   nonzero goodput on every path while keeping the suite quick. *)
let tiny ?(seed = 1) ?(cc = "cubic") ?(label = "tiny") () =
  one_entry
    (Printf.sprintf
       "(preset (label %s) (cc %s) (seed %d) (duration-s 0.5) (sampling-ms 100))"
       label cc seed)

(* --- canonical hashing --- *)

let hash_field_order () =
  let a =
    one_entry
      {|(preset (cc lia) (seed 3) (default 1) (duration-s 2) (scheduler round-robin))|}
  and b =
    one_entry
      {|(preset (scheduler round-robin) (duration-s 2) (default 1) (seed 3) (cc lia))|}
  in
  Alcotest.(check string)
    "field order does not change the hash" (Serve.Service.hash_entry a)
    (Serve.Service.hash_entry b)

let hash_sensitivity () =
  let h spec_s = Serve.Service.hash_entry (one_entry spec_s) in
  let base = h {|(preset (cc cubic) (seed 1) (duration-s 2))|} in
  Alcotest.(check bool)
    "seed changes the hash" false
    (base = h {|(preset (cc cubic) (seed 2) (duration-s 2))|});
  Alcotest.(check bool)
    "cc changes the hash" false
    (base = h {|(preset (cc lia) (seed 1) (duration-s 2))|});
  Alcotest.(check bool)
    "duration changes the hash" false
    (base = h {|(preset (cc cubic) (seed 1) (duration-s 3))|});
  Alcotest.(check bool)
    "label does not change the hash" true
    (base = h {|(preset (label renamed) (cc cubic) (seed 1) (duration-s 2))|})

let hash_ignores_observation () =
  let spec = (tiny ()).Serve.Batch.spec in
  let observed =
    {
      spec with
      Core.Scenario.trace_limit = Some 64;
      audit = true;
      obs = Some Obs.Collect.default_conf;
    }
  in
  Alcotest.(check string)
    "trace/audit/obs are excluded from the hash" (Core.Canon.hash spec)
    (Core.Canon.hash observed);
  Alcotest.(check bool)
    "canonical text mentions its version" true
    (String.length (Core.Canon.text spec) > 0
    && Core.Canon.short (Core.Canon.hash spec)
       = String.sub (Core.Canon.hash spec) 0 12)

(* The whole canonical text and hash of two specs: the [tiny] preset,
   and a paper spec built in OCaml with every optional field that
   renders away from its default (path order, timed events, failover
   cap, send buffer, transfer size).  A stored record's key is this
   hash, so any change to the rendering turns the store into misses. *)
let pinned_spec () =
  let topo = Core.Paper_net.topology () in
  Core.Scenario.make ~topo
    ~paths:(Core.Paper_net.tagged_paths ~default:3 topo)
    ~cc:Mptcp.Algorithm.Olia ~duration:(Engine.Time.ms 1500)
    ~events:
      (Events.Parse.events topo
         (sexps {|(at-s 0.3 (link-down v2 v3)) (at-s 0.6 (link-up v2 v3))|}))
    ~rto_cap:2 ~send_buffer:(512 * 1024) ~total_bytes:4_000_000 ()

(* The fields both specs render alike: the sender settings, the start
   jitter and the paper topology. *)
let pinned_sender_topo =
  "(sender-config (dupack-threshold 3) (ecn false) (handshake false) \
   (initial-cwnd 10) (initial-rto-ns 1000000000) (initial-ssthresh \
   1000000000) (max-rto-ns 60000000000) (min-rto-ns 200000000) (mss 1448) \
   (sack true)) (start-jitter-ns 2000000) (topo (nodes s v1 v2 v3 v4 d) \
   (links (0 0 1 40000000 1000000) (1 0 2 100000000 1000000) (2 1 2 \
   100000000 1000000) (3 1 4 100000000 500000) (4 2 3 60000000 1000000) (5 \
   3 4 100000000 1000000) (6 3 5 100000000 1000000) (7 4 5 80000000 \
   1000000)))"

let pinned_canon =
  [
    ( "tiny preset",
      "(canon 2 (cc cubic) (delayed-ack false) (duration-ns 500000000) \
       (events) (hybrid-tick-ns 1000000) (join-delay-ns 10000000) \
       (net-config (delay-jitter-ns 0) (limit-pkts 16) (qdisc drop-tail)) \
       (paths (2 (nodes 0 1 4 5) (links 0 3 7)) (1 (nodes 0 1 2 3 5) (links \
       0 2 4 6)) (3 (nodes 0 2 3 4 5) (links 1 4 5 7))) (rto-cap none) \
       (sampling-ns 100000000) (scheduler minrtt) (seed 1) (send-buffer \
       none) " ^ pinned_sender_topo ^ " (total-bytes none))",
      "fb6fe04d30ef4419910db41c79af8425" );
    ( "spec built in OCaml",
      "(canon 2 (cc olia) (delayed-ack false) (duration-ns 1500000000) \
       (events (at-ns 300000000 (link-down 4)) (at-ns 600000000 (link-up \
       4))) (hybrid-tick-ns 1000000) (join-delay-ns 10000000) (net-config \
       (delay-jitter-ns 0) (limit-pkts 16) (qdisc drop-tail)) (paths (3 \
       (nodes 0 2 3 4 5) (links 1 4 5 7)) (1 (nodes 0 1 2 3 5) (links 0 2 4 \
       6)) (2 (nodes 0 1 4 5) (links 0 3 7))) (rto-cap 2) (sampling-ns \
       100000000) (scheduler minrtt) (seed 1) (send-buffer 524288) "
      ^ pinned_sender_topo ^ " (total-bytes 4000000))",
      "470304238b5da2dcb4b9404658d6c27b" );
  ]

let canon_pinned () =
  List.iter2
    (fun spec (name, text, hash) ->
      Alcotest.(check string) (name ^ " text") text (Core.Canon.text spec);
      Alcotest.(check string) (name ^ " hash") hash (Core.Canon.hash spec))
    [ (tiny ()).Serve.Batch.spec; pinned_spec () ]
    pinned_canon

(* --- batch parsing --- *)

let grid_expansion () =
  let entries =
    batch_of {|(grid (ccs cubic lia) (defaults 1 2) (seeds 1 2) (duration-s 1))|}
  in
  Alcotest.(check int) "2 ccs x 2 defaults x 2 seeds" 8 (List.length entries);
  let labels = List.map (fun e -> e.Serve.Batch.label) entries in
  Alcotest.(check bool)
    "generated labels" true
    (List.mem "paper-cubic-d1-s1" labels && List.mem "paper-lia-d2-s2" labels);
  let hashes =
    List.sort_uniq compare (List.map Serve.Service.hash_entry entries)
  in
  Alcotest.(check int) "all cells hash distinctly" 8 (List.length hashes)

let batch_rejects () =
  let bad s =
    match batch_of s with
    | exception Events.Sexp.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed batch %s" s
  in
  bad {|(mystery (cc cubic))|};
  bad {|(preset (cc warpdrive))|};
  bad {|(experiment (label x))|}

let batch_rejects_zero_sampling () =
  match
    batch_of
      {|(preset (label z) (cc cubic) (seed 1) (duration-s 0.1) (sampling-ms 0))|}
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted a zero sampling period"

(* --- store integrity --- *)

let sample_record hash =
  {
    Serve.Store.hash;
    label = "sample";
    cc = "olia";
    seed = 7;
    paths = 3;
    tail_mbps = 88.125;
    per_path_mbps = [ (0, 30.5); (1, 29.25); (2, 28.375) ];
    opt_mbps = 90.;
    delivered_bytes = 5_500_000;
    completed_at_s = Some 3.25;
    subflow_churn = 2;
    cross_traffic_bytes = 123_456;
    queue_drops = 17;
    sim_events = 42_000;
    packets_created = 9_000;
    audit = Some { Serve.Store.violations = 0; checks = 1234 };
    metrics = [ ("engine.events_total", 42_000.); ("net.drops", 17.) ];
    wall_s = 0.25;
    alloc_words = 1e6;
    created_unix = 1.75e9;
  }

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let store_roundtrip () =
  let store = fresh_store () in
  let hash = String.make 32 'a' in
  let r = sample_record hash in
  Alcotest.(check bool) "empty lookup" true (Serve.Store.lookup store ~hash = None);
  Serve.Store.insert store r;
  (match Serve.Store.lookup store ~hash with
  | None -> Alcotest.fail "inserted record not found"
  | Some r' ->
    Alcotest.(check bool)
      "roundtrip preserves every deterministic field" true
      (Serve.Store.same_results r r');
    Alcotest.(check (float 0.)) "perf metadata survives too" r.Serve.Store.wall_s
      r'.Serve.Store.wall_s);
  Alcotest.(check int) "count" 1 (Serve.Store.count store);
  Alcotest.(check int) "invalidate removes it" 1 (Serve.Store.invalidate store);
  Alcotest.(check int) "store empty again" 0 (Serve.Store.count store)

(* Rewrite just the header line: the body (and its checksum) stay
   valid, so the record must read as stale — a clean miss — not corrupt
   and never a hit. *)
let store_version_bump () =
  let store = fresh_store () in
  let hash = String.make 32 'b' in
  Serve.Store.insert store (sample_record hash);
  let path = Serve.Store.record_path store ~hash in
  let content = read_all path in
  let nl = String.index content '\n' in
  write_all path
    (Printf.sprintf "mptcp-sim-record %d%s"
       (Serve.Store.format_version + 1)
       (String.sub content nl (String.length content - nl)));
  Alcotest.(check bool)
    "future-version record is a miss" true
    (Serve.Store.lookup store ~hash = None);
  Alcotest.(check int) "counted as stale" 1 (Serve.Store.stale_seen store);
  Alcotest.(check int) "not counted as corrupt" 0 (Serve.Store.corrupt_seen store)

let store_corruption () =
  let store = fresh_store () in
  let damage hash mangle =
    Serve.Store.insert store (sample_record hash);
    let path = Serve.Store.record_path store ~hash in
    write_all path (mangle (read_all path));
    Alcotest.(check bool)
      "damaged record is a miss, not a mis-read" true
      (Serve.Store.lookup store ~hash = None)
  in
  (* Truncation: cut the file mid-body. *)
  damage (String.make 32 'c') (fun c -> String.sub c 0 (String.length c / 2));
  (* Bit rot: flip one digit inside the body, checksum now disagrees. *)
  damage (String.make 32 'd') (fun c ->
      let i = String.index c '7' in
      String.mapi (fun j ch -> if j = i then '8' else ch) c);
  (* Garbage file. *)
  damage (String.make 32 'e') (fun _ -> "not a record at all");
  Alcotest.(check int) "all three counted corrupt" 3
    (Serve.Store.corrupt_seen store);
  Alcotest.(check int) "none counted stale" 0 (Serve.Store.stale_seen store)

(* A record that vanishes under a concurrent gc or invalidate, or that
   cannot be read as a file, is a miss, never an exception.  A
   directory squatting on the record path is the deterministic
   stand-in. *)
let store_unreadable () =
  let store = fresh_store () in
  let hash = String.make 32 '9' in
  let path = Serve.Store.record_path store ~hash in
  Unix.mkdir (Filename.dirname path) 0o755;
  Unix.mkdir path 0o755;
  Alcotest.(check bool)
    "unreadable record is a miss" true
    (Serve.Store.lookup store ~hash = None)

(* The exact bytes of a record file: a change to the record text must
   show here, not only in a round trip through the same code. *)
let store_record_bytes () =
  let store = fresh_store () in
  let hash = String.make 32 'a' in
  Serve.Store.insert store (sample_record hash);
  Alcotest.(check string)
    "record file"
    ("mptcp-sim-record 1\n(record (hash aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa) \
      (label sample) (cc olia) (seed 7) (paths 3) (tail-mbps 88.125) \
      (per-path (0 30.5) (1 29.25) (2 28.375)) (opt-mbps 90) \
      (delivered-bytes 5500000) (completed-at-s 3.25) (subflow-churn 2) \
      (cross-traffic-bytes 123456) (queue-drops 17) (sim-events 42000) \
      (packets-created 9000) (audit (violations 0) (checks 1234)) \
      (metrics (engine.events_total 42000) (net.drops 17)) (wall-s 0.25) \
      (alloc-words 1000000) (created-unix 1750000000))\n\
      checksum 429378e7883c253e221881341012f297\n")
    (read_all (Serve.Store.record_path store ~hash))

(* A write cut short leaves a prefix of the record file.  Every proper
   prefix reads as a miss or, when only trailing whitespace is gone, as
   the identical record; none reads as another record or raises. *)
let store_prefixes () =
  let store = fresh_store () in
  let hash = String.make 32 'p' in
  let r = sample_record hash in
  Serve.Store.insert store r;
  let path = Serve.Store.record_path store ~hash in
  let full = read_all path in
  let len = String.length full in
  for k = 0 to len - 1 do
    write_all path (String.sub full 0 k);
    match Serve.Store.lookup store ~hash with
    | None -> ()
    | Some r' ->
      if r' <> r then Alcotest.failf "prefix of %d bytes read as another record" k
    | exception e ->
      Alcotest.failf "prefix of %d bytes raised %s" k (Printexc.to_string e)
  done;
  write_all path (String.sub full 0 (len - 1));
  Alcotest.(check bool)
    "dropping the final newline still reads the record" true
    (Serve.Store.lookup store ~hash = Some r)

(* A header followed directly by its checksum line has no body: a miss
   counted corrupt, not an exception out of the lookup. *)
let store_bodyless () =
  let store = fresh_store () in
  let hash = String.make 32 'q' in
  Serve.Store.insert store (sample_record hash);
  write_all
    (Serve.Store.record_path store ~hash)
    "mptcp-sim-record 1\nchecksum d41d8cd98f00b204e9800998ecf8427e\n";
  Alcotest.(check bool)
    "body-less record is a miss" true
    (Serve.Store.lookup store ~hash = None);
  Alcotest.(check int) "counted corrupt" 1 (Serve.Store.corrupt_seen store)

(* GC evicts oldest-mtime first until the survivors fit the budget;
   the sweep's byte accounting is exact and the per-store eviction
   counter accumulates across sweeps. *)
let store_gc () =
  let store = fresh_store () in
  let hashes =
    List.map (fun c -> String.make 32 c) [ 'f'; 'g'; 'h'; 'i' ]
  in
  List.iteri
    (fun i hash ->
      Serve.Store.insert store (sample_record hash);
      (* Pin distinct, increasing mtimes so "oldest" is unambiguous
         regardless of filesystem timestamp granularity. *)
      let t = 1.7e9 +. (float_of_int i *. 100.) in
      Unix.utimes (Serve.Store.record_path store ~hash) t t)
    hashes;
  let total = Serve.Store.bytes store in
  Alcotest.(check bool) "records occupy bytes" true (total > 0);
  (* Records are identical sizes, so half the bytes keep the newest
     two and evict the oldest two. *)
  let stats = Serve.Store.gc store ~max_bytes:(total / 2) in
  Alcotest.(check int) "examined all" 4 stats.Serve.Store.examined;
  Alcotest.(check int) "evicted oldest two" 2 stats.Serve.Store.evicted;
  Alcotest.(check int) "kept newest two" 2 stats.Serve.Store.kept;
  Alcotest.(check int) "byte split is exact" total
    (stats.Serve.Store.evicted_bytes + stats.Serve.Store.kept_bytes);
  Alcotest.(check int) "kept bytes within budget" stats.Serve.Store.kept_bytes
    (Serve.Store.bytes store);
  List.iteri
    (fun i hash ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d %s" i (if i < 2 then "evicted" else "kept"))
        (i >= 2)
        (Serve.Store.lookup store ~hash <> None))
    hashes;
  (* Idempotent under the same budget; a zero budget clears the rest. *)
  Alcotest.(check int) "second sweep evicts nothing" 0
    (Serve.Store.gc store ~max_bytes:(total / 2)).Serve.Store.evicted;
  Alcotest.(check int) "zero budget clears" 2
    (Serve.Store.gc store ~max_bytes:0).Serve.Store.evicted;
  Alcotest.(check int) "eviction counter accumulates" 4
    (Serve.Store.evicted_total store);
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Store.gc: negative byte budget") (fun () ->
      ignore (Serve.Store.gc store ~max_bytes:(-1)))

(* --- trend history --- *)

let trend_entry i cached =
  {
    Serve.Trend.at_unix = 1.7e9 +. float_of_int i;
    label = (if i mod 2 = 0 then "even" else "odd");
    hash = String.make 32 'f';
    cc = "cubic";
    cached;
    tail_mbps = 80. +. float_of_int i;
    opt_mbps = 90.;
    wall_s = 0.1;
    delivered_bytes = 1_000_000 * (i + 1);
    sim_events = 10_000;
  }

let trend_roundtrip () =
  let dir = Serve.Store.dir (fresh_store ()) in
  List.iter
    (fun i -> Serve.Trend.append ~dir (trend_entry i (i > 1)))
    [ 0; 1; 2; 3 ];
  (* A torn/foreign line must be skipped and counted, not fatal. *)
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat dir "trend.log")
  in
  output_string oc "(run 999 (garbage from the future))\n";
  output_string oc "not even a sexp (((\n";
  close_out oc;
  let entries, skipped = Serve.Trend.load ~dir in
  Alcotest.(check int) "entries load in order" 4 (List.length entries);
  Alcotest.(check int) "bad lines skipped, counted" 2 skipped;
  Alcotest.(check (float 0.)) "append order preserved" 83.
    (List.nth entries 3).Serve.Trend.tail_mbps;
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Serve.Trend.report fmt entries;
  Format.pp_print_flush fmt ();
  let table = Buffer.contents buf in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report lists both labels" true
    (contains table "even" && contains table "odd");
  Alcotest.(check bool) "report shows the trend arrow" true
    (contains table "80.0 -> 82.0");
  let buf2 = Buffer.create 64 in
  let fmt2 = Format.formatter_of_buffer buf2 in
  Serve.Trend.report fmt2 [];
  Format.pp_print_flush fmt2 ();
  Alcotest.(check bool) "empty store message" true
    (contains (Buffer.contents buf2) "empty")

let trend_line_bytes () =
  let dir = Serve.Store.dir (fresh_store ()) in
  Serve.Trend.append ~dir (trend_entry 3 true);
  Alcotest.(check string)
    "trend line"
    "(run 1 (at 1700000003) (label odd) (hash ffffffffffffffffffffffffffffffff) \
     (cc cubic) (cached true) (tail-mbps 83) (opt-mbps 90) \
     (wall-s 0.10000000000000001) (delivered 4000000) (sim-events 10000))\n"
    (read_all (Filename.concat dir "trend.log"))

(* --- the service: cache correctness end to end --- *)

let find_record outcomes label =
  match
    List.find_opt (fun (e, _) -> e.Serve.Batch.label = label) outcomes
  with
  | Some (_, Serve.Service.Hit r) -> (`Hit, r)
  | Some (_, Serve.Service.Fresh r) -> (`Fresh, r)
  | Some (_, Serve.Service.Shared r) -> (`Shared, r)
  | None -> Alcotest.failf "no outcome for %s" label

let second_submission_is_free () =
  let store = fresh_store () in
  let batch = [ tiny ~cc:"cubic" ~label:"a" (); tiny ~cc:"lia" ~label:"b" () ] in
  let outcomes1, stats1 = Serve.Service.run_batch ~jobs:1 ~store batch in
  Alcotest.(check int) "first pass: all fresh" 2 stats1.Serve.Service.fresh;
  Alcotest.(check bool)
    "first pass simulated" true
    (stats1.Serve.Service.fresh_sim_events > 0);
  let outcomes2, stats2 = Serve.Service.run_batch ~jobs:1 ~store batch in
  (* The acceptance criterion: an identical batch re-submission runs
     the engine for zero events. *)
  Alcotest.(check int) "second pass: zero simulation events" 0
    stats2.Serve.Service.fresh_sim_events;
  Alcotest.(check int) "second pass: all hits" 2 stats2.Serve.Service.hits;
  Alcotest.(check int) "second pass: nothing fresh" 0 stats2.Serve.Service.fresh;
  List.iter
    (fun label ->
      let k1, r1 = find_record outcomes1 label in
      let k2, r2 = find_record outcomes2 label in
      Alcotest.(check bool) "first fresh, second hit" true
        (k1 = `Fresh && k2 = `Hit);
      Alcotest.(check bool)
        "cached record bit-identical to the fresh run" true
        (Serve.Store.same_results r1 r2))
    [ "a"; "b" ];
  (* --no-cache re-simulates and must reproduce the same results. *)
  let outcomes3, stats3 =
    Serve.Service.run_batch ~jobs:1 ~cache:false ~store batch
  in
  Alcotest.(check int) "no-cache re-simulates" 2 stats3.Serve.Service.fresh;
  List.iter
    (fun label ->
      let _, r1 = find_record outcomes1 label in
      let _, r3 = find_record outcomes3 label in
      Alcotest.(check bool) "re-simulation is deterministic" true
        (Serve.Store.same_results r1 r3))
    [ "a"; "b" ];
  (* Every submission, hit or fresh, lands in the trend history. *)
  let entries, skipped = Serve.Trend.load ~dir:(Serve.Store.dir store) in
  Alcotest.(check int) "trend has all six submissions" 6 (List.length entries);
  Alcotest.(check int) "no skipped trend lines" 0 skipped;
  Alcotest.(check int) "two of them were hits" 2
    (List.length (List.filter (fun e -> e.Serve.Trend.cached) entries))

let duplicate_entries_simulate_once () =
  let store = fresh_store () in
  let e = tiny ~label:"dup" () in
  let outcomes, stats = Serve.Service.run_batch ~jobs:1 ~store [ e; e ] in
  Alcotest.(check int) "both outcomes answered" 2 (List.length outcomes);
  Alcotest.(check int) "one record stored" 1 (Serve.Store.count store);
  let _, r = find_record outcomes "dup" in
  Alcotest.(check int)
    "only one simulation ran" r.Serve.Store.sim_events
    stats.Serve.Service.fresh_sim_events;
  (* the repeat rode the first entry's run: shared, logged as cached *)
  Alcotest.(check (list string))
    "outcome kinds" [ "fresh"; "shared" ]
    (List.map
       (function
         | _, Serve.Service.Hit _ -> "hit"
         | _, Fresh _ -> "fresh"
         | _, Shared _ -> "shared")
       outcomes);
  Alcotest.(check int) "one fresh" 1 stats.Serve.Service.fresh;
  Alcotest.(check int) "one shared" 1 stats.Serve.Service.shared;
  let trend, _ = Serve.Trend.load ~dir:(Serve.Store.dir store) in
  Alcotest.(check (list bool))
    "trend cached flags" [ false; true ]
    (List.map (fun e -> e.Serve.Trend.cached) trend)

(* A hit, or a repeat that rides an earlier run, carries the record of
   whichever entry simulated first; the history files each submission
   under its own label. *)
let trend_keeps_submitted_labels () =
  let store = fresh_store () in
  let run batch = ignore (Serve.Service.run_batch ~jobs:1 ~store batch) in
  run [ tiny ~label:"first" () ];
  run [ tiny ~label:"renamed" (); tiny ~seed:2 ~label:"one" ();
        tiny ~seed:2 ~label:"two" () ];
  let trend, _ = Serve.Trend.load ~dir:(Serve.Store.dir store) in
  Alcotest.(check (list (pair string bool)))
    "labels and cached flags"
    [ ("first", false); ("renamed", true); ("one", false); ("two", true) ]
    (List.map (fun e -> (e.Serve.Trend.label, e.Serve.Trend.cached)) trend)

let jobs_do_not_change_results () =
  let batch =
    [
      tiny ~seed:1 ~label:"s1" ();
      tiny ~seed:2 ~label:"s2" ();
      tiny ~seed:3 ~label:"s3" ();
    ]
  in
  let serial_store = fresh_store () and pooled_store = fresh_store () in
  let serial, _ = Serve.Service.run_batch ~jobs:1 ~store:serial_store batch in
  let pooled, _ = Serve.Service.run_batch ~jobs:3 ~store:pooled_store batch in
  List.iter2
    (fun (ea, oa) (eb, ob) ->
      Alcotest.(check string) "submission order preserved" ea.Serve.Batch.label
        eb.Serve.Batch.label;
      let ra = match oa with Serve.Service.Hit r | Fresh r | Shared r -> r in
      let rb = match ob with Serve.Service.Hit r | Fresh r | Shared r -> r in
      Alcotest.(check bool)
        "parallel and serial runs agree bit for bit" true
        (Serve.Store.same_results ra rb))
    serial pooled

(* --- advisory in-flight claims (cross-process single-flight) --- *)

(* Two Store.t handles on one directory stand in for two processes:
   the claim lives in the filesystem, not in the handle. *)

let claim_exclusive () =
  let store = fresh_store () in
  let store2 = Serve.Store.open_store ~dir:(Serve.Store.dir store) in
  let hash = String.make 32 'a' in
  match Serve.Store.try_claim store ~hash with
  | `Busy -> Alcotest.fail "fresh hash was already busy"
  | `Claimed c ->
    (match Serve.Store.try_claim store2 ~hash with
    | `Busy -> ()
    | `Claimed _ -> Alcotest.fail "second handle claimed a held hash");
    Serve.Store.release_claim c;
    (* release is idempotent and frees the hash for the peer *)
    Serve.Store.release_claim c;
    (match Serve.Store.try_claim store2 ~hash with
    | `Claimed c2 -> Serve.Store.release_claim c2
    | `Busy -> Alcotest.fail "released claim still reads as busy")

let claim_stale_takeover () =
  let store = fresh_store () in
  let store2 = Serve.Store.open_store ~dir:(Serve.Store.dir store) in
  let hash = String.make 32 'b' in
  (match Serve.Store.try_claim store ~hash with
  | `Busy -> Alcotest.fail "fresh hash was already busy"
  | `Claimed _held_by_crashed_peer -> ());
  (* backdate the lock: its holder 'crashed' ten minutes ago *)
  let path = Serve.Store.claim_path store ~hash in
  let old = Unix.gettimeofday () -. 600. in
  Unix.utimes path old old;
  match Serve.Store.try_claim ~stale_after_s:120. store2 ~hash with
  | `Claimed c2 -> Serve.Store.release_claim c2
  | `Busy -> Alcotest.fail "stale lock was not taken over"

let claim_refresh () =
  let store = fresh_store () in
  let store2 = Serve.Store.open_store ~dir:(Serve.Store.dir store) in
  let hash = String.make 32 'e' in
  match Serve.Store.try_claim store ~hash with
  | `Busy -> Alcotest.fail "fresh hash was already busy"
  | `Claimed c ->
    (* the lock looks long-abandoned... *)
    let path = Serve.Store.claim_path store ~hash in
    let old = Unix.gettimeofday () -. 600. in
    Unix.utimes path old old;
    (* ...until the live holder refreshes it: no takeover *)
    Serve.Store.refresh_claim c;
    (match Serve.Store.try_claim ~stale_after_s:120. store2 ~hash with
    | `Busy -> ()
    | `Claimed _ -> Alcotest.fail "refreshed claim was stolen");
    Serve.Store.release_claim c;
    (* refresh after release is a no-op, not a lock resurrection *)
    Serve.Store.refresh_claim c;
    Alcotest.(check bool)
      "released lock stays gone through a late refresh" false
      (Sys.file_exists path)

let claim_adoption () =
  let store = fresh_store () in
  let store2 = Serve.Store.open_store ~dir:(Serve.Store.dir store) in
  let e = tiny ~label:"claimed" () in
  let hash = Serve.Service.hash_entry e in
  match Serve.Store.try_claim store ~hash with
  | `Busy -> Alcotest.fail "fresh hash was already busy"
  | `Claimed c ->
    (* handle 1 'is simulating' (holds the claim); its record lands *)
    let r, kind =
      Serve.Service.simulate_entry ~claim:false ~store e ~hash
    in
    Alcotest.(check bool)
      "the no-claim path always simulates" true
      (kind = Serve.Service.Simulated);
    (* handle 2 finds the claim held and the record present: it must
       adopt the peer's result, not re-simulate *)
    let r2, kind2 = Serve.Service.simulate_entry ~store:store2 e ~hash in
    Alcotest.(check bool)
      "second handle adopted the in-flight result" true
      (kind2 = Serve.Service.Adopted);
    Alcotest.(check bool)
      "adopted record equals the simulated one" true
      (Serve.Store.same_results r r2);
    Serve.Store.release_claim c

let claim_invisible_to_iteration () =
  let store = fresh_store () in
  let hash = String.make 32 'c' in
  match Serve.Store.try_claim store ~hash with
  | `Busy -> Alcotest.fail "fresh hash was already busy"
  | `Claimed c ->
    (* lock files are not records: counting, byte accounting, gc and
       invalidate must all skip them *)
    Alcotest.(check int) "count skips locks" 0 (Serve.Store.count store);
    Alcotest.(check int) "bytes skips locks" 0 (Serve.Store.bytes store);
    let g = Serve.Store.gc store ~max_bytes:0 in
    Alcotest.(check int) "gc examines no locks" 0 g.Serve.Store.examined;
    Alcotest.(check int) "invalidate removes no locks" 0
      (Serve.Store.invalidate store);
    Alcotest.(check bool)
      "the lock survives a full sweep" true
      (Sys.file_exists (Serve.Store.claim_path store ~hash));
    Serve.Store.release_claim c

let () =
  Alcotest.run "serve"
    [
      ( "canon",
        [
          Alcotest.test_case "field order" `Quick hash_field_order;
          Alcotest.test_case "sensitivity" `Quick hash_sensitivity;
          Alcotest.test_case "observation excluded" `Quick
            hash_ignores_observation;
          Alcotest.test_case "text and hash pinned" `Quick canon_pinned;
        ] );
      ( "batch",
        [
          Alcotest.test_case "grid expansion" `Quick grid_expansion;
          Alcotest.test_case "rejects malformed" `Quick batch_rejects;
          Alcotest.test_case "rejects sampling 0" `Quick
            batch_rejects_zero_sampling;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick store_roundtrip;
          Alcotest.test_case "version bump is stale" `Quick store_version_bump;
          Alcotest.test_case "corruption rejected" `Quick store_corruption;
          Alcotest.test_case "unreadable record is a miss" `Quick
            store_unreadable;
          Alcotest.test_case "record file bytes" `Quick store_record_bytes;
          Alcotest.test_case "every prefix is a miss or the record" `Quick
            store_prefixes;
          Alcotest.test_case "body-less record is a miss" `Quick store_bodyless;
          Alcotest.test_case "gc evicts oldest first" `Quick store_gc;
        ] );
      ( "trend",
        [
          Alcotest.test_case "append, load, report" `Quick trend_roundtrip;
          Alcotest.test_case "line bytes" `Quick trend_line_bytes;
        ] );
      ( "claims",
        [
          Alcotest.test_case "mutual exclusion across handles" `Quick
            claim_exclusive;
          Alcotest.test_case "stale lock takeover" `Quick claim_stale_takeover;
          Alcotest.test_case "live holder refresh defeats takeover" `Quick
            claim_refresh;
          Alcotest.test_case "in-flight adoption" `Slow claim_adoption;
          Alcotest.test_case "locks invisible to record iteration" `Quick
            claim_invisible_to_iteration;
        ] );
      ( "service",
        [
          Alcotest.test_case "second submission is free" `Slow
            second_submission_is_free;
          Alcotest.test_case "duplicates simulate once" `Slow
            duplicate_entries_simulate_once;
          Alcotest.test_case "trend keeps submitted labels" `Slow
            trend_keeps_submitted_labels;
          Alcotest.test_case "jobs determinism" `Slow jobs_do_not_change_results;
        ] );
    ]
