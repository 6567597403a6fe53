(* Tests for the measurement layer: capture recording and exact
   binning, series statistics, convergence metrics, and rendering. *)

let ms = Engine.Time.ms

(* --- Capture --- *)

let capture_manual () =
  let c = Measure.Capture.create ~window:(ms 100) ~until:(ms 100) in
  Measure.Capture.record c ~time:(ms 10) ~tag:1 ~bytes:1500;
  Measure.Capture.record c ~time:(ms 20) ~tag:2 ~bytes:1500;
  Measure.Capture.record c ~time:(ms 30) ~tag:1 ~bytes:52;
  let per, total = Measure.Capture.per_tag c in
  Alcotest.(check (list int)) "tags" [ 1; 2 ] (List.map fst per);
  (* 1552 B in 0.1 s = 0.12416 Mbps. *)
  Alcotest.(check (float 1e-9)) "tag 1's bin" 0.12416
    (Measure.Series.value_at (List.assoc 1 per) 0);
  Alcotest.(check (float 1e-9)) "the total's bin" 0.24416
    (Measure.Series.value_at total 0)

(* --- Binning: the capture's series --- *)

let sampler_exact_bins () =
  let c = Measure.Capture.create ~window:(ms 100) ~until:(ms 300) in
  (* Window 100 ms: packets at 50 ms and 99 ms land in bin 0; 100 ms in
     bin 1. *)
  Measure.Capture.record c ~time:(ms 50) ~tag:1 ~bytes:1250;
  Measure.Capture.record c ~time:(ms 99) ~tag:1 ~bytes:1250;
  Measure.Capture.record c ~time:(ms 100) ~tag:1 ~bytes:2500;
  let _, s = Measure.Capture.per_tag c in
  Alcotest.(check int) "three bins" 3 (Measure.Series.length s);
  (* 2500 B in 0.1 s = 0.2 Mbps. *)
  Alcotest.(check (float 1e-9)) "bin 0" 0.2 (Measure.Series.value_at s 0);
  Alcotest.(check (float 1e-9)) "bin 1" 0.2 (Measure.Series.value_at s 1);
  Alcotest.(check (float 1e-9)) "bin 2 empty" 0.0 (Measure.Series.value_at s 2)

let sampler_tag_filter () =
  let c = Measure.Capture.create ~window:(ms 100) ~until:(ms 100) in
  Measure.Capture.record c ~time:(ms 10) ~tag:1 ~bytes:1000;
  Measure.Capture.record c ~time:(ms 20) ~tag:2 ~bytes:3000;
  let per, _ = Measure.Capture.per_tag c in
  Alcotest.(check (float 1e-9)) "only tag 1" 0.08
    (Measure.Series.value_at (List.assoc 1 per) 0)

let sampler_per_tag_total () =
  let c = Measure.Capture.create ~window:(ms 100) ~until:(ms 100) in
  Measure.Capture.record c ~time:(ms 10) ~tag:1 ~bytes:1000;
  Measure.Capture.record c ~time:(ms 20) ~tag:2 ~bytes:3000;
  let per, total = Measure.Capture.per_tag c in
  Alcotest.(check int) "two tags" 2 (List.length per);
  Alcotest.(check (float 1e-9)) "total is the sum" 0.32
    (Measure.Series.value_at total 0);
  let sum =
    List.fold_left
      (fun acc (_, s) -> acc +. Measure.Series.value_at s 0)
      0.0 per
  in
  Alcotest.(check (float 1e-9)) "per-tag adds up" 0.32 sum

let sampler_events_beyond_horizon_dropped () =
  let c = Measure.Capture.create ~window:(ms 100) ~until:(ms 100) in
  Measure.Capture.record c ~time:(ms 150) ~tag:1 ~bytes:1000;
  let per, s = Measure.Capture.per_tag c in
  Alcotest.(check int) "one bin" 1 (Measure.Series.length s);
  Alcotest.(check (float 1e-9)) "nothing counted" 0.0
    (Measure.Series.value_at s 0);
  Alcotest.(check (list int)) "its tag still listed" [ 1 ] (List.map fst per)

let capture_validation () =
  Alcotest.(check bool) "zero window rejected" true
    (try ignore (Measure.Capture.create ~window:0 ~until:(ms 10)); false
     with Invalid_argument _ -> true)

(* Reference model: keep every arrival, then bin the log after the run
   at the capture's window, once per tag seen and once for the total —
   the post-processing the capture's bins replace. *)
let binned_after_the_fact ~window ~until arrivals =
  let mbps keep =
    let bytes = Array.make (max 1 ((until + window - 1) / window)) 0 in
    List.iter
      (fun (time, tag, b) ->
        if keep tag && time < until then
          bytes.(time / window) <- bytes.(time / window) + b)
      arrivals;
    let w_s = Engine.Time.to_float_s window in
    Measure.Series.create ~t0:0.0 ~dt:w_s
      (Array.map (fun b -> float_of_int (b * 8) /. w_s /. 1e6) bytes)
  in
  let tags =
    List.sort_uniq Int.compare (List.map (fun (_, g, _) -> g) arrivals)
  in
  (List.map (fun g -> (g, mbps (Int.equal g))) tags, mbps (fun _ -> true))

let gen_arrivals =
  QCheck.Gen.(
    map Engine.Time.us (1 -- 50_000) >>= fun window ->
    map Engine.Time.us (0 -- 500_000) >>= fun until ->
    (* Times anywhere up to two windows past the horizon, and often
       exactly on it or on a bin boundary. *)
    let time =
      frequency
        [ (3, 0 -- (until + (2 * window)));
          (1, return until);
          (1, map (fun k -> k * window) (0 -- ((until / window) + 2))) ]
    in
    list_size (0 -- 60) (triple time (0 -- 4) (1 -- 9_000)) >>= fun arrivals ->
    return (window, until, arrivals))

let qcheck_capture_vs_model =
  QCheck.Test.make ~name:"bins equal binning after the fact"
    ~count:500
    (QCheck.make gen_arrivals
       ~print:(fun (window, until, arrivals) ->
         Printf.sprintf "window %d until %d arrivals [%s]" window until
           (String.concat "; "
              (List.map
                 (fun (t, g, b) -> Printf.sprintf "(%d,%d,%d)" t g b)
                 arrivals))))
    (fun (window, until, arrivals) ->
      let c = Measure.Capture.create ~window ~until in
      List.iter
        (fun (time, tag, bytes) -> Measure.Capture.record c ~time ~tag ~bytes)
        arrivals;
      Measure.Capture.per_tag c = binned_after_the_fact ~window ~until arrivals)

(* --- Series --- *)

let series_stats () =
  let s = Measure.Series.create ~t0:0.0 ~dt:1.0 [| 10.; 20.; 30.; 40. |] in
  Alcotest.(check (float 1e-9)) "mean" 25.0 (Measure.Series.mean s);
  Alcotest.(check (float 1e-9)) "max" 40.0 (Measure.Series.max_value s);
  Alcotest.(check (float 1e-9)) "time of window 0 is its end" 1.0
    (Measure.Series.time_at s 0);
  Alcotest.(check (float 1e-9)) "mean of the tail" 35.0
    (Measure.Series.mean_from s ~from_s:3.0);
  Alcotest.(check (float 1e-9)) "mean between" 25.0
    (Measure.Series.mean_between s ~from_s:2.0 ~to_s:4.0);
  (* Tail {30, 40}: mean 35, std 5. *)
  Alcotest.(check (float 1e-9)) "std of the tail" 5.0
    (Measure.Series.std_from s ~from_s:3.0);
  Alcotest.(check bool) "empty tail is nan" true
    (Float.is_nan (Measure.Series.mean_from s ~from_s:100.0))

let series_sum_and_map2 () =
  let a = Measure.Series.create ~t0:0.0 ~dt:0.1 [| 1.; 2. |] in
  let b = Measure.Series.create ~t0:0.0 ~dt:0.1 [| 10.; 20. |] in
  let s = Measure.Series.sum [ a; b ] in
  Alcotest.(check (float 1e-9)) "sum" 22.0 (Measure.Series.value_at s 1);
  let c = Measure.Series.create ~t0:0.0 ~dt:0.2 [| 1.; 2. |] in
  Alcotest.(check bool) "shape mismatch rejected" true
    (try ignore (Measure.Series.map2 a c ~f:( +. )); false
     with Invalid_argument _ -> true)

(* --- Converge --- *)

let synthetic ramp =
  Measure.Series.create ~t0:0.0 ~dt:0.1 (Array.of_list ramp)

let converge_time_to_reach () =
  let s = synthetic [ 10.; 50.; 86.; 87.; 88.; 90.; 40.; 90. ] in
  (match Measure.Converge.time_to_reach s ~target:90.0 ~tolerance:0.05 ~hold:3 () with
  | Some t ->
    (* Windows 2,3,4 (>= 85.5) are the first 3-window hold; window 2 ends
       at 0.3 s. *)
    Alcotest.(check (float 1e-9)) "reach time" 0.3 t
  | None -> Alcotest.fail "should reach");
  (* Never reaches with a tight tolerance and long hold. *)
  Alcotest.(check bool) "hold breaks on the dip" true
    (Measure.Converge.time_to_reach s ~target:90.0 ~tolerance:0.01 ~hold:4 ()
     = None)

let converge_fraction_and_dips () =
  let s = synthetic [ 90.; 90.; 40.; 90.; 90.; 40.; 90. ] in
  Alcotest.(check (float 1e-9)) "fraction above" (5.0 /. 7.0)
    (Measure.Converge.fraction_above s ~target:90.0 ~tolerance:0.05 ());
  Alcotest.(check int) "two dips" 2
    (Measure.Converge.dip_count s ~target:90.0 ());
  Alcotest.(check int) "no dip when never above" 0
    (Measure.Converge.dip_count (synthetic [ 1.; 2. ]) ~target:90.0 ())

let converge_cv () =
  let flat = synthetic [ 50.; 50.; 50.; 50. ] in
  Alcotest.(check (float 1e-9)) "flat series has cv 0" 0.0
    (Measure.Converge.coefficient_of_variation flat ~from_s:0.0);
  let noisy = synthetic [ 40.; 60.; 40.; 60. ] in
  Alcotest.(check bool) "noisy cv > 0" true
    (Measure.Converge.coefficient_of_variation noisy ~from_s:0.0 > 0.1)

let jain () =
  Alcotest.(check (float 1e-9)) "even split" 1.0
    (Measure.Converge.jain_fairness [| 10.; 10.; 10. |]);
  Alcotest.(check (float 1e-9)) "one hog" (1.0 /. 3.0)
    (Measure.Converge.jain_fairness [| 30.; 0.; 0. |]);
  Alcotest.(check (float 1e-9)) "all zero treated as fair" 1.0
    (Measure.Converge.jain_fairness [| 0.; 0. |]);
  Alcotest.(check bool) "empty rejected" true
    (try ignore (Measure.Converge.jain_fairness [||]); false
     with Invalid_argument _ -> true)

(* --- Stats --- *)

let stats_summary () =
  match Measure.Stats.summarise [ 1.0; 2.0; 3.0; 4.0; 5.0 ] with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
    Alcotest.(check int) "count" 5 s.Measure.Stats.count;
    Alcotest.(check (float 1e-9)) "mean" 3.0 s.Measure.Stats.mean;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Measure.Stats.min;
    Alcotest.(check (float 1e-9)) "max" 5.0 s.Measure.Stats.max;
    Alcotest.(check (float 1e-9)) "median" 3.0 s.Measure.Stats.p50;
    (* sample std of 1..5 = sqrt(2.5) *)
    Alcotest.(check (float 1e-9)) "std" (Float.sqrt 2.5) s.Measure.Stats.std

let stats_percentile () =
  let v = [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Measure.Stats.percentile v ~p:0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 4.0
    (Measure.Stats.percentile v ~p:100.0);
  Alcotest.(check (float 1e-9)) "p50 interpolates" 2.5
    (Measure.Stats.percentile v ~p:50.0);
  Alcotest.(check bool) "empty rejected" true
    (try ignore (Measure.Stats.percentile [||] ~p:50.0); false
     with Invalid_argument _ -> true)

let stats_edge_cases () =
  Alcotest.(check bool) "empty list" true (Measure.Stats.summarise [] = None);
  (match Measure.Stats.summarise [ 7.0 ] with
  | Some s ->
    Alcotest.(check (float 1e-9)) "singleton std 0" 0.0 s.Measure.Stats.std;
    Alcotest.(check (float 1e-9)) "ci 0 for n=1" 0.0
      (Measure.Stats.confidence95 s)
  | None -> Alcotest.fail "singleton must summarise");
  Alcotest.(check bool) "nan rejected" true
    (try ignore (Measure.Stats.summarise [ Float.nan ]); false
     with Invalid_argument _ -> true)

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p and bounded"
    ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_bound_inclusive 100.0))
              (pair (0 -- 100) (0 -- 100)))
    (fun (values, (p1, p2)) ->
      match values with
      | [] -> true
      | _ ->
        let arr = Array.of_list values in
        let lo = min p1 p2 and hi = max p1 p2 in
        let v_lo = Measure.Stats.percentile arr ~p:(float_of_int lo) in
        let v_hi = Measure.Stats.percentile arr ~p:(float_of_int hi) in
        let mn = Measure.Stats.percentile arr ~p:0.0 in
        let mx = Measure.Stats.percentile arr ~p:100.0 in
        v_lo <= v_hi +. 1e-9 && mn <= v_lo +. 1e-9 && v_hi <= mx +. 1e-9)

let qcheck_percentile_vs_naive =
  (* Reference model: sort the list, interpolate by hand — exercised on
     unsorted input with duplicates. *)
  QCheck.Test.make ~name:"percentile agrees with a naive model" ~count:300
    QCheck.(
      pair (list_of_size Gen.(1 -- 30) (float_bound_inclusive 1000.0))
        (0 -- 100))
    (fun (values, p) ->
      match values with
      | [] -> true
      | _ ->
        let arr = Array.of_list (List.sort Float.compare values) in
        let n = Array.length arr in
        let rank = float_of_int p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = int_of_float (Float.ceil rank) in
        let expect =
          if lo = hi then arr.(lo)
          else begin
            let frac = rank -. float_of_int lo in
            (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)
          end
        in
        let got =
          Measure.Stats.percentile (Array.of_list values)
            ~p:(float_of_int p)
        in
        Float.abs (got -. expect) <= 1e-9 *. (1.0 +. Float.abs expect))

let qcheck_summarise_roundtrip =
  QCheck.Test.make ~name:"summarise round-trips min/max/p50" ~count:300
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_inclusive 500.0))
    (fun values ->
      match Measure.Stats.summarise values with
      | None -> values = []
      | Some s ->
        let sorted = List.sort Float.compare values in
        s.Measure.Stats.count = List.length values
        && s.Measure.Stats.min = List.hd sorted
        && s.Measure.Stats.max = List.nth sorted (List.length sorted - 1)
        && s.Measure.Stats.p50
           = Measure.Stats.percentile (Array.of_list values) ~p:50.0
        && s.Measure.Stats.min <= s.Measure.Stats.p50 +. 1e-9
        && s.Measure.Stats.p50 <= s.Measure.Stats.max +. 1e-9
        && s.Measure.Stats.mean >= s.Measure.Stats.min -. 1e-9
        && s.Measure.Stats.mean <= s.Measure.Stats.max +. 1e-9)

(* --- Trace --- *)

let trace_records_and_filters () =
  let b = Netgraph.Topology.builder () in
  let a = Netgraph.Topology.add_node b "a" in
  let z = Netgraph.Topology.add_node b "z" in
  let lid = Netgraph.Topology.add_link b ~u:a ~v:z
      ~capacity_bps:(Netgraph.Topology.mbps 100) ~delay:(ms 1) in
  let topo = Netgraph.Topology.build b in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 1) topo in
  Netsim.Net.install_route net ~node:a ~dst:z ~tag:1 ~link:lid;
  Netsim.Net.attach_host net ~node:z (fun _ -> ());
  let all = Measure.Trace.attach net ~nodes:[ z ] () in
  let plain_only =
    Measure.Trace.attach net ~nodes:[ z ]
      ~keep:(fun p -> p.Packet.body = Packet.Plain) ()
  in
  for i = 1 to 3 do
    Netsim.Net.inject net ~at:a
      (Packet.make_plain ~id:i ~src:a ~dst:z ~tag:1 ~born:0 ~size:1500)
  done;
  Netsim.Net.inject net ~at:a
    (Packet.make_tcp ~id:9 ~src:a ~dst:z ~tag:1 ~born:0
       { Packet.conn = 1; subflow = 0; kind = Packet.Data; seq = 0;
         payload = 100; ack = 0; sack = []; ece = false; dss = None; data_ack = 0 });
  Engine.Sched.run sched;
  Alcotest.(check int) "all events" 4 (Measure.Trace.count all);
  Alcotest.(check int) "filtered events" 3 (Measure.Trace.count plain_only);
  let text = Measure.Trace.to_text net all in
  Alcotest.(check int) "one line per event" 4
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)));
  Alcotest.(check bool) "conn filter works" true
    (Measure.Trace.conn_filter 1
       (Measure.Trace.events all).(3).Measure.Trace.packet)

let trace_limit () =
  let b = Netgraph.Topology.builder () in
  let a = Netgraph.Topology.add_node b "a" in
  let z = Netgraph.Topology.add_node b "z" in
  let lid = Netgraph.Topology.add_link b ~u:a ~v:z
      ~capacity_bps:(Netgraph.Topology.mbps 100) ~delay:(ms 1) in
  let topo = Netgraph.Topology.build b in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 1) topo in
  Netsim.Net.install_route net ~node:a ~dst:z ~tag:1 ~link:lid;
  Netsim.Net.attach_host net ~node:z (fun _ -> ());
  let tr = Measure.Trace.attach net ~nodes:[ z ] ~limit:2 () in
  for i = 1 to 5 do
    Netsim.Net.inject net ~at:a
      (Packet.make_plain ~id:i ~src:a ~dst:z ~tag:1 ~born:0 ~size:1500)
  done;
  Engine.Sched.run sched;
  Alcotest.(check int) "capped" 2 (Measure.Trace.count tr);
  Alcotest.(check int) "excess counted" 3 (Measure.Trace.dropped tr);
  let lines =
    List.filter (( <> ) "")
      (String.split_on_char '\n' (Measure.Trace.to_text net tr))
  in
  Alcotest.(check (list string)) "kept events, then what the limit left out"
    [ "... (3 more events)" ]
    (List.filteri (fun i _ -> i >= 2) lines)

(* --- Probe --- *)

let probe_samples_state () =
  let sched = Engine.Sched.create () in
  let counter = ref 0.0 in
  ignore
    (Engine.Sched.at sched (ms 15) (fun () -> counter := 5.0));
  let probe =
    Measure.Probe.attach ~sched ~period:(ms 10) ~until:(ms 40) (fun () ->
        !counter)
  in
  Engine.Sched.run sched;
  Alcotest.(check int) "four samples" 4 (Measure.Probe.samples probe);
  let s = Measure.Probe.series probe in
  Alcotest.(check (float 1e-9)) "before the change" 0.0
    (Measure.Series.value_at s 0);
  Alcotest.(check (float 1e-9)) "after the change" 5.0
    (Measure.Series.value_at s 1);
  Alcotest.(check (float 1e-9)) "aligned timestamps" 0.02
    (Measure.Series.time_at s 1)

let probe_started_late () =
  let sched = Engine.Sched.create () in
  ignore
    (Engine.Sched.at sched (ms 100) (fun () ->
         let probe =
           Measure.Probe.attach ~sched ~period:(ms 10) ~until:(ms 130)
             (fun () -> 1.0)
         in
         ignore probe));
  (* Attaching mid-run must not raise (ticks are relative to now). *)
  Engine.Sched.run sched

let probe_validation () =
  let sched = Engine.Sched.create () in
  Alcotest.(check bool) "zero period rejected" true
    (try
       ignore (Measure.Probe.attach ~sched ~period:0 ~until:(ms 10) (fun () -> 0.0));
       false
     with Invalid_argument _ -> true)

(* --- Render --- *)

let csv_output () =
  let s1 = Measure.Series.create ~t0:0.0 ~dt:0.5 [| 1.; 2. |] in
  let s2 = Measure.Series.create ~t0:0.0 ~dt:0.5 [| 10.; 20. |] in
  let csv = Measure.Render.series_csv [ ("a", s1); ("b", s2) ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "time_s,a,b" (List.hd lines);
  Alcotest.(check string) "first row" "0.5,1,10" (List.nth lines 1)

let csv_row_mismatch () =
  Alcotest.(check bool) "ragged rows rejected" true
    (try
       ignore (Measure.Render.to_csv ~header:[ "a"; "b" ] ~rows:[ [ 1.0 ] ]);
       false
     with Invalid_argument _ -> true)

let ascii_chart_shape () =
  let s = Measure.Series.create ~t0:0.0 ~dt:0.1 (Array.init 40 float_of_int) in
  let chart =
    Measure.Render.ascii_chart ~width:40 ~height:10 ~title:"t" [ ("x", s) ]
  in
  let lines = String.split_on_char '\n' chart in
  (* title + height rows + axis + x labels + legend *)
  Alcotest.(check bool) "row count plausible" true (List.length lines >= 13);
  Alcotest.(check bool) "legend present" true
    (List.exists (fun l -> l = "legend: *=x") lines)

let () =
  Alcotest.run "measure"
    [
      ( "capture",
        [
          Alcotest.test_case "manual recording" `Quick capture_manual;
          Alcotest.test_case "window validation" `Quick capture_validation;
          QCheck_alcotest.to_alcotest qcheck_capture_vs_model;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "exact binning" `Quick sampler_exact_bins;
          Alcotest.test_case "tag filter" `Quick sampler_tag_filter;
          Alcotest.test_case "per-tag + total" `Quick sampler_per_tag_total;
          Alcotest.test_case "horizon respected" `Quick
            sampler_events_beyond_horizon_dropped;
        ] );
      ( "series",
        [
          Alcotest.test_case "statistics" `Quick series_stats;
          Alcotest.test_case "sum and shape checks" `Quick series_sum_and_map2;
        ] );
      ( "converge",
        [
          Alcotest.test_case "time to reach with hold" `Quick
            converge_time_to_reach;
          Alcotest.test_case "fraction above and dips" `Quick
            converge_fraction_and_dips;
          Alcotest.test_case "coefficient of variation" `Quick converge_cv;
          Alcotest.test_case "jain fairness" `Quick jain;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick stats_summary;
          Alcotest.test_case "percentile" `Quick stats_percentile;
          Alcotest.test_case "edge cases" `Quick stats_edge_cases;
          QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
          QCheck_alcotest.to_alcotest qcheck_percentile_vs_naive;
          QCheck_alcotest.to_alcotest qcheck_summarise_roundtrip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "record and filter" `Quick
            trace_records_and_filters;
          Alcotest.test_case "limit" `Quick trace_limit;
        ] );
      ( "probe",
        [
          Alcotest.test_case "samples state over time" `Quick
            probe_samples_state;
          Alcotest.test_case "attach mid-run" `Quick probe_started_late;
          Alcotest.test_case "validation" `Quick probe_validation;
        ] );
      ( "render",
        [
          Alcotest.test_case "csv" `Quick csv_output;
          Alcotest.test_case "csv validation" `Quick csv_row_mismatch;
          Alcotest.test_case "ascii chart" `Quick ascii_chart_shape;
        ] );
    ]
