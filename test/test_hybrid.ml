(* Accuracy goldens for the hybrid fluid/packet co-simulation: on the
   paper topology, a fluid CBR background field must cost the
   foreground MPTCP connection the same goodput (within 5%) as the
   equivalent packet-level cross-traffic source on the same route —
   the cheap fluid abstraction and the expensive packet one agree on
   what the foreground experiences.  Four ablations cover light and
   heavy background load, coupled and uncoupled foreground
   controllers, and a doubled buffer; every hybrid run is audited. *)

module E = Events.Event

let foreground_tail r =
  List.fold_left (fun acc (_, m) -> acc +. m) 0.0
    (Core.Scenario.per_path_tail_mbps r)

(* One (hybrid, all-packet) spec pair: same topology, paths, seed and
   duration; the only difference is whether the background load is a
   fluid field or a packet-level CBR source. *)
let run_pair ?(duration_s = 2) ~cc ~bg_mbps ~flows ~limit_pkts () =
  let make events =
    let topo = Core.Paper_net.topology () in
    let paths = Core.Paper_net.tagged_paths ~default:2 topo in
    let net_config =
      { Core.Scenario.default_net_config with Netsim.Net.limit_pkts }
    in
    ( Core.Scenario.make ~topo ~paths ~cc ~duration:(Engine.Time.s duration_s)
        ~seed:1 ~net_config ~audit:true ~events (),
      paths )
  in
  (* Endpoints of the MPTCP connection: both load models route from s
     to d along the same delay-shortest path. *)
  let topo = Core.Paper_net.topology () in
  let p0 = List.hd (Core.Paper_net.paths topo) in
  let src = Netgraph.Path.src p0 and dst = Netgraph.Path.dst p0 in
  let total_bps = int_of_float (bg_mbps *. 1e6) in
  let hybrid_spec, _ =
    make
      [ E.at
          (E.Background_start
             { src; dst; classes = 1; flows; cc = None;
               rate_bps = total_bps / flows; rtt = Engine.Time.ms 20 })
          ~at:Engine.Time.zero ]
  in
  let packet_spec, _ =
    make
      [ E.at
          (E.Traffic_start
             { src; dst; tag = 100; rate_bps = total_bps; stop_at = None })
          ~at:Engine.Time.zero ]
  in
  (Core.Scenario.run hybrid_spec, Core.Scenario.run packet_spec)

let check_pair ?duration_s ~name ~cc ~bg_mbps ~flows ~limit_pkts
    ~golden_hybrid () =
  let rh, rp = run_pair ?duration_s ~cc ~bg_mbps ~flows ~limit_pkts () in
  (* The hybrid run must hold every audit invariant with the fluid
     field slowing the shared serializers. *)
  (match rh.Core.Scenario.audit with
  | None -> Alcotest.fail "hybrid run not audited"
  | Some rep ->
    Alcotest.(check int) (name ^ " audit clean") 0 rep.Audit.total_violations);
  (match rh.Core.Scenario.background with
  | None -> Alcotest.fail "hybrid run has no background summary"
  | Some s ->
    Alcotest.(check bool) (name ^ " driver ticked") true
      (s.Fluid.Background.Driver.ticks > 0);
    (* A CBR field under capacity delivers what it offers. *)
    Alcotest.(check (float 0.05)) (name ^ " bg goodput") bg_mbps
      s.Fluid.Background.Driver.goodput_mbps);
  let h = foreground_tail rh and p = foreground_tail rp in
  Alcotest.(check bool)
    (Printf.sprintf "%s hybrid %.2f within 5%% of packet %.2f" name h p)
    true
    (Float.abs (h -. p) <= 0.05 *. p);
  (* Pin the hybrid side so accuracy regressions show up as a golden
     diff, not just a widened gap. *)
  Alcotest.(check (float 1.0)) (name ^ " hybrid golden") golden_hybrid h

let light_lia () =
  check_pair ~name:"lia light" ~cc:Mptcp.Algorithm.Lia ~bg_mbps:8.0
    ~flows:10 ~limit_pkts:16 ~golden_hybrid:75.36 ()

let heavy_lia () =
  check_pair ~name:"lia heavy" ~cc:Mptcp.Algorithm.Lia ~bg_mbps:24.0
    ~flows:10 ~limit_pkts:16 ~golden_hybrid:59.18 ()

let light_olia () =
  check_pair ~duration_s:4 ~name:"olia light" ~cc:Mptcp.Algorithm.Olia
    ~bg_mbps:8.0 ~flows:10 ~limit_pkts:16 ~golden_hybrid:74.95 ()

let big_buffer_cubic () =
  check_pair ~name:"cubic 32-pkt" ~cc:Mptcp.Algorithm.Cubic ~bg_mbps:8.0
    ~flows:10 ~limit_pkts:32 ~golden_hybrid:81.40 ()

(* Exact outputs across declaration orders.  The field sums its
   classes' arrivals per channel in class order, so constant-rate and
   windowed classes interleave in that sum as they were declared; these
   pins hold six background mixes to the last bit, where the 1 Mbps
   goldens above would let a reassociated sum pass.  1 s paper-network
   runs, seed 7, background from s to d unless noted. *)
let order_pins =
  let topo = Core.Paper_net.topology () in
  let node = Netgraph.Topology.node_id topo in
  let bg ?(src = "s") ?(dst = "d") ~at_ms ~classes ~flows cc =
    E.at
      (E.Background_start
         { src = node src; dst = node dst; classes; flows; cc;
           rate_bps = (if cc = None then 5_000 else 0);
           rtt = Engine.Time.ms 20 })
      ~at:(Engine.Time.ms at_ms)
  in
  let cbr ?src ?dst at_ms = bg ?src ?dst ~at_ms ~classes:200 ~flows:10 None in
  let reno at_ms = bg ~at_ms ~classes:8 ~flows:2 (Some Mptcp.Algorithm.Reno) in
  let cubic at_ms =
    bg ~at_ms ~classes:8 ~flows:2 (Some Mptcp.Algorithm.Cubic)
  in
  [ ( "cbr only",
      [ cbr 0 ],
      "events=84758 delivered=7984272 tail=70.439999999999998 steps=2115 \
       offered=10.000000000000025 goodput=10.000000000000025 \
       max_queue=0.51305968065211915" );
    ( "reno only",
      [ reno 0 ],
      "events=30391 delivered=121632 tail=33.600000000000001 steps=1352 \
       offered=42.030813662899931 goodput=38.660891489817459 \
       max_queue=10.265249398857657" );
    ( "cubic only",
      [ cubic 0 ],
      "events=32583 delivered=205616 tail=34.119999999999997 steps=1217 \
       offered=41.995439682196 goodput=39.706574015335796 \
       max_queue=9.8676653994534185" );
    ( "cbr then reno",
      [ cbr 0; reno 300 ],
      "events=58194 delivered=4940576 tail=35.959999999999994 steps=1593 \
       offered=44.187215998581458 goodput=40.065501551796117 \
       max_queue=10.443321504105953" );
    ( "reno then cbr",
      [ reno 0; cbr 300 ],
      "events=30003 delivered=121632 tail=32.640000000000001 steps=1223 \
       offered=43.717817435113204 goodput=38.810669557320622 \
       max_queue=10.680250117879803" );
    ( "cubic cbr reno cbr",
      [ cubic 0; cbr 100; reno 200; cbr ~dst:"v4" 500 ],
      "events=16960 delivered=1291616 tail=3.3599999999999999 steps=1377 \
       offered=54.939696168921799 goodput=39.999632746862339 \
       max_queue=12.171796168315829" ) ]

let order_pin (name, events, expected) () =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:2 topo in
  let r =
    Core.Scenario.run
      (Core.Scenario.make ~topo ~paths ~cc:Mptcp.Algorithm.Lia
         ~duration:(Engine.Time.s 1) ~seed:7 ~events ())
  in
  let s = Option.get r.Core.Scenario.background in
  let got =
    Printf.sprintf
      "events=%d delivered=%d tail=%.17g steps=%d offered=%.17g \
       goodput=%.17g max_queue=%.17g"
      r.Core.Scenario.events_processed r.Core.Scenario.delivered_bytes
      (foreground_tail r) s.Fluid.Background.Driver.ode_steps
      s.Fluid.Background.Driver.offered_mbps
      s.Fluid.Background.Driver.goodput_mbps
      s.Fluid.Background.Driver.max_occupancy_pkts
  in
  Alcotest.(check string) name expected got

(* Constant-rate classes carry no state: a field with 1 000 of them has
   the state dimension of one with a single constant class, and a tick
   that integrates allocates no more.  Both fields put the same 2 000
   pps of constant load behind a Reno and a CUBIC class on four
   channels, so the constant classes are summed in every derivative
   evaluation rather than folded; the foreground alternates so neither
   field goes dormant. *)
let constant_classes_cost () =
  let field ~constants =
    let spec law ~rate ~chans =
      { Fluid.Background.flows = 10; law; flow_rate_pps = rate;
        base_rtt_s = 0.02; chans; start_s = 0.0 }
    in
    let rate = 2000.0 /. float_of_int (10 * constants) in
    Fluid.Background.compile
      ~channels:
        (Array.make 4 { Fluid.Background.cap_pps = 8000.0; limit_pkts = 16 })
      ~classes:
        (Array.append
           [| spec (Fluid.Background.Windowed Fluid.Controller.Reno)
                ~rate:0.0 ~chans:[| 0; 1 |];
              spec (Fluid.Background.Windowed Fluid.Controller.Cubic)
                ~rate:0.0 ~chans:[| 2; 3 |] |]
           (Array.init constants (fun i ->
                spec Fluid.Background.Constant ~rate ~chans:[| i mod 4 |])))
      ()
  in
  let ticks f ~from ~n =
    for k = from to from + n - 1 do
      for ch = 0 to 3 do
        Fluid.Background.set_foreground f ~chan:ch
          ~pps:(if k land 1 = 0 then 500.0 else 1500.0)
      done;
      ignore (Fluid.Background.advance f ~dt_s:0.001)
    done
  in
  let words f =
    ticks f ~from:0 ~n:20;
    let minor0, promoted0, major0 = Gc.counters () in
    ticks f ~from:20 ~n:50;
    let minor1, promoted1, major1 = Gc.counters () in
    (minor1 -. minor0) +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let one = field ~constants:1 and many = field ~constants:1000 in
  Alcotest.(check int) "dim independent of constant classes"
    (Fluid.Background.dim one) (Fluid.Background.dim many);
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "no rate before the first advance" (0.0, 0.0)
    (Fluid.Background.offered_pps many, Fluid.Background.goodput_pps many);
  let w1 = words one and w1000 = words many in
  Alcotest.(check bool)
    (Printf.sprintf "1000 constant classes allocate %.0f words vs %.0f for 1"
       w1000 w1)
    true
    (w1000 <= 1.1 *. w1)

let () =
  Alcotest.run "hybrid"
    [
      ( "accuracy",
        [
          Alcotest.test_case "lia light background" `Quick light_lia;
          Alcotest.test_case "lia heavy background" `Quick heavy_lia;
          Alcotest.test_case "olia light background" `Quick light_olia;
          Alcotest.test_case "cubic big buffers" `Quick big_buffer_cubic;
        ] );
      ( "declaration order",
        List.map
          (fun ((name, _, _) as pin) ->
            Alcotest.test_case name `Quick (order_pin pin))
          order_pins );
      ( "cost",
        [
          Alcotest.test_case "constant classes add no state or allocation"
            `Quick constant_classes_cost;
        ] );
    ]
