type figure = {
  id : string;
  title : string;
  chart : string;
  csv : string;
  result : Scenario.result option;
}

let fig1 () =
  let topo = Paper_net.topology () in
  let paths = Paper_net.paths topo in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Format.asprintf "%a@." Netgraph.Topology.pp topo);
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf "Path %d: %s  (bottleneck %d Mbps, delay %s)\n"
           (i + 1)
           (Netgraph.Path.to_string topo p)
           (Netgraph.Path.bottleneck_bps topo p / 1_000_000)
           (Engine.Time.to_string (Netgraph.Path.one_way_delay topo p))))
    paths;
  Buffer.add_string buf
    (Printf.sprintf "max-flow s->d (unrestricted): %d Mbps\n"
       (Netgraph.Maxflow.max_flow topo
          ~src:(Netgraph.Topology.node_id topo "s")
          ~dst:(Netgraph.Topology.node_id topo "d")
        / 1_000_000));
  (match Netgraph.Disjoint.bridges topo with
  | [] ->
    Buffer.add_string buf
      "no bridges: every single link failure leaves s and d connected\n"
  | ls ->
    Buffer.add_string buf
      (Printf.sprintf "bridges (single points of failure): %s\n"
         (String.concat ", "
            (List.map
               (fun lid ->
                 let l = Netgraph.Topology.link topo lid in
                 Printf.sprintf "%s--%s"
                   (Netgraph.Topology.node_name topo l.Netgraph.Topology.u)
                   (Netgraph.Topology.node_name topo l.Netgraph.Topology.v))
               ls))));
  {
    id = "1";
    title = "Fig. 1a/1b: the network and the three overlapping paths";
    chart = Buffer.contents buf;
    csv = "";
    result = None;
  }

let fig1c () =
  let topo = Paper_net.topology () in
  let paths = Paper_net.paths topo in
  let sys = Netgraph.Constraints.extract topo paths in
  let opt = Netgraph.Constraints.optimum topo paths in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Format.asprintf "%a@." (Netgraph.Constraints.pp_system topo) sys);
  let x = opt.Netgraph.Constraints.per_path_bps in
  Buffer.add_string buf
    (Printf.sprintf
       "LP optimum: total %.1f Mbps at (x1, x2, x3) = (%.1f, %.1f, %.1f)\n"
       (opt.Netgraph.Constraints.total_bps /. 1e6)
       (x.(0) /. 1e6) (x.(1) /. 1e6) (x.(2) /. 1e6));
  Buffer.add_string buf "binding bottlenecks (shadow price Mb/Mb):\n";
  List.iter
    (fun (lid, price) ->
      let l = Netgraph.Topology.link topo lid in
      Buffer.add_string buf
        (Printf.sprintf "  %s--%s: %.2f\n"
           (Netgraph.Topology.node_name topo l.Netgraph.Topology.u)
           (Netgraph.Topology.node_name topo l.Netgraph.Topology.v)
           price))
    opt.Netgraph.Constraints.bottlenecks;
  Buffer.add_string buf
    (Printf.sprintf
       "greedy fill from default Path 2 (Pareto point): %.1f Mbps total\n"
       (Paper_net.greedy_total_mbps ~default:2));
  (* The constraint polytope itself (what the paper's 3-d plot shows):
     enumerate its corner points. *)
  let vertices =
    Lp.Enumerate.feasible_vertices ~a:sys.Netgraph.Constraints.a
      ~b:sys.Netgraph.Constraints.b
  in
  Buffer.add_string buf
    (Printf.sprintf "feasible-region vertices (%d):\n" (List.length vertices));
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  (%5.1f, %5.1f, %5.1f)  total %5.1f Mbps\n"
           (v.(0) /. 1e6) (v.(1) /. 1e6) (v.(2) /. 1e6)
           ((v.(0) +. v.(1) +. v.(2)) /. 1e6)))
    vertices;
  let csv =
    Measure.Render.to_csv ~header:[ "x1_mbps"; "x2_mbps"; "x3_mbps"; "total" ]
      ~rows:
        (List.map
           (fun v ->
             [ v.(0) /. 1e6; v.(1) /. 1e6; v.(2) /. 1e6;
               (v.(0) +. v.(1) +. v.(2)) /. 1e6 ])
           vertices)
  in
  {
    id = "1c";
    title = "Fig. 1c: throughput constraints and LP optimum";
    chart = Buffer.contents buf;
    csv;
    result = None;
  }

let named_series result =
  List.map
    (fun (tag, s) -> (Printf.sprintf "path%d" tag, s))
    result.Scenario.per_tag
  @ [ ("total", result.Scenario.total) ]

let measured_figure ~id ~title ~cc ~duration ~sampling ~seed =
  let topo = Paper_net.topology () in
  let paths = Paper_net.tagged_paths ~default:2 topo in
  let spec =
    Scenario.make ~topo ~paths ~cc ~duration ~sampling ~seed ()
  in
  let result = Scenario.run spec in
  let named = named_series result in
  let chart =
    Measure.Render.ascii_chart ~y_max:100.0
      ~title:(Printf.sprintf "%s (Mbps; optimum %.0f)" title
                (Scenario.optimal_total_mbps result))
      named
  in
  { id; title; chart; csv = Measure.Render.series_csv named;
    result = Some result }

let fig2a ?(seed = 1) () =
  measured_figure ~id:"2a"
    ~title:"Fig. 2a: per-path rate, MPTCP-CUBIC, 100 ms sampling"
    ~cc:Mptcp.Algorithm.Cubic ~duration:(Engine.Time.s 4)
    ~sampling:(Engine.Time.ms 100) ~seed

let fig2b ?(seed = 1) () =
  measured_figure ~id:"2b"
    ~title:"Fig. 2b: per-path rate, MPTCP-OLIA, 100 ms sampling"
    ~cc:Mptcp.Algorithm.Olia ~duration:(Engine.Time.s 4)
    ~sampling:(Engine.Time.ms 100) ~seed

let fig2c ?(seed = 1) () =
  let f =
    measured_figure ~id:"2c"
      ~title:"Fig. 2c: per-path rate, MPTCP-CUBIC, first 0.5 s at 10 ms"
      ~cc:Mptcp.Algorithm.Cubic ~duration:(Engine.Time.ms 500)
      ~sampling:(Engine.Time.ms 10) ~seed
  in
  (* The paper credits the TCP sawtooth visible at this resolution for
     CUBIC's gradient search: show the congestion windows alongside. *)
  match f.result with
  | None -> f
  | Some r ->
    let cwnd_chart =
      Measure.Render.ascii_chart
        ~title:"per-subflow cwnd (MSS), same window"
        (List.map
           (fun (tag, s) -> (Printf.sprintf "cwnd%d" tag, s))
           r.Scenario.cwnd_series)
    in
    { f with chart = f.chart ^ cwnd_chart }

let all ?(seed = 1) ?jobs () =
  Engine.Pool.map ?domains:jobs
    (fun f -> f ())
    [
      fig1;
      fig1c;
      (fun () -> fig2a ~seed ());
      (fun () -> fig2b ~seed ());
      (fun () -> fig2c ~seed ());
    ]

let by_id = function
  | "1" | "1a" | "1b" -> Some (fun ?seed:_ () -> fig1 ())
  | "1c" -> Some (fun ?seed:_ () -> fig1c ())
  | "2a" -> Some (fun ?seed () -> fig2a ?seed ())
  | "2b" -> Some (fun ?seed () -> fig2b ?seed ())
  | "2c" -> Some (fun ?seed () -> fig2c ?seed ())
  | _ -> None
