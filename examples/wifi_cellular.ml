(* The classic MPTCP use case the paper's introduction starts from: a
   phone connected through Wi-Fi (fast, short RTT) and cellular (slower,
   long RTT) at the same time — two fully DISJOINT paths, in contrast to
   the paper's overlapping ones.

   Halfway through the run a neighbour starts a 40 Mbps download that
   congests the Wi-Fi access link; MPTCP's coupled congestion control
   shifts the transfer onto cellular without stalling.

     dune exec examples/wifi_cellular.exe *)

let () =
  let b = Netgraph.Topology.builder () in
  let phone = Netgraph.Topology.add_node b "phone" in
  let wifi_ap = Netgraph.Topology.add_node b "wifi-ap" in
  let lte_gw = Netgraph.Topology.add_node b "lte-gw" in
  let server = Netgraph.Topology.add_node b "server" in
  let neighbour = Netgraph.Topology.add_node b "neighbour" in
  let link u v mbps delay_ms =
    ignore
      (Netgraph.Topology.add_link b ~u ~v
         ~capacity_bps:(Netgraph.Topology.mbps mbps)
         ~delay:(Engine.Time.ms delay_ms))
  in
  link phone wifi_ap 50 3;    (* Wi-Fi access *)
  link phone lte_gw 30 25;    (* LTE access: slower, longer RTT *)
  link wifi_ap server 100 5;
  link lte_gw server 100 5;
  link neighbour wifi_ap 100 1;
  let topo = Netgraph.Topology.build b in

  let sched = Engine.Sched.create () in
  let rng = Engine.Rng.create 7 in
  let net = Netsim.Net.create ~sched ~rng topo in

  (* A download: the server is the sender, so the Wi-Fi access link's
     ap -> phone direction carries the data. *)
  let wifi_path = Netgraph.Path.of_names topo [ "server"; "wifi-ap"; "phone" ] in
  let lte_path = Netgraph.Path.of_names topo [ "server"; "lte-gw"; "phone" ] in
  assert (Netgraph.Path.disjoint wifi_path lte_path);
  let paths = Mptcp.Path_manager.tag_paths [ wifi_path; lte_path ] in

  let src = Tcp.Endpoint.create net ~node:server in
  let dst = Tcp.Endpoint.create net ~node:phone in
  let horizon = Engine.Time.s 20 in
  let capture =
    Measure.Capture.attach net ~node:phone ~conn:1
      ~window:(Engine.Time.ms 250) ~until:horizon
  in
  let conn =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
      ~cc:Mptcp.Algorithm.Lia ()
  in

  (* The neighbour's download floods the Wi-Fi uplink from t = 10 s.  It
     shares only the wifi-ap -> server side; to squeeze the phone's
     access link we aim it across the AP link itself. *)
  Netsim.Net.install_path net ~tag:99
    (Netgraph.Path.of_names topo [ "neighbour"; "wifi-ap"; "phone" ]);
  let cross =
    Netsim.Traffic.cbr ~net ~src:neighbour ~dst:phone ~tag:99
      ~rate_bps:(Netgraph.Topology.mbps 45)
      ~start:(Engine.Time.s 10) ()
  in

  Engine.Sched.run ~until:horizon sched;

  let per_tag, total = Measure.Capture.per_tag capture in
  let named =
    List.map (fun (tag, s) ->
        ((if tag = 1 then "wifi" else "lte"), s))
      per_tag
    @ [ ("total", total) ]
  in
  print_string
    (Measure.Render.ascii_chart
       ~title:"Wi-Fi + LTE aggregation; Wi-Fi congested from t=10s (Mbps)"
       named);
  let wifi = List.assoc 1 per_tag and lte = List.assoc 2 per_tag in
  Format.printf
    "first half: wifi %.1f / lte %.1f Mbps; second half: wifi %.1f / lte %.1f Mbps@."
    (Measure.Series.mean_between wifi ~from_s:2.0 ~to_s:10.0)
    (Measure.Series.mean_between lte ~from_s:2.0 ~to_s:10.0)
    (Measure.Series.mean_from wifi ~from_s:12.0)
    (Measure.Series.mean_from lte ~from_s:12.0);
  Format.printf "delivered %.1f MB in %.0f s (cross traffic sent %d packets)@."
    (float_of_int (Mptcp.Connection.delivered_bytes conn) /. 1e6)
    (Engine.Time.to_float_s horizon)
    (Netsim.Traffic.packets_sent cross)
