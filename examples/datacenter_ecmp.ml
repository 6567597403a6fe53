(* Datacenter multipath, after Raiciu et al. [4] (the paper's tagging
   reference): a small leaf-spine fabric where ECMP hashing is modelled
   by tags — each tag pins a subflow to one spine.

   One MPTCP connection with 4 subflows (one per spine) is compared with
   a single-path TCP that ECMP happened to hash onto one spine.  A
   background flow collides with one of the spines, so the MPTCP
   aggregate also shows the benefit of moving traffic off the congested
   path with LIA.

     dune exec examples/datacenter_ecmp.exe *)

let build () =
  let b = Netgraph.Topology.builder () in
  let h1 = Netgraph.Topology.add_node b "h1" in
  let h2 = Netgraph.Topology.add_node b "h2" in
  let leaf1 = Netgraph.Topology.add_node b "leaf1" in
  let leaf2 = Netgraph.Topology.add_node b "leaf2" in
  let spines =
    List.init 4 (fun i ->
        Netgraph.Topology.add_node b (Printf.sprintf "spine%d" (i + 1)))
  in
  let link u v mbps =
    ignore
      (Netgraph.Topology.add_link b ~u ~v
         ~capacity_bps:(Netgraph.Topology.mbps mbps)
         ~delay:(Engine.Time.us 50))
  in
  link h1 leaf1 100;
  link h2 leaf2 100;
  List.iter
    (fun sp ->
      link leaf1 sp 25;
      link leaf2 sp 25)
    spines;
  (Netgraph.Topology.build b, h1, h2)

let spine_paths topo =
  List.init 4 (fun i ->
      Netgraph.Path.of_names topo
        [ "h1"; "leaf1"; Printf.sprintf "spine%d" (i + 1); "leaf2"; "h2" ])

let run_case ~label ~subflows =
  let topo, h1, h2 = build () in
  let sched = Engine.Sched.create () in
  let rng = Engine.Rng.create 11 in
  let net = Netsim.Net.create ~sched ~rng topo in
  let paths =
    Mptcp.Path_manager.tag_paths
      (List.filteri (fun i _ -> i < subflows) (spine_paths topo))
  in
  let src = Tcp.Endpoint.create net ~node:h1 in
  let dst = Tcp.Endpoint.create net ~node:h2 in
  let horizon = Engine.Time.s 10 in
  let capture =
    Measure.Capture.attach net ~node:h2 ~conn:1 ~window:(Engine.Time.ms 500)
      ~until:horizon
  in
  let conn =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
      ~cc:Mptcp.Algorithm.Lia ()
  in
  (* Background elephant colliding on spine1 for the whole run. *)
  let leaf1 = Netgraph.Topology.node_id topo "leaf1" in
  let leaf2 = Netgraph.Topology.node_id topo "leaf2" in
  Netsim.Net.install_path net ~tag:99
    (Netgraph.Path.of_names topo [ "leaf1"; "spine1"; "leaf2" ]);
  let _bg =
    Netsim.Traffic.cbr ~net ~src:leaf1 ~dst:leaf2 ~tag:99
      ~rate_bps:(Netgraph.Topology.mbps 20) ()
  in
  Engine.Sched.run ~until:horizon sched;
  let _, total = Measure.Capture.per_tag capture in
  Format.printf "%-28s %.1f Mbps (delivered %.1f MB)@." label
    (Measure.Series.mean_from total ~from_s:2.0)
    (float_of_int (Mptcp.Connection.delivered_bytes conn) /. 1e6);
  Measure.Series.mean_from total ~from_s:2.0

let () =
  Format.printf "leaf-spine fabric: 4 spines x 25 Mbps, spine1 carries a@.";
  Format.printf "20 Mbps background elephant.@.@.";
  let single = run_case ~label:"single-path TCP (spine1)" ~subflows:1 in
  let multi = run_case ~label:"MPTCP-LIA, 4 subflows" ~subflows:4 in
  Format.printf "@.MPTCP aggregates %.1fx the single-path throughput.@."
    (multi /. single)
