let topology () =
  let link_delay = Engine.Time.ms 1 in
  let b = Netgraph.Topology.builder () in
  let s = Netgraph.Topology.add_node b "s" in
  let v1 = Netgraph.Topology.add_node b "v1" in
  let v2 = Netgraph.Topology.add_node b "v2" in
  let v3 = Netgraph.Topology.add_node b "v3" in
  let v4 = Netgraph.Topology.add_node b "v4" in
  let d = Netgraph.Topology.add_node b "d" in
  let link ?(delay = link_delay) u v mbps =
    ignore
      (Netgraph.Topology.add_link b ~u ~v
         ~capacity_bps:(Netgraph.Topology.mbps mbps) ~delay)
  in
  let dflt = 100 in
  link s v1 40;   (* shared by paths 1 and 2 *)
  link s v2 dflt;
  link v1 v2 dflt;
  (* Half delay on v1-v4 makes Path 2 strictly the shortest-RTT route
     (the paper's "default shortest path"); otherwise the unused 3-hop
     route s-v2-v3-d would tie it. *)
  link ~delay:(link_delay / 2) v1 v4 dflt;
  link v2 v3 60;  (* shared by paths 1 and 3 *)
  link v3 v4 dflt;
  link v3 d dflt;
  link v4 d 80;   (* shared by paths 2 and 3 *)
  Netgraph.Topology.build b

let paths topo =
  [
    Netgraph.Path.of_names topo [ "s"; "v1"; "v2"; "v3"; "d" ];
    Netgraph.Path.of_names topo [ "s"; "v1"; "v4"; "d" ];
    Netgraph.Path.of_names topo [ "s"; "v2"; "v3"; "v4"; "d" ];
  ]

let tagged_paths ?(default = 2) topo =
  if default < 1 || default > 3 then
    invalid_arg "Paper_net.tagged_paths: default must be 1, 2 or 3";
  let tagged = Mptcp.Path_manager.tag_paths (paths topo) in
  Mptcp.Path_manager.with_default tagged ~default_tag:default

let optimum () =
  let topo = topology () in
  Netgraph.Constraints.optimum topo (paths topo)

let optimal_total_mbps = 90.0

let greedy_total_mbps ~default =
  let topo = topology () in
  let order =
    match default with
    | 1 -> [ 0; 1; 2 ]
    | 2 -> [ 1; 0; 2 ]
    | 3 -> [ 2; 0; 1 ]
    | _ -> invalid_arg "Paper_net.greedy_total_mbps: default must be 1, 2 or 3"
  in
  let x = Netgraph.Constraints.greedy_from topo (paths topo) ~order in
  Array.fold_left ( +. ) 0.0 x /. 1e6
