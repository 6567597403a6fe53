let pairwise_overlap ~n ~cap_bps =
  let link_delay = Engine.Time.ms 1 in
  if n < 2 then invalid_arg "Generate.pairwise_overlap: n must be >= 2";
  let b = Topology.builder () in
  let s = Topology.add_node b "s" in
  let d = Topology.add_node b "d" in
  (* One bottleneck link per unordered pair, entered at a_(i,j) and left
     at z_(i,j). *)
  let pair_nodes = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = Topology.add_node b (Printf.sprintf "a%d_%d" i j) in
      let z = Topology.add_node b (Printf.sprintf "z%d_%d" i j) in
      ignore
        (Topology.add_link b ~u:a ~v:z ~capacity_bps:(cap_bps i j)
           ~delay:link_delay);
      Hashtbl.replace pair_nodes (i, j) (a, z)
    done
  done;
  (* Path i traverses its pairs in increasing partner order, hopping
     through private relay nodes so connectors are never shared. *)
  let connector u v =
    ignore
      (Topology.add_link b ~u ~v ~capacity_bps:1_000_000_000 ~delay:link_delay)
  in
  let paths_nodes =
    List.init n (fun i ->
        let pairs =
          List.filter_map
            (fun j ->
              if j = i then None
              else Some (if i < j then (i, j) else (j, i)))
            (List.init n (fun j -> j))
        in
        let rec thread at acc k = function
          | [] ->
            let relay = Topology.add_node b (Printf.sprintf "r%d_%d" i k) in
            connector at relay;
            connector relay d;
            List.rev (d :: relay :: acc)
          | pair :: rest ->
            let a, z = Hashtbl.find pair_nodes pair in
            let relay = Topology.add_node b (Printf.sprintf "r%d_%d" i k) in
            connector at relay;
            connector relay a;
            thread z (z :: a :: relay :: acc) (k + 1) rest
        in
        thread s [ s ] 0 pairs)
  in
  let topo = Topology.build b in
  (topo, List.map (Path.of_nodes topo) paths_nodes)

let paper_caps i j =
  match (i, j) with
  | 0, 1 -> Topology.mbps 40
  | 0, 2 -> Topology.mbps 60
  | 1, 2 -> Topology.mbps 80
  | _ -> invalid_arg "Generate.paper_caps: defined for pairs of 0..2"

let spread_caps ~base_mbps ~step_mbps i j =
  Topology.mbps (base_mbps + (step_mbps * (i + j)))

let dumbbell ~flows ~bottleneck_bps =
  let access_bps = 1_000_000_000 and delay = Engine.Time.ms 2 in
  if flows < 1 then invalid_arg "Generate.dumbbell: flows must be >= 1";
  let b = Topology.builder () in
  let l = Topology.add_node b "l" in
  let r = Topology.add_node b "r" in
  ignore (Topology.add_link b ~u:l ~v:r ~capacity_bps:bottleneck_bps ~delay);
  let ends =
    List.init flows (fun i ->
        let a = Topology.add_node b (Printf.sprintf "a%d" i) in
        let z = Topology.add_node b (Printf.sprintf "z%d" i) in
        ignore (Topology.add_link b ~u:a ~v:l ~capacity_bps:access_bps ~delay);
        ignore (Topology.add_link b ~u:r ~v:z ~capacity_bps:access_bps ~delay);
        (a, z))
  in
  let topo = Topology.build b in
  let paths =
    List.map (fun (a, z) -> Path.of_nodes topo [ a; l; r; z ]) ends
  in
  (topo, paths)

let parking_lot ~hops ~cap_bps =
  let delay = Engine.Time.ms 2 in
  if hops < 1 then invalid_arg "Generate.parking_lot: hops must be >= 1";
  let b = Topology.builder () in
  let backbone =
    Array.init (hops + 1) (fun i -> Topology.add_node b (Printf.sprintf "n%d" i))
  in
  for i = 0 to hops - 1 do
    ignore
      (Topology.add_link b ~u:backbone.(i) ~v:backbone.(i + 1)
         ~capacity_bps:cap_bps ~delay)
  done;
  let cross_ends =
    List.init hops (fun i ->
        let src = Topology.add_node b (Printf.sprintf "c%d_in" i) in
        let dst = Topology.add_node b (Printf.sprintf "c%d_out" i) in
        ignore
          (Topology.add_link b ~u:src ~v:backbone.(i)
             ~capacity_bps:(10 * cap_bps) ~delay);
        ignore
          (Topology.add_link b ~u:backbone.(i + 1) ~v:dst
             ~capacity_bps:(10 * cap_bps) ~delay);
        (src, dst, i))
  in
  let topo = Topology.build b in
  let e2e =
    Path.of_nodes topo (Array.to_list backbone)
  in
  let crosses =
    List.map
      (fun (src, dst, i) ->
        Path.of_nodes topo [ src; backbone.(i); backbone.(i + 1); dst ])
      cross_ends
  in
  (topo, e2e, crosses)
