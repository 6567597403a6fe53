(* Tests for topologies, paths, shortest paths (Dijkstra cross-checked
   against Bellman-Ford on random graphs), Yen's k-shortest paths,
   Bhandari disjoint pairs, Edmonds-Karp max-flow, and the LP constraint
   extraction used for Fig. 1c. *)

open Netgraph

let ms = Engine.Time.ms
let mb = Topology.mbps

(* A small fixture: the paper's network. *)
let paper () =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.paths topo in
  (topo, paths)

(* --- Topology --- *)

let topology_basic () =
  let topo, _ = paper () in
  Alcotest.(check int) "nodes" 6 (Topology.num_nodes topo);
  Alcotest.(check int) "links" 8 (Topology.num_links topo);
  Alcotest.(check string) "name" "v2" (Topology.node_name topo 2);
  Alcotest.(check int) "id round trip" 2 (Topology.node_id topo "v2");
  let s = Topology.node_id topo "s" and v1 = Topology.node_id topo "v1" in
  (match Topology.find_link topo ~u:s ~v:v1 with
  | Some l -> Alcotest.(check int) "s-v1 is 40 Mbps" (mb 40) l.Topology.capacity_bps
  | None -> Alcotest.fail "s-v1 link missing");
  Alcotest.(check int) "degree of s" 2 (List.length (Topology.neighbours topo s))

let topology_validation () =
  let b = Topology.builder () in
  let a = Topology.add_node b "a" in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Topology.add_node: duplicate node \"a\"") (fun () ->
      ignore (Topology.add_node b "a"));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Topology.add_link: self-loop") (fun () ->
      ignore (Topology.add_link b ~u:a ~v:a ~capacity_bps:1 ~delay:0));
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Topology.add_link: capacity must be positive")
    (fun () ->
      let b2 = Topology.builder () in
      let x = Topology.add_node b2 "x" and y = Topology.add_node b2 "y" in
      ignore (Topology.add_link b2 ~u:x ~v:y ~capacity_bps:0 ~delay:0))

let other_end () =
  let topo, _ = paper () in
  let l = Topology.link topo 0 in
  Alcotest.(check int) "forward" l.Topology.v
    (Topology.other_end l l.Topology.u);
  Alcotest.(check int) "backward" l.Topology.u
    (Topology.other_end l l.Topology.v)

(* --- Path --- *)

let path_construction () =
  let topo, paths = paper () in
  match paths with
  | [ p1; p2; p3 ] ->
    Alcotest.(check int) "path1 hops" 4 (Path.hop_count p1);
    Alcotest.(check int) "path2 hops" 3 (Path.hop_count p2);
    Alcotest.(check int) "path3 hops" 4 (Path.hop_count p3);
    Alcotest.(check int) "path1 bottleneck" (mb 40) (Path.bottleneck_bps topo p1);
    Alcotest.(check int) "path3 bottleneck" (mb 60) (Path.bottleneck_bps topo p3);
    (* 1 + 0.5 + 1 ms: the v1-v4 link runs at half delay so Path 2 is
       strictly the shortest route. *)
    Alcotest.(check int) "path2 delay" (Engine.Time.us 2500)
      (Path.one_way_delay topo p2);
    Alcotest.(check int) "p1 n p2" 1 (List.length (Path.shared_links p1 p2));
    Alcotest.(check int) "p1 n p3" 1 (List.length (Path.shared_links p1 p3));
    Alcotest.(check int) "p2 n p3" 1 (List.length (Path.shared_links p2 p3));
    Alcotest.(check bool) "not disjoint" false (Path.disjoint p1 p2)
  | _ -> Alcotest.fail "expected three paths"

let path_validation () =
  let topo, _ = paper () in
  Alcotest.(check bool) "no link between s and d" true
    (try ignore (Path.of_names topo [ "s"; "d" ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "repeated node rejected" true
    (try ignore (Path.of_names topo [ "s"; "v1"; "v2"; "v1" ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "single node rejected" true
    (try ignore (Path.of_names topo [ "s" ]); false
     with Invalid_argument _ -> true)

let path_of_links_roundtrip () =
  let topo, paths = paper () in
  List.iter
    (fun p ->
      let q = Path.of_links topo ~src:(Path.src p) (Array.to_list p.Path.links) in
      Alcotest.(check bool) "round trip" true (Path.equal p q))
    paths

(* --- Shortest paths --- *)

let dijkstra_paper () =
  let topo, _ = paper () in
  let s = Topology.node_id topo "s" and d = Topology.node_id topo "d" in
  match Shortest.shortest_path topo ~src:s ~dst:d ~weight:Shortest.hops with
  | Some p -> Alcotest.(check int) "shortest s-d is 3 hops" 3 (Path.hop_count p)
  | None -> Alcotest.fail "no path found"

let dijkstra_unreachable () =
  let b = Topology.builder () in
  let a = Topology.add_node b "a" in
  let _b = Topology.add_node b "b" in
  let topo = Topology.build b in
  let dist, _ = Shortest.dijkstra topo ~src:a ~weight:Shortest.hops in
  Alcotest.(check int) "unreachable is max_int" max_int dist.(1)

(* Random graphs (spanning chain + extra edges) for oracle tests. *)
let gen_graph =
  QCheck.Gen.(
    2 -- 8 >>= fun n ->
    pair (return n)
      (list_size (0 -- 12) (pair (int_bound (n - 1)) (int_bound (n - 1)))))

let build_graph (n, extra) =
  let b = Topology.builder () in
  let ids = Array.init n (fun i -> Topology.add_node b (string_of_int i)) in
  for i = 0 to n - 2 do
    ignore
      (Topology.add_link b ~u:ids.(i) ~v:ids.(i + 1) ~capacity_bps:(mb 10)
         ~delay:(ms ((i mod 5) + 1)))
  done;
  List.iteri
    (fun k (u, v) ->
      if u <> v then
        ignore
          (Topology.add_link b ~u:ids.(u) ~v:ids.(v) ~capacity_bps:(mb 10)
             ~delay:(ms ((k mod 7) + 1))))
    extra;
  Topology.build b

let qcheck_dijkstra_vs_bf =
  QCheck.Test.make ~name:"dijkstra distances = bellman-ford" ~count:200
    (QCheck.make gen_graph) (fun g ->
      let topo = build_graph g in
      let dist, _ = Shortest.dijkstra topo ~src:0 ~weight:Shortest.delay_ns in
      let bf = Shortest.bellman_ford topo ~src:0 ~weight:Shortest.delay_ns in
      dist = bf)

let qcheck_dijkstra_path_consistent =
  QCheck.Test.make ~name:"reconstructed path weight matches the distance"
    ~count:200 (QCheck.make gen_graph) (fun g ->
      let topo = build_graph g in
      let n = Topology.num_nodes topo in
      let dist, _ = Shortest.dijkstra topo ~src:0 ~weight:Shortest.delay_ns in
      let ok = ref true in
      for dst = 1 to n - 1 do
        match
          Shortest.shortest_path topo ~src:0 ~dst ~weight:Shortest.delay_ns
        with
        | None -> if dist.(dst) <> max_int then ok := false
        | Some p ->
          if Kshortest.path_weight topo Shortest.delay_ns p <> dist.(dst) then
            ok := false
      done;
      !ok)

(* --- Yen --- *)

let yen_paper () =
  let topo, _ = paper () in
  let s = Topology.node_id topo "s" and d = Topology.node_id topo "d" in
  let ps = Kshortest.yen topo ~src:s ~dst:d ~k:3 ~weight:Shortest.hops in
  Alcotest.(check int) "three paths exist" 3 (List.length ps);
  let ws = List.map (Kshortest.path_weight topo Shortest.hops) ps in
  Alcotest.(check bool) "sorted" true (List.sort compare ws = ws);
  let distinct = List.sort_uniq Path.compare ps in
  Alcotest.(check int) "distinct" 3 (List.length distinct)

let yen_exhaustive () =
  let topo, _ = paper () in
  let s = Topology.node_id topo "s" and d = Topology.node_id topo "d" in
  let ps = Kshortest.yen topo ~src:s ~dst:d ~k:100 ~weight:Shortest.hops in
  Alcotest.(check bool) "at least 3" true (List.length ps >= 3);
  let distinct = List.sort_uniq Path.compare ps in
  Alcotest.(check int) "all distinct" (List.length ps) (List.length distinct);
  List.iter
    (fun p ->
      Alcotest.(check int) "ends at d" d (Path.dst p);
      Alcotest.(check int) "starts at s" s (Path.src p))
    ps

let qcheck_yen_sorted =
  QCheck.Test.make ~name:"yen yields sorted, distinct simple paths" ~count:100
    (QCheck.make gen_graph) (fun g ->
      let topo = build_graph g in
      let n = Topology.num_nodes topo in
      let dst = n - 1 in
      if dst = 0 then true
      else begin
        let ps = Kshortest.yen topo ~src:0 ~dst ~k:5 ~weight:Shortest.delay_ns in
        let ws = List.map (Kshortest.path_weight topo Shortest.delay_ns) ps in
        List.sort compare ws = ws
        && List.length (List.sort_uniq Path.compare ps) = List.length ps
      end)

let qcheck_yen_agrees_with_shortest =
  (* Every Yen path is simple (no repeated node), and the first one —
     when any exists — has exactly Dijkstra's distance. *)
  QCheck.Test.make ~name:"yen: simple paths, first agrees with dijkstra"
    ~count:100 (QCheck.make gen_graph) (fun g ->
      let topo = build_graph g in
      let n = Topology.num_nodes topo in
      let dst = n - 1 in
      if dst = 0 then true
      else begin
        let ps =
          Kshortest.yen topo ~src:0 ~dst ~k:4 ~weight:Shortest.delay_ns
        in
        let simple p =
          let nodes = Array.to_list p.Path.nodes in
          List.length (List.sort_uniq compare nodes) = List.length nodes
        in
        let dist, _ = Shortest.dijkstra topo ~src:0 ~weight:Shortest.delay_ns in
        List.for_all simple ps
        &&
        match ps with
        | [] -> dist.(dst) = max_int
        | first :: _ ->
          Kshortest.path_weight topo Shortest.delay_ns first = dist.(dst)
      end)

(* --- Disjoint pairs --- *)

let disjoint_paper () =
  let topo, _ = paper () in
  let s = Topology.node_id topo "s" and d = Topology.node_id topo "d" in
  match Disjoint.link_disjoint_pair topo ~src:s ~dst:d ~weight:Shortest.hops with
  | Some (p, q) ->
    Alcotest.(check bool) "link disjoint" true (Path.disjoint p q);
    Alcotest.(check bool) "ordered by weight" true
      (Path.hop_count p <= Path.hop_count q)
  | None -> Alcotest.fail "the paper network has a disjoint pair"

let disjoint_none_on_chain () =
  let b = Topology.builder () in
  let a = Topology.add_node b "a" in
  let c = Topology.add_node b "c" in
  ignore (Topology.add_link b ~u:a ~v:c ~capacity_bps:(mb 1) ~delay:(ms 1));
  let topo = Topology.build b in
  Alcotest.(check bool) "single link has no disjoint pair" true
    (Disjoint.link_disjoint_pair topo ~src:a ~dst:c ~weight:Shortest.hops
     = None)

let disjoint_trap_topology () =
  (* The classic "trap": the shortest path s-a-b-d uses links that both
     members of the optimal disjoint pair need to avoid; a naive
     remove-shortest-and-retry fails here, Bhandari does not. *)
  let b = Topology.builder () in
  let s = Topology.add_node b "s" in
  let a = Topology.add_node b "a" in
  let bb = Topology.add_node b "b" in
  let d = Topology.add_node b "d" in
  let link u v w =
    ignore (Topology.add_link b ~u ~v ~capacity_bps:(mb 1) ~delay:(ms w))
  in
  link s a 1;
  link a bb 1;
  link bb d 1;
  link s bb 10;
  link a d 10;
  let topo = Topology.build b in
  match
    Disjoint.link_disjoint_pair topo ~src:s ~dst:d ~weight:Shortest.delay_ns
  with
  | Some (p, q) ->
    Alcotest.(check bool) "disjoint" true (Path.disjoint p q);
    let total =
      Kshortest.path_weight topo Shortest.delay_ns p
      + Kshortest.path_weight topo Shortest.delay_ns q
    in
    Alcotest.(check int) "optimal total: s-a-d + s-b-d" (ms 22) total
  | None -> Alcotest.fail "trap topology has a disjoint pair"

let bridges_detection () =
  (* Chain a-b-c: both links are bridges.  Add a parallel a-b link: only
     b-c remains one.  The paper network has no bridges at all. *)
  let b = Topology.builder () in
  let a = Topology.add_node b "a" in
  let bb = Topology.add_node b "b" in
  let c = Topology.add_node b "c" in
  let l1 = Topology.add_link b ~u:a ~v:bb ~capacity_bps:(mb 1) ~delay:0 in
  let l2 = Topology.add_link b ~u:bb ~v:c ~capacity_bps:(mb 1) ~delay:0 in
  let topo = Topology.build b in
  Alcotest.(check (list int)) "chain: both links" [ l1; l2 ]
    (Disjoint.bridges topo);
  let b = Topology.builder () in
  let a = Topology.add_node b "a" in
  let bb = Topology.add_node b "b" in
  let c = Topology.add_node b "c" in
  let _ = Topology.add_link b ~u:a ~v:bb ~capacity_bps:(mb 1) ~delay:0 in
  let _ = Topology.add_link b ~u:a ~v:bb ~capacity_bps:(mb 1) ~delay:0 in
  let l2 = Topology.add_link b ~u:bb ~v:c ~capacity_bps:(mb 1) ~delay:0 in
  let topo = Topology.build b in
  Alcotest.(check (list int)) "parallel pair is no bridge" [ l2 ]
    (Disjoint.bridges topo);
  let paper_topo, _ = paper () in
  Alcotest.(check (list int)) "the paper network is 2-edge-connected" []
    (Disjoint.bridges paper_topo)

let qcheck_bridges_vs_removal =
  (* Oracle: a link is a bridge iff removing it disconnects its
     endpoints (checked with a filtered Dijkstra). *)
  QCheck.Test.make ~name:"bridges = links whose removal disconnects"
    ~count:100 (QCheck.make gen_graph) (fun g ->
      let topo = build_graph g in
      let br = Disjoint.bridges topo in
      Array.for_all
        (fun (l : Topology.link) ->
          let dist, _ =
            Shortest.dijkstra topo ~src:l.Topology.u ~weight:Shortest.hops
              ~avoid_links:(fun lid -> lid = l.Topology.id)
          in
          let disconnects = dist.(l.Topology.v) = max_int in
          disconnects = List.mem l.Topology.id br)
        (Topology.links topo))

let qcheck_disjoint_really_disjoint =
  QCheck.Test.make ~name:"bhandari pairs are link-disjoint" ~count:100
    (QCheck.make gen_graph) (fun g ->
      let topo = build_graph g in
      let n = Topology.num_nodes topo in
      if n < 2 then true
      else
        match
          Disjoint.link_disjoint_pair topo ~src:0 ~dst:(n - 1)
            ~weight:Shortest.delay_ns
        with
        | None -> true
        | Some (p, q) ->
          Path.disjoint p q
          && Path.src p = 0 && Path.dst p = n - 1
          && Path.src q = 0 && Path.dst q = n - 1)

(* --- Max flow --- *)

let maxflow_paper () =
  let topo, _ = paper () in
  let s = Topology.node_id topo "s" and d = Topology.node_id topo "d" in
  let flow = Maxflow.max_flow topo ~src:s ~dst:d in
  Alcotest.(check int) "max flow 140 Mbps (s's outgoing cut)" (mb 140) flow;
  let cut = Maxflow.min_cut topo ~src:s ~dst:d in
  let cut_cap =
    List.fold_left
      (fun acc lid -> acc + (Topology.link topo lid).Topology.capacity_bps)
      0 cut
  in
  Alcotest.(check int) "min cut capacity = max flow" flow cut_cap

let maxflow_series () =
  let b = Topology.builder () in
  let a = Topology.add_node b "a" in
  let m = Topology.add_node b "m" in
  let z = Topology.add_node b "z" in
  ignore (Topology.add_link b ~u:a ~v:m ~capacity_bps:(mb 30) ~delay:0);
  ignore (Topology.add_link b ~u:m ~v:z ~capacity_bps:(mb 10) ~delay:0);
  let topo = Topology.build b in
  Alcotest.(check int) "series takes the min" (mb 10)
    (Maxflow.max_flow topo ~src:a ~dst:z)

let maxflow_parallel () =
  let b = Topology.builder () in
  let a = Topology.add_node b "a" in
  let z = Topology.add_node b "z" in
  ignore (Topology.add_link b ~u:a ~v:z ~capacity_bps:(mb 30) ~delay:0);
  ignore (Topology.add_link b ~u:a ~v:z ~capacity_bps:(mb 12) ~delay:0);
  let topo = Topology.build b in
  Alcotest.(check int) "parallel links add" (mb 42)
    (Maxflow.max_flow topo ~src:a ~dst:z)

let maxflow_bounds_lp () =
  (* The chain of bounds behind the audit's lp.maxflow-bound invariant:
     audited goodput <= LP optimum (90 Mbps) <= max flow (140 Mbps). *)
  let topo, paths = paper () in
  let s = Topology.node_id topo "s" and d = Topology.node_id topo "d" in
  let flow = Maxflow.max_flow topo ~src:s ~dst:d in
  Alcotest.(check int) "paper max flow" (mb 140) flow;
  let opt = Constraints.optimum topo paths in
  Alcotest.(check bool) "LP optimum within max flow" true
    (opt.Constraints.total_bps <= float_of_int flow +. 1e-6)

let qcheck_maxflow_bounds_lp =
  QCheck.Test.make ~name:"LP optimum <= max flow on generated overlap nets"
    ~count:50
    QCheck.(triple (int_range 2 5) (int_range 5 30) (int_range 1 8))
    (fun (n, base_mbps, step_mbps) ->
      let topo, paths =
        Generate.pairwise_overlap ~n
          ~cap_bps:(Generate.spread_caps ~base_mbps ~step_mbps)
      in
      let opt = Constraints.optimum topo paths in
      let p0 = List.hd paths in
      let flow =
        Maxflow.max_flow topo ~src:(Path.src p0) ~dst:(Path.dst p0)
      in
      opt.Constraints.total_bps <= float_of_int flow +. 1e-6)

let qcheck_flow_bounded =
  QCheck.Test.make ~name:"max flow bounded by the source's capacity"
    ~count:100 (QCheck.make gen_graph) (fun g ->
      let topo = build_graph g in
      let n = Topology.num_nodes topo in
      if n < 2 then true
      else begin
        let flow = Maxflow.max_flow topo ~src:0 ~dst:(n - 1) in
        let out_cap =
          List.fold_left
            (fun acc (lid, _) ->
              acc + (Topology.link topo lid).Topology.capacity_bps)
            0 (Topology.neighbours topo 0)
        in
        flow <= out_cap && flow >= 0
      end)

(* --- Generators --- *)

let generate_paper_equivalent () =
  let topo, paths =
    Generate.pairwise_overlap ~n:3 ~cap_bps:Generate.paper_caps
  in
  let opt = Constraints.optimum topo paths in
  Alcotest.(check (float 1e-3)) "same optimum as Fig. 1c" 90e6
    opt.Constraints.total_bps;
  let x = opt.Constraints.per_path_bps in
  Alcotest.(check (float 1e-3)) "x1" 10e6 x.(0);
  Alcotest.(check (float 1e-3)) "x2" 30e6 x.(1);
  Alcotest.(check (float 1e-3)) "x3" 50e6 x.(2)

let qcheck_generate_pairwise =
  QCheck.Test.make ~name:"pairwise_overlap: every pair shares exactly 1 link"
    ~count:20
    QCheck.(2 -- 5)
    (fun n ->
      let topo, paths =
        Generate.pairwise_overlap ~n
          ~cap_bps:(Generate.spread_caps ~base_mbps:20 ~step_mbps:7)
      in
      ignore topo;
      let arr = Array.of_list paths in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if List.length (Path.shared_links arr.(i) arr.(j)) <> 1 then
            ok := false
        done
      done;
      !ok)

let qcheck_generate_lp_structure =
  QCheck.Test.make
    ~name:"pairwise_overlap: LP optimum below every pair constraint"
    ~count:20
    QCheck.(2 -- 5)
    (fun n ->
      let topo, paths =
        Generate.pairwise_overlap ~n
          ~cap_bps:(Generate.spread_caps ~base_mbps:20 ~step_mbps:7)
      in
      let opt = Constraints.optimum topo paths in
      let x = opt.Constraints.per_path_bps in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let cap = float_of_int (Generate.spread_caps ~base_mbps:20 ~step_mbps:7 i j) in
          if x.(i) +. x.(j) > cap +. 1.0 then ok := false
        done
      done;
      !ok)

let generate_dumbbell () =
  let topo, paths = Generate.dumbbell ~flows:3 ~bottleneck_bps:(mb 10) in
  Alcotest.(check int) "three paths" 3 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check int) "3 hops" 3 (Path.hop_count p);
      Alcotest.(check int) "bottlenecked" (mb 10) (Path.bottleneck_bps topo p))
    paths;
  (* All pairs share exactly the bottleneck link. *)
  match paths with
  | [ p1; p2; _ ] ->
    Alcotest.(check int) "share the middle" 1
      (List.length (Path.shared_links p1 p2))
  | _ -> Alcotest.fail "expected three paths"

let generate_parking_lot () =
  let topo, e2e, crosses = Generate.parking_lot ~hops:4 ~cap_bps:(mb 10) in
  Alcotest.(check int) "end-to-end spans the chain" 4 (Path.hop_count e2e);
  Alcotest.(check int) "one cross per hop" 4 (List.length crosses);
  List.iter
    (fun c ->
      Alcotest.(check int) "cross shares exactly one backbone link" 1
        (List.length (Path.shared_links e2e c)))
    crosses;
  (* LP: e2e flow x0 and each cross x_i satisfy x0 + x_i <= 10 on every
     hop; optimum is x0 = 0, crosses = 10 -> total 40 + 0. *)
  let opt = Constraints.optimum topo (e2e :: crosses) in
  Alcotest.(check (float 1e-3)) "parking lot optimum starves e2e" 40e6
    opt.Constraints.total_bps

let generate_validation () =
  Alcotest.(check bool) "n < 2 rejected" true
    (try ignore (Generate.pairwise_overlap ~n:1 ~cap_bps:Generate.paper_caps); false
     with Invalid_argument _ -> true)

(* --- Constraints (Fig. 1c) --- *)

let constraints_paper () =
  let topo, paths = paper () in
  let sys = Constraints.extract topo paths in
  Alcotest.(check int) "one row per used link" 8
    (Array.length sys.Constraints.link_rows);
  let opt = Constraints.optimum topo paths in
  Alcotest.(check (float 1e-3)) "total 90 Mbps" 90e6 opt.Constraints.total_bps;
  let x = opt.Constraints.per_path_bps in
  Alcotest.(check (float 1e-3)) "x1 = 10" 10e6 x.(0);
  Alcotest.(check (float 1e-3)) "x2 = 30" 30e6 x.(1);
  Alcotest.(check (float 1e-3)) "x3 = 50" 50e6 x.(2);
  Alcotest.(check int) "three binding bottlenecks" 3
    (List.length opt.Constraints.bottlenecks)

let greedy_pareto () =
  let topo, paths = paper () in
  (* Fill Path 2 first (the paper's narrative): (0, 40, 40) = 80 Mbps. *)
  let x = Constraints.greedy_from topo paths ~order:[ 1; 0; 2 ] in
  Alcotest.(check (float 1e-3)) "x1" 0.0 x.(0);
  Alcotest.(check (float 1e-3)) "x2" 40e6 x.(1);
  Alcotest.(check (float 1e-3)) "x3" 40e6 x.(2);
  (* Fill Path 1 first: 40 + 0 + 20 = 60 Mbps — even worse. *)
  let y = Constraints.greedy_from topo paths ~order:[ 0; 1; 2 ] in
  Alcotest.(check (float 1e-3)) "greedy from path 1" 60e6
    (y.(0) +. y.(1) +. y.(2))

let greedy_validation () =
  let topo, paths = paper () in
  Alcotest.(check bool) "bad permutation rejected" true
    (try
       ignore (Constraints.greedy_from topo paths ~order:[ 0; 0; 2 ]);
       false
     with Invalid_argument _ -> true)

let qcheck_greedy_feasible =
  QCheck.Test.make
    ~name:"greedy allocations are feasible and never beat the LP" ~count:50
    QCheck.(triple (0 -- 2) (0 -- 2) (0 -- 2))
    (fun (a, b, c) ->
      if List.sort compare [ a; b; c ] <> [ 0; 1; 2 ] then true
      else begin
        let topo, paths = paper () in
        let x = Constraints.greedy_from topo paths ~order:[ a; b; c ] in
        let sys = Constraints.extract topo paths in
        let total = Array.fold_left ( +. ) 0.0 x in
        Lp.Simplex.feasible ~a:sys.Constraints.a ~b:sys.Constraints.b ~x
          ~eps:1.0
        && total <= 90e6 +. 1.0
      end)

let () =
  Alcotest.run "netgraph"
    [
      ( "topology",
        [
          Alcotest.test_case "paper network shape" `Quick topology_basic;
          Alcotest.test_case "builder validation" `Quick topology_validation;
          Alcotest.test_case "other_end" `Quick other_end;
        ] );
      ( "path",
        [
          Alcotest.test_case "paper paths and overlaps" `Quick
            path_construction;
          Alcotest.test_case "invalid paths rejected" `Quick path_validation;
          Alcotest.test_case "of_links round trip" `Quick
            path_of_links_roundtrip;
        ] );
      ( "shortest",
        [
          Alcotest.test_case "paper shortest path" `Quick dijkstra_paper;
          Alcotest.test_case "unreachable nodes" `Quick dijkstra_unreachable;
          QCheck_alcotest.to_alcotest qcheck_dijkstra_vs_bf;
          QCheck_alcotest.to_alcotest qcheck_dijkstra_path_consistent;
        ] );
      ( "kshortest",
        [
          Alcotest.test_case "paper three paths" `Quick yen_paper;
          Alcotest.test_case "exhaustive enumeration" `Quick yen_exhaustive;
          QCheck_alcotest.to_alcotest qcheck_yen_sorted;
          QCheck_alcotest.to_alcotest qcheck_yen_agrees_with_shortest;
        ] );
      ( "disjoint",
        [
          Alcotest.test_case "paper disjoint pair" `Quick disjoint_paper;
          Alcotest.test_case "chain has none" `Quick disjoint_none_on_chain;
          Alcotest.test_case "trap topology solved optimally" `Quick
            disjoint_trap_topology;
          Alcotest.test_case "bridge detection" `Quick bridges_detection;
          QCheck_alcotest.to_alcotest qcheck_bridges_vs_removal;
          QCheck_alcotest.to_alcotest qcheck_disjoint_really_disjoint;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "paper value and min cut" `Quick maxflow_paper;
          Alcotest.test_case "series" `Quick maxflow_series;
          Alcotest.test_case "parallel" `Quick maxflow_parallel;
          Alcotest.test_case "bounds the LP optimum" `Quick maxflow_bounds_lp;
          QCheck_alcotest.to_alcotest qcheck_maxflow_bounds_lp;
          QCheck_alcotest.to_alcotest qcheck_flow_bounded;
        ] );
      ( "generate",
        [
          Alcotest.test_case "paper instance via the generator" `Quick
            generate_paper_equivalent;
          Alcotest.test_case "dumbbell" `Quick generate_dumbbell;
          Alcotest.test_case "parking lot" `Quick generate_parking_lot;
          Alcotest.test_case "validation" `Quick generate_validation;
          QCheck_alcotest.to_alcotest qcheck_generate_pairwise;
          QCheck_alcotest.to_alcotest qcheck_generate_lp_structure;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "Fig. 1c optimum" `Quick constraints_paper;
          Alcotest.test_case "greedy Pareto points" `Quick greedy_pareto;
          Alcotest.test_case "greedy validation" `Quick greedy_validation;
          QCheck_alcotest.to_alcotest qcheck_greedy_feasible;
        ] );
    ]
