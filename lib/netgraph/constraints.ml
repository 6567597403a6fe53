type system = {
  paths : Path.t array;
  link_rows : int array;
  a : float array array;
  b : float array;
}

let extract topo path_list =
  if path_list = [] then invalid_arg "Constraints.extract: no paths";
  let paths = Array.of_list path_list in
  let n = Array.length paths in
  let used = Hashtbl.create 16 in
  Array.iter
    (fun p -> Array.iter (fun lid -> Hashtbl.replace used lid ()) p.Path.links)
    paths;
  let link_rows =
    Hashtbl.fold (fun lid () acc -> lid :: acc) used []
    |> List.sort Int.compare |> Array.of_list
  in
  let a =
    Array.map
      (fun lid ->
        Array.init n (fun j -> if Path.mem_link paths.(j) lid then 1.0 else 0.0))
      link_rows
  in
  let b =
    Array.map
      (fun lid -> float_of_int (Topology.link topo lid).Topology.capacity_bps)
      link_rows
  in
  { paths; link_rows; a; b }

type violation = { row : int; link_id : int; load_bps : float; cap_bps : float }

let violations ?(slack_frac = 0.0) ?(slack_abs = 0.0) sys ~x =
  let n = Array.length sys.paths in
  if Array.length x <> n then
    invalid_arg "Constraints.violations: rate vector has the wrong length";
  let out = ref [] in
  for i = Array.length sys.link_rows - 1 downto 0 do
    let load = ref 0.0 in
    for j = 0 to n - 1 do load := !load +. (sys.a.(i).(j) *. x.(j)) done;
    let allowance = Float.max (sys.b.(i) *. slack_frac) slack_abs in
    if !load > sys.b.(i) +. allowance then
      out :=
        { row = i;
          link_id = sys.link_rows.(i);
          load_bps = !load;
          cap_bps = sys.b.(i) }
        :: !out
  done;
  !out

let feasible ?slack_frac sys ~x = violations ?slack_frac sys ~x = []

type optimum = {
  total_bps : float;
  per_path_bps : float array;
  bottlenecks : (int * float) list;
}

let optimum topo path_list =
  let sys = extract topo path_list in
  let n = Array.length sys.paths in
  let c = Array.make n 1.0 in
  match Lp.Simplex.solve ~c ~a:sys.a ~b:sys.b with
  | Lp.Simplex.Unbounded | Lp.Simplex.Infeasible ->
    (* Impossible: 0 is feasible and capacities bound the region. *)
    assert false
  | Lp.Simplex.Optimal { objective; x; dual } ->
    let bottlenecks = ref [] in
    Array.iteri
      (fun i y ->
        if y > 1e-12 then bottlenecks := (sys.link_rows.(i), y) :: !bottlenecks)
      dual;
    { total_bps = objective;
      per_path_bps = x;
      bottlenecks = List.rev !bottlenecks }

let greedy_from topo path_list ~order =
  let sys = extract topo path_list in
  let n = Array.length sys.paths in
  if List.sort Int.compare order <> List.init n (fun i -> i) then
    invalid_arg "Constraints.greedy_from: order must be a permutation";
  let residual = Hashtbl.create 16 in
  Array.iteri
    (fun i lid -> Hashtbl.replace residual lid sys.b.(i))
    sys.link_rows;
  let x = Array.make n 0.0 in
  List.iter
    (fun j ->
      let p = sys.paths.(j) in
      let room =
        Array.fold_left
          (fun acc lid -> Float.min acc (Hashtbl.find residual lid))
          infinity p.Path.links
      in
      x.(j) <- room;
      Array.iter
        (fun lid ->
          Hashtbl.replace residual lid (Hashtbl.find residual lid -. room))
        p.Path.links)
    order;
  x

let pp_system topo fmt sys =
  let n = Array.length sys.paths in
  Format.fprintf fmt "@[<v>maximize  %s@,subject to"
    (String.concat " + " (List.init n (fun j -> Printf.sprintf "x%d" (j + 1))));
  Array.iteri
    (fun i row ->
      let terms = ref [] in
      Array.iteri
        (fun j v -> if v > 0.0 then terms := Printf.sprintf "x%d" (j + 1) :: !terms)
        row;
      let l = Topology.link topo sys.link_rows.(i) in
      Format.fprintf fmt "@,  %s <= %.6g Mbps   (link %s--%s)"
        (String.concat " + " (List.rev !terms))
        (sys.b.(i) /. 1e6)
        (Topology.node_name topo l.Topology.u)
        (Topology.node_name topo l.Topology.v))
    sys.a;
  Format.fprintf fmt "@]"
