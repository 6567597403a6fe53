type t = (Packet.tag * Netgraph.Path.t) list

let tag_paths paths = List.mapi (fun i p -> (1 + i, p)) paths

let ndiffports topo ~src ~dst ~subflows ?(weight = Netgraph.Shortest.delay_ns)
    () =
  if subflows < 1 then invalid_arg "Path_manager.ndiffports: subflows < 1";
  let paths = Netgraph.Kshortest.yen topo ~src ~dst ~k:subflows ~weight in
  tag_paths paths

let fullmesh topo ~src ~dst =
  let weight = Netgraph.Shortest.delay_ns in
  if src = dst then invalid_arg "Path_manager.fullmesh: src = dst";
  let src_links = List.map fst (Netgraph.Topology.neighbours topo src) in
  let dst_links = List.map fst (Netgraph.Topology.neighbours topo dst) in
  let paths =
    List.concat_map
      (fun ls ->
        List.filter_map
          (fun ld ->
            (* Force the exit and entry interfaces by banning the other
               access links of each host. *)
            let banned lid =
              (List.mem lid src_links && lid <> ls)
              || (List.mem lid dst_links && lid <> ld)
            in
            Netgraph.Shortest.shortest_path topo ~src ~dst ~weight
              ~avoid_links:banned)
          dst_links)
      src_links
  in
  let deduped =
    List.fold_left
      (fun acc p ->
        if List.exists (Netgraph.Path.equal p) acc then acc else p :: acc)
      [] paths
    |> List.rev
  in
  let sorted =
    List.sort
      (fun p q ->
        compare
          (Netgraph.Kshortest.path_weight topo weight p)
          (Netgraph.Kshortest.path_weight topo weight q))
      deduped
  in
  tag_paths sorted

let with_default t ~default_tag =
  let chosen = List.assoc default_tag t in
  (default_tag, chosen)
  :: List.filter (fun (tag, _) -> tag <> default_tag) t

let install net t =
  List.iter (fun (tag, path) -> Netsim.Net.install_path net ~tag path) t

(* --- liveness overlay --- *)

module Liveness = struct
  type nonrec pm = t

  type t = {
    tags : Packet.tag array;
    active : bool array;
    mutable churn : int;
    mutable on_change : (tag:Packet.tag -> active:bool -> unit) option;
  }

  let create (pm : pm) =
    {
      tags = Array.of_list (List.map fst pm);
      active = Array.make (List.length pm) true;
      churn = 0;
      on_change = None;
    }

  let index t tag =
    let n = Array.length t.tags in
    let rec go i =
      if i >= n then invalid_arg "Path_manager.Liveness: unknown tag"
      else if t.tags.(i) = tag then i
      else go (i + 1)
    in
    go 0

  let is_active t ~tag = t.active.(index t tag)

  let active_count t =
    Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.active

  let set t ~tag v =
    let i = index t tag in
    if t.active.(i) = v then false
    else begin
      t.active.(i) <- v;
      t.churn <- t.churn + 1;
      (match t.on_change with
      | None -> ()
      | Some f -> f ~tag ~active:v);
      true
    end

  let deactivate t ~tag = set t ~tag false
  let reactivate t ~tag = set t ~tag true
  let churn t = t.churn
  let set_on_change t f = t.on_change <- f
end
