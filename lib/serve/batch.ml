open Events.Sexp

type entry = { label : string; spec : Core.Scenario.spec }

(* Value readers for the fields below. *)
let cc_of s =
  let name = atom_exn s in
  match Mptcp.Algorithm.of_string name with
  | Some cc -> cc
  | None -> fail "batch: unknown congestion control %s" name

let scheduler_of s =
  let name = atom_exn s in
  match Mptcp.Scheduler.policy_of_string name with
  | Some p -> p
  | None -> fail "batch: unknown scheduler %s" name

let duration_of s = Events.Parse.time_of_s (float_exn s)

let sampling_of s = Events.Parse.time_of_s (float_exn s /. 1e3)

(* One paper-network cell; shared by preset and grid.  A field the form
   leaves out ([None]) takes {!Core.Scenario.make}'s default. *)
let paper_cell ?label ~duration ~sampling ~scheduler ~total_bytes ~cc ~default
    ~seed () =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default topo in
  let spec =
    Core.Scenario.make ~topo ~paths ~cc ?scheduler ?duration ?sampling ~seed
      ?total_bytes ()
  in
  let label =
    match label with
    | Some l -> l
    | None ->
      Printf.sprintf "paper-%s-d%d-s%d" (Mptcp.Algorithm.name cc) default seed
  in
  { label; spec }

let preset fields =
  let cc =
    Option.value ~default:Mptcp.Algorithm.Cubic (scalar_opt "cc" cc_of fields)
  in
  let default = Option.value ~default:2 (scalar_opt "default" int_exn fields) in
  let seed = Option.value ~default:1 (scalar_opt "seed" int_exn fields) in
  [ paper_cell
      ?label:(scalar_opt "label" atom_exn fields)
      ~duration:(scalar_opt "duration-s" duration_of fields)
      ~sampling:(scalar_opt "sampling-ms" sampling_of fields)
      ~scheduler:(scalar_opt "scheduler" scheduler_of fields)
      ~total_bytes:
        (scalar_opt "total-mb" (fun s -> int_of_float (float_exn s *. 1e6)) fields)
      ~cc ~default ~seed () ]

let grid fields =
  let ccs =
    Option.value
      ~default:[ Mptcp.Algorithm.Cubic; Mptcp.Algorithm.Lia;
                 Mptcp.Algorithm.Olia ]
      (values_opt "ccs" cc_of fields)
  in
  let defaults =
    Option.value ~default:[ 1; 2; 3 ] (values_opt "defaults" int_exn fields)
  in
  let seeds = Option.value ~default:[ 1 ] (values_opt "seeds" int_exn fields) in
  let duration = scalar_opt "duration-s" duration_of fields in
  let sampling = scalar_opt "sampling-ms" sampling_of fields in
  List.concat_map
    (fun cc ->
      List.concat_map
        (fun default ->
          List.map
            (fun seed ->
              paper_cell ~duration ~sampling ~scheduler:None ~total_bytes:None
                ~cc ~default ~seed ())
            seeds)
        defaults)
    ccs

let experiment ~base_dir fields =
  let file name =
    match scalar_opt name atom_exn fields with
    | Some f ->
      if Filename.is_relative f then Filename.concat base_dir f else f
    | None -> fail "batch: (experiment ...) needs (%s FILE)" name
  in
  let topo_file = file "topology" and xp_file = file "experiment" in
  let _topo, spec = Core.Expfile.load ~topo_file ~xp_file in
  let label =
    match scalar_opt "label" atom_exn fields with
    | Some l -> l
    | None -> Filename.remove_extension (Filename.basename xp_file)
  in
  [ { label; spec } ]

let of_sexps ~base_dir sexps =
  let entries =
    List.concat_map
      (fun form ->
        match form with
        | List (Atom "preset" :: fields) -> preset fields
        | List (Atom "grid" :: fields) -> grid fields
        | List (Atom "experiment" :: fields) -> experiment ~base_dir fields
        | s -> fail "batch: unknown form %s" (to_string s))
      sexps
  in
  if entries = [] then fail "batch: no scenarios";
  entries

let load path =
  of_sexps ~base_dir:(Filename.dirname path) (Events.Sexp.load path)
