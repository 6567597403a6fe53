open Events.Sexp

(* (experiment
    (cc lia)
    (scheduler min-rtt)
    (duration-s 12)
    (sampling-ms 100)
    (seed 1)
    (total-mb 8)
    (rto-cap 2)
    (limit-pkts 16)
    (paths (a p1 z) (a p2 z))
    (events
     (at-s 3.6 (link-down a p1)))) *)

let path_of topo form =
  match form with
  | List names ->
    let names = List.map atom_exn names in
    (try Netgraph.Path.of_names topo names
     with Invalid_argument msg | Failure msg ->
       fail "bad path (%s): %s" (String.concat " " names) msg
     | Not_found ->
       fail "bad path (%s): unknown node" (String.concat " " names))
  | Atom _ -> fail "expected a path (node node ...), got %s" (to_string form)

let spec_of_sexps ~topo sexps =
  let body =
    match sexps with
    | [ List (Atom "experiment" :: body) ] -> body
    | _ -> fail "expected a single (experiment ...) form"
  in
  let cc =
    match scalar_opt "cc" atom_exn body with
    | None -> Mptcp.Algorithm.Lia
    | Some name -> (
      match Mptcp.Algorithm.of_string name with
      | Some cc -> cc
      | None -> fail "unknown congestion control %s" name)
  in
  let scheduler =
    scalar_opt "scheduler"
      (fun s ->
        let name = atom_exn s in
        match Mptcp.Scheduler.policy_of_string name with
        | Some p -> p
        | None -> fail "unknown scheduler %s" name)
      body
  in
  let time_of_ms s = Events.Parse.time_of_s (float_exn s /. 1e3) in
  let total_bytes =
    match
      (scalar_opt "total-mb" float_exn body, scalar_opt "total-bytes" int_exn body)
    with
    | Some mb, _ -> Some (int_of_float (mb *. 1e6))
    | None, (Some _ as b) -> b
    | None, None -> None
  in
  let net_config =
    match scalar_opt "limit-pkts" int_exn body with
    | Some limit_pkts ->
      { Scenario.default_net_config with Netsim.Net.limit_pkts }
    | None -> Scenario.default_net_config
  in
  let paths =
    match find_field "paths" body with
    | Some (_ :: _ as forms) ->
      Mptcp.Path_manager.tag_paths (List.map (path_of topo) forms)
    | Some [] | None -> fail "experiment: missing (paths (a b c) ...)"
  in
  let events =
    match find_field "events" body with
    | Some forms -> Events.Parse.events topo forms
    | None -> []
  in
  Scenario.make ~topo ~paths ~cc ?scheduler
    ?duration:
      (scalar_opt "duration-s"
         (fun s -> Events.Parse.time_of_s (float_exn s))
         body)
    ?sampling:(scalar_opt "sampling-ms" time_of_ms body)
    ?seed:(scalar_opt "seed" int_exn body)
    ~net_config
    ?send_buffer:(scalar_opt "send-buffer-bytes" int_exn body)
    ?total_bytes ~events
    ?rto_cap:(scalar_opt "rto-cap" int_exn body)
    ?hybrid_tick:(scalar_opt "tick-ms" time_of_ms body)
    ()

let load ~topo_file ~xp_file =
  let topo = Events.Parse.load_topology topo_file in
  (topo, spec_of_sexps ~topo (Events.Sexp.load xp_file))
