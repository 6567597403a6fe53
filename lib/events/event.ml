type action =
  | Link_down of { link : int }
  | Link_up of { link : int }
  | Capacity_set of { link : int; rate_bps : int }
  | Capacity_ramp of {
      link : int;
      to_bps : int;
      over : Engine.Time.t;
      steps : int;
    }
  | Delay_set of { link : int; delay : Engine.Time.t }
  | Loss_set of { link : int; loss : float }
  | Subflow_close of { subflow : int }
  | Subflow_add of { subflow : int }
  | Traffic_start of {
      src : int;
      dst : int;
      tag : Packet.tag;
      rate_bps : int;
      stop_at : Engine.Time.t option;
    }
  | Background_start of {
      src : int;
      dst : int;
      classes : int;
      flows : int;
      cc : Mptcp.Algorithm.t option;
      rate_bps : int;
      rtt : Engine.Time.t;
    }

type t = { at : Engine.Time.t; action : action }

let at action ~at = { at; action }

let pp_action topo fmt action =
  let link_name lid =
    let l = Netgraph.Topology.link topo lid in
    Printf.sprintf "%s-%s"
      (Netgraph.Topology.node_name topo l.Netgraph.Topology.u)
      (Netgraph.Topology.node_name topo l.Netgraph.Topology.v)
  in
  match action with
  | Link_down { link } -> Format.fprintf fmt "link-down %s" (link_name link)
  | Link_up { link } -> Format.fprintf fmt "link-up %s" (link_name link)
  | Capacity_set { link; rate_bps } ->
    Format.fprintf fmt "capacity-set %s %.1f Mbps" (link_name link)
      (float_of_int rate_bps /. 1e6)
  | Capacity_ramp { link; to_bps; over; steps } ->
    Format.fprintf fmt "capacity-ramp %s to %.1f Mbps over %a in %d steps"
      (link_name link)
      (float_of_int to_bps /. 1e6)
      Engine.Time.pp over steps
  | Delay_set { link; delay } ->
    Format.fprintf fmt "delay-set %s %a" (link_name link) Engine.Time.pp delay
  | Loss_set { link; loss } ->
    Format.fprintf fmt "loss-set %s %.3f" (link_name link) loss
  | Subflow_close { subflow } -> Format.fprintf fmt "subflow-close %d" subflow
  | Subflow_add { subflow } -> Format.fprintf fmt "subflow-add %d" subflow
  | Traffic_start { src; dst; tag; rate_bps; stop_at } ->
    Format.fprintf fmt "traffic-start %s->%s tag=%d %.1f Mbps%s"
      (Netgraph.Topology.node_name topo src)
      (Netgraph.Topology.node_name topo dst)
      tag
      (float_of_int rate_bps /. 1e6)
      (match stop_at with
      | Some t -> Printf.sprintf " until %s" (Engine.Time.to_string t)
      | None -> "")
  | Background_start { src; dst; classes; flows; cc; rate_bps; rtt } ->
    Format.fprintf fmt "background %s->%s %dx%d %s rtt=%a"
      (Netgraph.Topology.node_name topo src)
      (Netgraph.Topology.node_name topo dst)
      classes flows
      (match cc with
      | Some a -> Mptcp.Algorithm.name a
      | None -> Printf.sprintf "cbr %.2f Mbps" (float_of_int rate_bps /. 1e6))
      Engine.Time.pp rtt

let pp topo fmt t =
  Format.fprintf fmt "@[at %a: %a@]" Engine.Time.pp t.at (pp_action topo)
    t.action

(* --- validation --- *)

let validate ~topo ?(num_subflows = 0) ?(reserved_tags = []) events =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let check_link lid what =
    if lid < 0 || lid >= Netgraph.Topology.num_links topo then
      err "%s: link id %d out of range" what lid
  in
  let check_node nid what =
    if nid < 0 || nid >= Netgraph.Topology.num_nodes topo then
      err "%s: node id %d out of range" what nid
  in
  List.iter
    (fun { at = when_; action } ->
      if Engine.Time.( < ) when_ Engine.Time.zero then
        err "event before t=0";
      match action with
      | Link_down { link } -> check_link link "link-down"
      | Link_up { link } -> check_link link "link-up"
      | Capacity_set { link; rate_bps } ->
        check_link link "capacity-set";
        if rate_bps <= 0 then err "capacity-set: rate must be positive";
        if
          link >= 0
          && link < Netgraph.Topology.num_links topo
          && rate_bps
             > (Netgraph.Topology.link topo link).Netgraph.Topology.capacity_bps
        then
          (* Raising a link above its declared capacity would invalidate
             the static LP bound the audit checks against. *)
          err "capacity-set: %d bps exceeds link %d's declared capacity"
            rate_bps link
      | Capacity_ramp { link; to_bps; over; steps } ->
        check_link link "capacity-ramp";
        if to_bps <= 0 then err "capacity-ramp: target must be positive";
        if steps < 1 then err "capacity-ramp: steps must be >= 1";
        if Engine.Time.( <= ) over Engine.Time.zero then
          err "capacity-ramp: duration must be positive";
        if
          link >= 0
          && link < Netgraph.Topology.num_links topo
          && to_bps
             > (Netgraph.Topology.link topo link).Netgraph.Topology.capacity_bps
        then
          err "capacity-ramp: %d bps exceeds link %d's declared capacity"
            to_bps link
      | Delay_set { link; delay } ->
        check_link link "delay-set";
        if Engine.Time.( < ) delay Engine.Time.zero then
          err "delay-set: negative delay"
      | Loss_set { link; loss } ->
        check_link link "loss-set";
        if loss < 0.0 || loss > 1.0 then
          err "loss-set: probability %g outside [0, 1]" loss
      | Subflow_close { subflow } | Subflow_add { subflow } ->
        if subflow < 0 || subflow >= num_subflows then
          err "subflow event: index %d outside the %d configured subflows"
            subflow num_subflows
      | Traffic_start { src; dst; tag; rate_bps; stop_at } ->
        check_node src "traffic-start source";
        check_node dst "traffic-start destination";
        if src = dst then err "traffic-start: source equals destination";
        if rate_bps <= 0 then err "traffic-start: rate must be positive";
        if List.mem tag reserved_tags then
          err "traffic-start: tag %d collides with a subflow tag" tag;
        (match stop_at with
        | Some stop when Engine.Time.( <= ) stop when_ ->
          err "traffic-start: stop time precedes start"
        | Some _ | None -> ())
      | Background_start { src; dst; classes; flows; cc; rate_bps; rtt } ->
        check_node src "background source";
        check_node dst "background destination";
        if src = dst then err "background: source equals destination";
        if classes < 1 then err "background: count must be >= 1";
        if flows < 1 then err "background: flows must be >= 1";
        if Engine.Time.( <= ) rtt Engine.Time.zero then
          err "background: rtt must be positive";
        if cc = None && rate_bps <= 0 then
          err "background: constant-rate classes need a positive rate")
    events;
  List.rev !errors

(* --- application --- *)

let apply_capacity_ramp ~sched ~net ~link ~to_bps ~over ~steps =
  (* Linear interpolation from the rate at ramp start, one re-rate per
     step, the last landing exactly on [to_bps] at [start + over]. *)
  let from_bps =
    Netsim.Linkq.rate_bps (Netsim.Net.linkq net ~link ~dir:Netsim.Net.Fwd)
  in
  let start = Engine.Sched.now sched in
  for k = 1 to steps do
    let frac = float_of_int k /. float_of_int steps in
    let rate =
      from_bps + int_of_float (frac *. float_of_int (to_bps - from_bps))
    in
    let rate = if k = steps then to_bps else max 1 rate in
    ignore
      (Engine.Sched.at sched
         (Engine.Time.add start (Engine.Time.scale over frac))
         (fun () ->
           if Netsim.Net.link_is_up net ~link then
             Netsim.Net.set_link_rate net ~link rate))
  done

let apply ~sched ~net ?conn action =
  match action with
  | Link_down { link } -> Netsim.Net.set_link_up net ~link false
  | Link_up { link } -> Netsim.Net.set_link_up net ~link true
  | Capacity_set { link; rate_bps } -> Netsim.Net.set_link_rate net ~link rate_bps
  | Capacity_ramp { link; to_bps; over; steps } ->
    apply_capacity_ramp ~sched ~net ~link ~to_bps ~over ~steps
  | Delay_set { link; delay } -> Netsim.Net.set_link_delay net ~link delay
  | Loss_set { link; loss } -> Netsim.Net.set_link_loss net ~link loss
  | Subflow_close { subflow } -> (
    match conn with
    | Some c -> Mptcp.Connection.deactivate_subflow c subflow
    | None -> invalid_arg "Event.apply: subflow event without a connection")
  | Subflow_add { subflow } -> (
    match conn with
    | Some c -> Mptcp.Connection.reactivate_subflow c subflow
    | None -> invalid_arg "Event.apply: subflow event without a connection")
  | Traffic_start _ | Background_start _ ->
    (* Handled by [arm], which never schedules them. *)
    ()

let arm ~sched ~net ?conn events =
  let topo = Netsim.Net.topology net in
  let sources = ref [] in
  List.iter
    (fun { at = when_; action } ->
      match action with
      | Traffic_start { src; dst; tag; rate_bps; stop_at } ->
        (* Route the cross-traffic along the current shortest path and
           let the source itself start at the scheduled time. *)
        (match
           Netgraph.Shortest.shortest_path topo ~src ~dst
             ~weight:Netgraph.Shortest.delay_ns
         with
        | Some path -> Netsim.Net.install_path net ~tag path
        | None -> invalid_arg "Event.arm: no route for traffic-start");
        sources :=
          Netsim.Traffic.cbr ~net ~src ~dst ~tag ~rate_bps ~start:when_
            ?stop_at ()
          :: !sources
      | Background_start _ ->
        (* Declarative: the scenario layer compiles these into the
           hybrid fluid driver before the run starts. *)
        ()
      | _ ->
        ignore
          (Engine.Sched.at sched when_ (fun () ->
               apply ~sched ~net ?conn action)))
    events;
  List.rev !sources
