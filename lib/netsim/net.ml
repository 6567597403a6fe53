type dir = Fwd | Rev

type config = { qdisc : Qdisc.t; limit_pkts : int; delay_jitter : Engine.Time.t }

let default_config =
  { qdisc = Qdisc.Drop_tail; limit_pkts = 40; delay_jitter = Engine.Time.zero }

(* Routing keys are flattened to one immediate int so the per-hop lookup
   neither allocates a (dst, tag) pair nor hashes a block.  20 bits of
   tag leave 42 for the destination — both far beyond any topology
   here, and install_route rejects the rest. *)
let tag_bits = 20
let tag_mask = (1 lsl tag_bits) - 1

let route_key ~dst ~tag = (dst lsl tag_bits) lor (tag land tag_mask)

let check_route_key ~dst ~tag =
  if dst < 0 || tag < 0 || tag > tag_mask || dst > max_int lsr tag_bits then
    invalid_arg "Net.install_route: destination or tag out of range"

type t = {
  sched : Engine.Sched.t;
  topo : Netgraph.Topology.t;
  pool : Packet.Pool.t;
  mutable queues : Linkq.t array;
      (* one per link direction: [queues.(2 * link + dir_index dir)] *)
  tables : int Engine.Int_table.t array;
      (* node -> route key -> index into [queues] of the outgoing link
         direction, or -1: resolved once at install, so a hop is one
         lookup and one array read.  [out lsr 1] is the link id. *)
  hosts : (Packet.t -> unit) option array;
  (* node-indexed observation points; the node is implied by which tap
     fires, so the packet itself is the event and emitting allocates
     nothing *)
  arrivals : Packet.t Engine.Tap.t array;
  injects : Packet.t Engine.Tap.t array;
  no_routes : Packet.t Engine.Tap.t array;
  mutable next_id : int;
  mutable no_route : int;
}

let dir_index = function Fwd -> 0 | Rev -> 1

let release_pkt t p = Packet.Pool.release t.pool p

let rec receive t ~node p =
  let tap = t.arrivals.(node) in
  if Array.length tap.Engine.Tap.subs > 0 then Engine.Tap.emit tap p;
  if p.Packet.dst = node then begin
    (match t.hosts.(node) with
    | Some h -> h p
    | None -> () (* destination without a host: silently sink *));
    (* The packet has left the network: the host handler is done with it
       (anything longer-lived must have copied), so the record can be
       recycled. *)
    release_pkt t p
  end
  else forward t ~node p

and forward t ~node p =
  let out =
    Engine.Int_table.find t.tables.(node)
      (route_key ~dst:p.Packet.dst ~tag:p.Packet.tag)
  in
  if out >= 0 then Linkq.enqueue t.queues.(out) p
  else begin
    t.no_route <- t.no_route + 1;
    Engine.Tap.emit t.no_routes.(node) p;
    release_pkt t p
  end

let create ~sched ~rng ?(config = default_config) topo =
  let n = Netgraph.Topology.num_nodes topo in
  let t =
    {
      sched;
      topo;
      pool = Packet.Pool.create ();
      queues = [||];
      tables = Array.init n (fun _ -> Engine.Int_table.create ~absent:(-1) ());
      hosts = Array.make n None;
      arrivals = Array.init n (fun _ -> Engine.Tap.create ());
      injects = Array.init n (fun _ -> Engine.Tap.create ());
      no_routes = Array.init n (fun _ -> Engine.Tap.create ());
      next_id = 0;
      no_route = 0;
    }
  in
  let make_q (l : Netgraph.Topology.link) ~to_node =
    Linkq.create ~sched ~rng:(Engine.Rng.split rng)
      ~rate_bps:l.Netgraph.Topology.capacity_bps
      ~delay:l.Netgraph.Topology.delay ~jitter:config.delay_jitter
      ~qdisc:config.qdisc
      ~limit_pkts:config.limit_pkts
      ~deliver:(fun p -> receive t ~node:to_node p)
      ~release:(fun p -> release_pkt t p)
      ~pool:t.pool ()
  in
  (* Per link the reverse direction splits its rng first, the order the
     queues have always been built in, so seeded runs (loss, jitter)
     keep their random streams. *)
  t.queues <-
    Array.of_list
      (List.concat_map
         (fun (l : Netgraph.Topology.link) ->
           let rev = make_q l ~to_node:l.Netgraph.Topology.u in
           let fwd = make_q l ~to_node:l.Netgraph.Topology.v in
           [ fwd; rev ])
         (Array.to_list (Netgraph.Topology.links topo)));
  t

let sched t = t.sched
let topology t = t.topo
let pool t = t.pool

let fresh_packet_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let packets_created t = t.next_id

let install_route t ~node ~dst ~tag ~link =
  let l = Netgraph.Topology.link t.topo link in
  if l.Netgraph.Topology.u <> node && l.Netgraph.Topology.v <> node then
    invalid_arg "Net.install_route: node is not an endpoint of link";
  check_route_key ~dst ~tag;
  let dir = if l.Netgraph.Topology.u = node then 0 else 1 in
  Engine.Int_table.replace t.tables.(node) (route_key ~dst ~tag)
    ((2 * link) + dir)

let install_path t ~tag path =
  let nodes = path.Netgraph.Path.nodes and links = path.Netgraph.Path.links in
  let dst = Netgraph.Path.dst path and src = Netgraph.Path.src path in
  Array.iteri
    (fun i lid ->
      install_route t ~node:nodes.(i) ~dst ~tag ~link:lid;
      install_route t ~node:nodes.(i + 1) ~dst:src ~tag ~link:lid)
    links

let route t ~node ~dst ~tag =
  let out = Engine.Int_table.find t.tables.(node) (route_key ~dst ~tag) in
  if out >= 0 then Some (out lsr 1) else None

let attach_host t ~node h =
  match t.hosts.(node) with
  | Some _ -> invalid_arg "Net.attach_host: host already attached"
  | None -> t.hosts.(node) <- Some h

let arrival_tap t ~node = t.arrivals.(node)
let inject_tap t ~node = t.injects.(node)
let no_route_tap t ~node = t.no_routes.(node)

let inject t ~at p =
  let tap = t.injects.(at) in
  if Array.length tap.Engine.Tap.subs > 0 then Engine.Tap.emit tap p;
  if p.Packet.dst = at then receive t ~node:at p else forward t ~node:at p

let iter_linkqs t f =
  Array.iteri
    (fun i q -> f ~link:(i lsr 1) ~dir:(if i land 1 = 0 then Fwd else Rev) q)
    t.queues

let linkq t ~link ~dir = t.queues.((2 * link) + dir_index dir)

let set_link_up t ~link up =
  Linkq.set_up t.queues.(2 * link) up;
  Linkq.set_up t.queues.((2 * link) + 1) up

let link_is_up t ~link = Linkq.is_up t.queues.(2 * link)

let set_link_rate t ~link rate_bps =
  Linkq.set_rate t.queues.(2 * link) rate_bps;
  Linkq.set_rate t.queues.((2 * link) + 1) rate_bps

let set_link_delay t ~link delay =
  Linkq.set_delay t.queues.(2 * link) delay;
  Linkq.set_delay t.queues.((2 * link) + 1) delay

let set_link_loss t ~link loss =
  Linkq.set_loss t.queues.(2 * link) loss;
  Linkq.set_loss t.queues.((2 * link) + 1) loss

let no_route_drops t = t.no_route

let total_drops t =
  Array.fold_left (fun acc q -> acc + (Linkq.stats q).Linkq.dropped) 0 t.queues
