open Sexp

let time_of_s x =
  if x < 0.0 || not (Float.is_finite x) then fail "bad time %g s" x
  else Engine.Time.of_float_s x

let mbps_of v = int_of_float (float_exn v *. 1e6)
let s_of v = time_of_s (float_exn v)
let ms_of v = time_of_s (float_exn v /. 1e3)
let us_of v = time_of_s (float_exn v /. 1e6)

(* A rate is written [(mbps X)] (decimal megabits) or [(bps N)]. *)
let rate_exn s =
  let r =
    match s with
    | List [ Atom "mbps"; v ] -> mbps_of v
    | List [ Atom "bps"; v ] -> int_exn v
    | _ -> fail "expected (mbps X) or (bps N), got %s" (to_string s)
  in
  if r <= 0 then fail "rate must be positive, got %s" (to_string s);
  r

(* A duration is written [(ms X)], [(us X)] or [(s X)]. *)
let duration_exn s =
  match s with
  | List [ Atom "ms"; v ] -> ms_of v
  | List [ Atom "us"; v ] -> us_of v
  | List [ Atom "s"; v ] -> s_of v
  | _ -> fail "expected (ms X), (us X) or (s X), got %s" (to_string s)

(* The one-value field [a], or else [b]; [b] is read only when [a] is
   absent. *)
let either (a, conv_a) (b, conv_b) items =
  match scalar_opt a conv_a items with
  | Some v -> v
  | None -> (
    match scalar_opt b conv_b items with
    | Some v -> v
    | None -> fail "missing (%s X) or (%s X)" a b)

(* Re-raise a form's parse error with the form in front, so a message
   from a shared field reader names the link or event it came from. *)
let within form f =
  try f () with Parse_error msg -> fail "%s: %s" (to_string form) msg

(* --- topology files ---

   (topology
    (nodes a p1 p2 z)
    (links
     (a p1 (mbps 10) (delay-ms 5))
     (p1 z (mbps 10) (delay-ms 5))))  *)

let topology sexps =
  let body =
    match sexps with
    | [ List (Atom "topology" :: body) ] -> body
    | _ -> fail "expected a single (topology ...) form"
  in
  let b = Netgraph.Topology.builder () in
  let ids = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let name = atom_exn n in
      Hashtbl.replace ids name (Netgraph.Topology.add_node b name))
    (field "nodes" body);
  let node name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> fail "topology: unknown node %s" name
  in
  List.iter
    (fun l ->
      within l (fun () ->
          match l with
          | List (u :: v :: attrs) ->
            let capacity_bps =
              either ("mbps", mbps_of) ("bps", int_exn) attrs
            in
            let delay = either ("delay-ms", ms_of) ("delay-us", us_of) attrs in
            ignore
              (Netgraph.Topology.add_link b ~u:(node (atom_exn u))
                 ~v:(node (atom_exn v)) ~capacity_bps ~delay)
          | _ -> fail "topology: malformed link"))
    (field "links" body);
  Netgraph.Topology.build b

let load_topology path = topology (Sexp.load path)

(* --- event forms ---

   (at-s 3.6 (link-down a p1))
   (at-s 2 (capacity-ramp a p2 (mbps 40) (over-s 2) (steps 8)))
   (at-s 1 (traffic-start n1 z (tag 9) (mbps 20) (stop-s 8)))  *)

let node_id topo n =
  let name = atom_exn n in
  try Netgraph.Topology.node_id topo name
  with Not_found -> fail "unknown node %s" name

let link_ref topo u v =
  match
    Netgraph.Topology.find_link topo ~u:(node_id topo u) ~v:(node_id topo v)
  with
  | Some l -> l.Netgraph.Topology.id
  | None -> fail "no link between %s and %s" (atom_exn u) (atom_exn v)

let action topo s =
  let node = node_id topo and link = link_ref topo in
  match s with
  | List [ Atom "link-down"; u; v ] -> Event.Link_down { link = link u v }
  | List [ Atom "link-up"; u; v ] -> Event.Link_up { link = link u v }
  | List [ Atom "capacity-set"; u; v; rate ] ->
    Event.Capacity_set { link = link u v; rate_bps = rate_exn rate }
  | List (Atom "capacity-ramp" :: u :: v :: rate :: attrs) ->
    Event.Capacity_ramp
      { link = link u v; to_bps = rate_exn rate;
        over = scalar "over-s" s_of attrs;
        steps = Option.value (scalar_opt "steps" int_exn attrs) ~default:8 }
  | List [ Atom "delay-set"; u; v; d ] ->
    Event.Delay_set { link = link u v; delay = duration_exn d }
  | List [ Atom "loss-set"; u; v; p ] ->
    Event.Loss_set { link = link u v; loss = float_exn p }
  | List [ Atom "subflow-close"; i ] ->
    Event.Subflow_close { subflow = int_exn i }
  | List [ Atom "subflow-add"; i ] -> Event.Subflow_add { subflow = int_exn i }
  | List (Atom "traffic-start" :: src :: dst :: attrs) ->
    Event.Traffic_start
      { src = node src; dst = node dst;
        tag = scalar "tag" int_exn attrs;
        rate_bps = scalar "mbps" mbps_of attrs;
        stop_at = scalar_opt "stop-s" s_of attrs }
  | List (Atom "background" :: src :: dst :: attrs) ->
    (* (background n1 z (count 100) (flows 10) (cc reno) (rtt-ms 20))
       (background n1 z (count 50) (mbps 1.2) (rtt-ms 30))   ; CBR *)
    let cc_of x =
      match atom_exn x with
      | "cbr" -> None
      | name -> (
        match Mptcp.Algorithm.of_string name with
        | Some a -> Some a
        | None -> fail "unknown congestion control %s" name)
    in
    let cc = Option.join (scalar_opt "cc" cc_of attrs) in
    let rate_bps =
      match scalar_opt "mbps" mbps_of attrs with
      | Some r -> r
      | None -> if cc = None then fail "CBR classes need (mbps X)" else 0
    in
    Event.Background_start
      { src = node src; dst = node dst;
        classes = scalar "count" int_exn attrs;
        flows = Option.value (scalar_opt "flows" int_exn attrs) ~default:1;
        cc; rate_bps;
        rtt = scalar "rtt-ms" ms_of attrs }
  | _ -> fail "unknown event action"

let event topo s =
  match s with
  | List [ Atom "at-s"; when_; act ] ->
    { Event.at = s_of when_; action = within act (fun () -> action topo act) }
  | _ -> fail "expected (at-s T (action ...)), got %s" (to_string s)

let events topo sexps = List.map (event topo) sexps
