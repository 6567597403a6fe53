(* Canonical rendering of a Scenario.spec.

   The writer walks the spec in one fixed order, resolving everything
   to primitive values (node/link ids, nanoseconds, %.17g floats), so
   field order in the *source* (an experiment file, a batch grid, OCaml
   code) cannot leak into the text.  Exhaustive record patterns make
   the compiler flag any future spec/config field this module forgets
   to either render or deliberately exclude. *)

(* Bumped on any change to the rendering; see canon.mli. *)
let version = 2

let time_ns (t : Engine.Time.t) = string_of_int t

let opt_int = function None -> "none" | Some v -> string_of_int v

let add_qdisc buf (q : Netsim.Qdisc.t) =
  match q with
  | Netsim.Qdisc.Drop_tail -> Buffer.add_string buf "drop-tail"
  | Netsim.Qdisc.Red { min_th; max_th; max_p; weight; ecn } ->
    Buffer.add_string buf
      (Printf.sprintf "(red %d %d %s %s %b)" min_th max_th
         (Events.Sexp.f17 max_p) (Events.Sexp.f17 weight) ecn)
  | Netsim.Qdisc.Codel { target; interval } ->
    Buffer.add_string buf
      (Printf.sprintf "(codel %s %s)" (time_ns target) (time_ns interval))
  | Netsim.Qdisc.Broken_oversubscribe ->
    Buffer.add_string buf "broken-oversubscribe"

let add_action buf (a : Events.Event.action) =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match a with
  | Events.Event.Link_down { link } -> p "(link-down %d)" link
  | Events.Event.Link_up { link } -> p "(link-up %d)" link
  | Events.Event.Capacity_set { link; rate_bps } ->
    p "(capacity-set %d %d)" link rate_bps
  | Events.Event.Capacity_ramp { link; to_bps; over; steps } ->
    p "(capacity-ramp %d %d %s %d)" link to_bps (time_ns over) steps
  | Events.Event.Delay_set { link; delay } ->
    p "(delay-set %d %s)" link (time_ns delay)
  | Events.Event.Loss_set { link; loss } ->
    p "(loss-set %d %s)" link (Events.Sexp.f17 loss)
  | Events.Event.Subflow_close { subflow } -> p "(subflow-close %d)" subflow
  | Events.Event.Subflow_add { subflow } -> p "(subflow-add %d)" subflow
  | Events.Event.Traffic_start { src; dst; tag; rate_bps; stop_at } ->
    p "(traffic-start %d %d %d %d %s)" src dst tag rate_bps
      (match stop_at with None -> "none" | Some t -> time_ns t)
  | Events.Event.Background_start { src; dst; classes; flows; cc; rate_bps; rtt }
    ->
    p "(background %d %d %d %d %s %d %s)" src dst classes flows
      (match cc with None -> "cbr" | Some a -> Mptcp.Algorithm.name a)
      rate_bps (time_ns rtt)

let text (spec : Scenario.spec) =
  (* Destructure exhaustively: a new spec field will not compile until
     it is classified as rendered or excluded. *)
  let {
    Scenario.topo;
    paths;
    cc;
    scheduler;
    duration;
    sampling;
    seed;
    net_config = { Netsim.Net.qdisc; limit_pkts; delay_jitter };
    sender_config = { Tcp.Sender.mss; ecn; initial_rto; min_rto; max_rto };
    delayed_ack;
    send_buffer;
    total_bytes;
    trace_limit = _;  (* observation-only: packet trace text *)
    audit = _;        (* observation-only: results bit-identical *)
    obs = _;          (* observation-only: results bit-identical *)
    events;
    rto_cap;
    hybrid_tick;
  } =
    spec
  in
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "(canon %d" version;
  p " (cc %s)" (Mptcp.Algorithm.name cc);
  p " (delayed-ack %b)" delayed_ack;
  p " (duration-ns %s)" (time_ns duration);
  p " (events";
  List.iter
    (fun { Events.Event.at; action } ->
      p " (at-ns %s " (time_ns at);
      add_action buf action;
      p ")")
    events;
  p ")";
  p " (hybrid-tick-ns %s)" (time_ns hybrid_tick);
  p " (join-delay-ns %s)" (time_ns Mptcp.Connection.join_delay);
  p " (net-config (delay-jitter-ns %s) (limit-pkts %d) (qdisc "
    (time_ns delay_jitter) limit_pkts;
  add_qdisc buf qdisc;
  p "))";
  p " (paths";
  List.iter
    (fun (tag, path) ->
      p " (%d (nodes" tag;
      Array.iter (fun n -> p " %d" n) path.Netgraph.Path.nodes;
      p ") (links";
      Array.iter (fun l -> p " %d" l) path.Netgraph.Path.links;
      p "))")
    paths;
  p ")";
  p " (rto-cap %s)" (opt_int rto_cap);
  p " (sampling-ns %s)" (time_ns sampling);
  p " (scheduler %s)" (Mptcp.Scheduler.policy_name scheduler);
  p " (seed %d)" seed;
  p " (send-buffer %s)" (opt_int send_buffer);
  (* The join delay, start jitter, initial window, initial ssthresh
     and dup-ACK threshold were once settable, and the sender once had
     two switches: one for a NewReno recovery mode, one for modelling
     the SYN exchange.  All are rendered still, at the one value each
     now has (the two switches as the literals of SACK recovery and of
     subflows that start established): a new rendering would need a
     version bump, and that would turn every stored record into a
     miss. *)
  p
    " (sender-config (dupack-threshold %d) (ecn %b) (handshake false) \
     (initial-cwnd %s) (initial-rto-ns %s) (initial-ssthresh %s) \
     (max-rto-ns %s) (min-rto-ns %s) (mss %d) (sack true))"
    Tcp.Sender.dupack_threshold ecn
    (Events.Sexp.f17 Tcp.Sender.initial_cwnd)
    (time_ns initial_rto)
    (Events.Sexp.f17 Tcp.Sender.initial_ssthresh)
    (time_ns max_rto) (time_ns min_rto) mss;
  p " (start-jitter-ns %s)" (time_ns Scenario.start_jitter);
  (* Topology: nodes in id order (names included: forwarding ignores
     them, but a renamed node is a different scenario to the operator
     and to path specs), links in id order. *)
  p " (topo (nodes";
  for n = 0 to Netgraph.Topology.num_nodes topo - 1 do
    p " %s" (Netgraph.Topology.node_name topo n)
  done;
  p ") (links";
  Array.iter
    (fun { Netgraph.Topology.id; u; v; capacity_bps; delay } ->
      p " (%d %d %d %d %s)" id u v capacity_bps (time_ns delay))
    (Netgraph.Topology.links topo);
  p "))";
  p " (total-bytes %s)" (opt_int total_bytes);
  p ")";
  Buffer.contents buf

let hash spec = Digest.to_hex (Digest.string (text spec))

let short h = if String.length h <= 12 then h else String.sub h 0 12
