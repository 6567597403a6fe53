type spec = {
  topo : Netgraph.Topology.t;
  paths : Mptcp.Path_manager.t;
  cc : Mptcp.Algorithm.t;
  scheduler : Mptcp.Scheduler.policy;
  duration : Engine.Time.t;
  sampling : Engine.Time.t;
  seed : int;
  net_config : Netsim.Net.config;
  sender_config : Tcp.Sender.config;
  delayed_ack : bool;
  send_buffer : int option;
  total_bytes : int option;
  trace_limit : int option;
  audit : bool;
  obs : Obs.Collect.conf option;
  events : Events.Event.t list;
  rto_cap : int option;
  hybrid_tick : Engine.Time.t;
      (* coarse-tick period of the fluid background driver (only
         consulted when the events declare background classes) *)
}

(* The paper's Mininet links have shallow buffers relative to the
   bandwidth-delay product; 16 packets (~0.5 BDP of the fastest path)
   reproduces the measured dynamics, and the bench harness sweeps this
   value as an ablation. *)
let default_net_config =
  { Netsim.Net.qdisc = Netsim.Qdisc.Drop_tail; limit_pkts = 16;
        delay_jitter = Engine.Time.zero }

let start_jitter = Engine.Time.ms 2

let validate spec =
  if spec.paths = [] then invalid_arg "Scenario.make: no paths";
  (match
     Events.Event.validate ~topo:spec.topo
       ~num_subflows:(List.length spec.paths)
       ~reserved_tags:(List.map fst spec.paths) spec.events
   with
  | [] -> ()
  | errs ->
    invalid_arg
      (Printf.sprintf "Scenario.make: invalid events: %s"
         (String.concat "; " errs)));
  if Engine.Time.( <= ) spec.hybrid_tick Engine.Time.zero then
    invalid_arg "Scenario.make: hybrid tick must be positive";
  if Engine.Time.( <= ) spec.sampling Engine.Time.zero then
    invalid_arg "Scenario.make: sampling period must be positive";
  (* Background classes need a fluid window law; reject the algorithms
     without one here rather than mid-run. *)
  List.iter
    (fun { Events.Event.action; _ } ->
      match action with
      | Events.Event.Background_start { cc = Some a; _ }
        when Fluid.Controller.of_algorithm a = None ->
        invalid_arg
          (Printf.sprintf "Scenario.make: %s has no fluid background model"
             (Mptcp.Algorithm.name a))
      | _ -> ())
    spec.events

let make ~topo ~paths ~cc ?(scheduler = Mptcp.Scheduler.Min_rtt)
    ?(duration = Engine.Time.s 4) ?(sampling = Engine.Time.ms 100) ?(seed = 1)
    ?(net_config = default_net_config)
    ?(sender_config = Tcp.Sender.default_config) ?(delayed_ack = false)
    ?send_buffer ?total_bytes ?trace_limit ?(audit = false) ?obs
    ?(events = []) ?rto_cap ?(hybrid_tick = Engine.Time.ms 1) () =
  let spec =
    {
      topo; paths; cc; scheduler; duration; sampling; seed; net_config;
      sender_config; delayed_ack; send_buffer; total_bytes; trace_limit;
      audit; obs; events; rto_cap; hybrid_tick;
    }
  in
  validate spec;
  spec

type subflow_report = {
  tag : Packet.tag;
  cwnd : float;
  srtt_s : float option;
  segments_sent : int;
  retransmits : int;
  timeouts : int;
  fast_recoveries : int;
  bytes_acked : int;
  rx_bytes : int;
}

type result = {
  spec : spec;
  per_tag : (Packet.tag * Measure.Series.t) list;
  total : Measure.Series.t;
  cwnd_series : (Packet.tag * Measure.Series.t) list;
      (* congestion window (MSS) sampled at the same period *)
  optimum : Netgraph.Constraints.optimum;
  subflows : subflow_report list;
  delivered_bytes : int;
  completed_at_s : float option;
  subflow_churn : int;
  cross_traffic_bytes : int;
  queue_drops : int;
  events_processed : int;
  packets_created : int;
  pool_stats : Packet.Pool.stats;
  trace_text : string option;
  audit : Audit.report option;
  obs : Obs.Collect.t option;
  background : Fluid.Background.Driver.summary option;
}

let endpoints_of_paths paths =
  match paths with
  | [] -> invalid_arg "Scenario: no paths"
  | (_, first) :: rest ->
    let src = Netgraph.Path.src first and dst = Netgraph.Path.dst first in
    List.iter
      (fun (_, p) ->
        if Netgraph.Path.src p <> src || Netgraph.Path.dst p <> dst then
          invalid_arg "Scenario: all paths must share source and destination")
      rest;
    (src, dst)

let run spec =
  let src_node, dst_node = endpoints_of_paths spec.paths in
  let sched = Engine.Sched.create () in
  (* Audited runs shadow the timing wheel with the reference heap and
     fail loudly on any dispatch-order divergence. *)
  if spec.audit then Engine.Sched.set_lockstep sched true;
  let rng = Engine.Rng.create spec.seed in
  let net =
    Netsim.Net.create ~sched ~rng ~config:spec.net_config spec.topo
  in
  let auditor =
    if spec.audit then Some (Audit.create ~sched) else None
  in
  (* Audited runs also arm the freelist's poison checks: a double
     release or a resurrected live packet raises instead of silently
     corrupting the run. *)
  if spec.audit then Packet.Pool.set_debug (Netsim.Net.pool net) true;
  Option.iter (fun a -> Audit.attach_net a net) auditor;
  let src_ep = Tcp.Endpoint.create net ~node:src_node in
  let dst_ep = Tcp.Endpoint.create net ~node:dst_node in
  let capture = Measure.Capture.attach net ~node:dst_node ~conn:1 () in
  let trace =
    Option.map
      (fun limit ->
        Measure.Trace.attach net
          ~nodes:[ src_node; dst_node ]
          ~keep:(Measure.Trace.conn_filter 1) ~limit ())
      spec.trace_limit
  in
  let config =
    {
      Mptcp.Connection.sender = spec.sender_config;
      scheduler = spec.scheduler;
      send_buffer = spec.send_buffer;
      start_jitter;
      delayed_ack = spec.delayed_ack;
      reinjection = false;
      rto_cap = spec.rto_cap;
    }
  in
  let conn =
    Mptcp.Connection.establish ~net ~src:src_ep ~dst:dst_ep ~conn:1
      ~paths:spec.paths ~cc:spec.cc ~config ~rng:(Engine.Rng.split rng)
      ?total_bytes:spec.total_bytes ()
  in
  Option.iter
    (fun a ->
      Audit.attach_connection a ~label:"conn1" conn;
      (* Connection-level invariants are evaluated once per sampling
         period, and a last time at the end of the run. *)
      Engine.Sched.periodic sched ~period:spec.sampling ~until:spec.duration
        (fun () -> Audit.tick a))
    auditor;
  let obs =
    Option.map (fun conf -> Obs.Collect.create ~sched conf) spec.obs
  in
  Option.iter
    (fun o ->
      Obs.Collect.attach o net conn;
      Option.iter
        (fun a ->
          Engine.Tap.subscribe (Audit.tap a) (fun v ->
              Obs.Collect.violation o ~invariant:v.Audit.invariant))
        auditor;
      (* Metrics snapshots share the run's sampling cadence. *)
      Engine.Sched.periodic sched ~period:spec.sampling ~until:spec.duration
        (fun () -> Obs.Collect.snapshot o))
    obs;
  (* Timed events arm last, after the audit's and collector's link taps
     are in place, so every event-induced packet fate is observed. *)
  let traffic = Events.Event.arm ~sched ~net ~conn spec.events in
  (* Background declarations compile into one fluid field whose driver
     ticks through the same wheel as everything else; each declaration
     expands (in [Fluid.Background.Driver.attach]) to [classes]
     single-path class fields along the current shortest path. *)
  let background_driver =
    let decls =
      List.filter_map
        (fun { Events.Event.at = start; action } ->
          match action with
          | Events.Event.Background_start
              { src; dst; classes; flows; cc; rate_bps; rtt } ->
            let path =
              match
                Netgraph.Shortest.shortest_path spec.topo ~src ~dst
                  ~weight:Netgraph.Shortest.delay_ns
              with
              | Some p -> p
              | None -> invalid_arg "Scenario.run: no route for background"
            in
            let links =
              Array.mapi
                (fun k l ->
                  ( l,
                    (Netgraph.Topology.link spec.topo l).Netgraph.Topology.u
                    = path.Netgraph.Path.nodes.(k) ))
                path.Netgraph.Path.links
            in
            let kind =
              Option.map
                (fun a -> Option.get (Fluid.Controller.of_algorithm a))
                cc
            in
            Some
              { Fluid.Background.Driver.links;
                classes;
                flows;
                kind;
                flow_rate_bps = rate_bps;
                rtt_s = Engine.Time.to_float_s rtt;
                start_s = Engine.Time.to_float_s start }
          | _ -> None)
        spec.events
    in
    match decls with
    | [] -> None
    | decls ->
      let config =
        { Fluid.Model.mss_bytes = spec.sender_config.Tcp.Sender.mss;
          buffer_pkts = spec.net_config.Netsim.Net.limit_pkts }
      in
      Some
        (Fluid.Background.Driver.attach ~sched ~net ~tick:spec.hybrid_tick
           ~until:spec.duration ~config (Array.of_list decls))
  in
  let probes =
    List.init (Mptcp.Connection.subflow_count conn) (fun i ->
        let sender = Mptcp.Connection.subflow_sender conn i in
        ( Mptcp.Connection.subflow_tag conn i,
          Measure.Probe.attach ~sched ~period:spec.sampling
            ~until:spec.duration (fun () -> Tcp.Sender.cwnd sender) ))
  in
  let wall0 = Unix.gettimeofday () in
  Engine.Sched.run ~until:spec.duration sched;
  let wall_s = Unix.gettimeofday () -. wall0 in
  Option.iter
    (fun o ->
      (* Wall-derived metrics carry "wall" in their name so determinism
         comparisons can filter them out. *)
      Obs.Collect.set_value o "core.wall_time_s" wall_s;
      Obs.Collect.set_value o "core.wall_events_per_s"
        (if wall_s > 0.0 then
           float_of_int (Engine.Sched.events_processed sched) /. wall_s
         else 0.0);
      Obs.Collect.snapshot o)
    obs;
  let per_tag, total =
    Measure.Sampler.per_tag capture ~window:spec.sampling ~until:spec.duration
  in
  let path_list = List.map snd spec.paths in
  let optimum = Netgraph.Constraints.optimum spec.topo path_list in
  let audit_report =
    Option.map
      (fun a ->
        Audit.tick a;
        (* Tail-mean per-path rates (the figures' measurement) must lie
           in the LP feasible region; 5% tolerance absorbs window
           granularity at the paper's 100 ms sampling. *)
        let from_s = 0.75 *. Engine.Time.to_float_s spec.duration in
        let measured_bps =
          Array.of_list
            (List.map
               (fun (tag, _) ->
                 match List.assoc_opt tag per_tag with
                 | Some series ->
                   let mbps = Measure.Series.mean_from series ~from_s in
                   if Float.is_finite mbps then mbps *. 1e6 else 0.0
                 | None -> 0.0)
               spec.paths)
        in
        Audit.check_lp a ~topo:spec.topo ~paths:path_list ~measured_bps
          ~tolerance:0.05 ();
        Audit.finish a ~elapsed:spec.duration ();
        Audit.report a)
      auditor
  in
  let subflows =
    List.init (Mptcp.Connection.subflow_count conn) (fun i ->
        let sender = Mptcp.Connection.subflow_sender conn i in
        let stats = Tcp.Sender.stats sender in
        {
          tag = Mptcp.Connection.subflow_tag conn i;
          cwnd = Tcp.Sender.cwnd sender;
          srtt_s =
            Option.map Engine.Time.to_float_s (Tcp.Sender.srtt sender);
          segments_sent = stats.Tcp.Sender.segments_sent;
          retransmits = stats.Tcp.Sender.retransmits;
          timeouts = stats.Tcp.Sender.timeouts;
          fast_recoveries = stats.Tcp.Sender.fast_recoveries;
          bytes_acked = stats.Tcp.Sender.bytes_acked;
          rx_bytes = Mptcp.Connection.subflow_rx_bytes conn i;
        })
  in
  {
    spec;
    per_tag;
    total;
    cwnd_series =
      List.map (fun (tag, p) -> (tag, Measure.Probe.series p)) probes;
    optimum;
    subflows;
    delivered_bytes = Mptcp.Connection.delivered_bytes conn;
    completed_at_s =
      Option.map Engine.Time.to_float_s (Mptcp.Connection.completed_at conn);
    subflow_churn =
      Mptcp.Path_manager.Liveness.churn (Mptcp.Connection.liveness conn);
    cross_traffic_bytes =
      List.fold_left (fun acc s -> acc + Netsim.Traffic.bytes_sent s) 0 traffic;
    queue_drops = Netsim.Net.total_drops net;
    events_processed = Engine.Sched.events_processed sched;
    packets_created = Netsim.Net.packets_created net;
    pool_stats = Packet.Pool.stats (Netsim.Net.pool net);
    trace_text = Option.map (fun tr -> Measure.Trace.to_text net tr) trace;
    audit = audit_report;
    obs;
    background = Option.map Fluid.Background.Driver.summary background_driver;
  }

let optimum_rates spec =
  (Netgraph.Constraints.optimum spec.topo (List.map snd spec.paths))
    .Netgraph.Constraints.per_path_bps

let optimal_total_mbps result = result.optimum.Netgraph.Constraints.total_bps /. 1e6

let tail_start result =
  0.75 *. Engine.Time.to_float_s result.spec.duration

let tail_mean_mbps result =
  Measure.Series.mean_from result.total ~from_s:(tail_start result)

let per_path_tail_mbps result =
  let from_s = tail_start result in
  List.map
    (fun (tag, s) -> (tag, Measure.Series.mean_from s ~from_s))
    result.per_tag

let time_to_optimum_s ?(tolerance = 0.05) ?(hold = 3) result =
  Measure.Converge.time_to_reach result.total
    ~target:(optimal_total_mbps result) ~tolerance ~hold ()

let pp_summary fmt result =
  Format.fprintf fmt
    "@[<v>cc=%a scheduler=%s seed=%d duration=%a@,\
     optimum=%.1f Mbps, tail mean=%.1f Mbps, time-to-optimum=%s@,\
     delivered=%d bytes, queue drops=%d@,"
    Mptcp.Algorithm.pp result.spec.cc
    (Mptcp.Scheduler.policy_name result.spec.scheduler)
    result.spec.seed Engine.Time.pp result.spec.duration
    (optimal_total_mbps result) (tail_mean_mbps result)
    (match time_to_optimum_s result with
    | Some t -> Printf.sprintf "%.2fs" t
    | None -> "never")
    result.delivered_bytes result.queue_drops;
  (match (result.spec.total_bytes, result.completed_at_s) with
  | Some total, Some t ->
    Format.fprintf fmt "transfer of %d bytes completed at %.2fs@," total t
  | Some total, None ->
    Format.fprintf fmt "transfer of %d bytes did not complete@," total
  | None, _ -> ());
  if result.subflow_churn > 0 then
    Format.fprintf fmt "subflow liveness transitions: %d@," result.subflow_churn;
  (match result.background with
  | Some b -> Format.fprintf fmt "%a@," Fluid.Background.Driver.pp_summary b
  | None -> ());
  List.iter
    (fun r ->
      Format.fprintf fmt
        "  tag %d: cwnd=%.1f rtx=%d rto=%d acked=%dB rx=%dB@," r.tag r.cwnd
        r.retransmits r.timeouts r.bytes_acked r.rx_bytes)
    result.subflows;
  Format.fprintf fmt "@]"
