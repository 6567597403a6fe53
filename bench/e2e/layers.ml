(* Per-layer numbers for the traced run: work counts, min-of-N unit
   costs of each library's public entry points, and the time ledger
   that sets count x unit cost against measured wall time.

   Every unit cost is measured here, in isolation, by timing calls into
   the layer's public functions at the workload's operating point: its
   network config, connection settings, CC mix and event-queue depth (the
   fluid field always has hybrid_light's 1000 classes).  Nothing inside
   the program is instrumented. *)

(* ---- work counts ---- *)

type counts = {
  runs : int;  (* simulations *)
  events : int;
  pkts_enqueued : int;  (* link-queue admissions: one per packet-hop *)
  pkts_dropped : int;
  pool_acquired : int;
  pool_recycled : int;
  packets_created : int;
  alloc_words : float;
  segments : int;
  acks : int;
  retransmits : int;
  timeouts : int;
  grants : int;
  defers : int;
  reinjections : int;
  churn : int;
  ticks : int;
  ode_steps : int;
  depth_sum : float;  (* engine queue depth, summed over snapshots *)
  depth_samples : int;
  requests : int;
  hits : int;
  misses : int;
}

let zero =
  { runs = 0; events = 0; pkts_enqueued = 0; pkts_dropped = 0;
    pool_acquired = 0; pool_recycled = 0; packets_created = 0;
    alloc_words = 0.; segments = 0; acks = 0; retransmits = 0; timeouts = 0;
    grants = 0; defers = 0; reinjections = 0; churn = 0; ticks = 0;
    ode_steps = 0; depth_sum = 0.; depth_samples = 0; requests = 0; hits = 0;
    misses = 0 }

let metric_of values name =
  match List.assoc_opt name values with
  | Some v -> int_of_float v
  | None -> 0

(* Counts of one run made with the metrics layer on. *)
let of_result (r : Core.Scenario.result) =
  let final, depth_sum, depth_samples =
    match r.Core.Scenario.obs with
    | None -> ([], 0., 0)
    | Some o ->
      let snaps =
        match Obs.Collect.metrics o with
        | Some m -> Obs.Metrics.snapshots m
        | None -> []
      in
      let depths =
        List.filter_map
          (fun s -> List.assoc_opt "engine.heap_depth" s.Obs.Metrics.values)
          snaps
      in
      ( Obs.Collect.final_metrics o,
        List.fold_left ( +. ) 0. depths,
        List.length depths )
  in
  let m = metric_of final in
  let sub f = List.fold_left (fun acc s -> acc + f s) 0 r.Core.Scenario.subflows in
  let ticks, ode_steps =
    match r.Core.Scenario.background with
    | Some b -> (b.Fluid.Background.Driver.ticks, b.Fluid.Background.Driver.ode_steps)
    | None -> (0, 0)
  in
  { zero with
    runs = 1;
    events = r.Core.Scenario.events_processed;
    pkts_enqueued = m "netsim.pkts_enqueued";
    pkts_dropped = m "netsim.pkts_dropped";
    pool_acquired = r.Core.Scenario.pool_stats.Packet.Pool.acquired;
    pool_recycled = r.Core.Scenario.pool_stats.Packet.Pool.recycled;
    packets_created = r.Core.Scenario.packets_created;
    segments = sub (fun s -> s.Core.Scenario.segments_sent);
    acks = m "tcp.acks";
    retransmits = sub (fun s -> s.Core.Scenario.retransmits);
    timeouts = sub (fun s -> s.Core.Scenario.timeouts);
    grants = m "mptcp.sched_grants";
    defers = m "mptcp.sched_defers";
    reinjections = m "mptcp.reinjections_total";
    churn = r.Core.Scenario.subflow_churn;
    ticks;
    ode_steps;
    depth_sum;
    depth_samples }

(* Counts of a daemon's fresh simulation, from the stored record's
   final metrics snapshot (no RTO count or queue-depth series there). *)
let of_record (r : Serve.Store.record) =
  let m = metric_of r.Serve.Store.metrics in
  { zero with
    runs = 1;
    events = r.Serve.Store.sim_events;
    pkts_enqueued = m "netsim.pkts_enqueued";
    pkts_dropped = m "netsim.pkts_dropped";
    pool_acquired = m "netsim.pool.acquired";
    pool_recycled = m "netsim.pool.recycled";
    packets_created = r.Serve.Store.packets_created;
    alloc_words = r.Serve.Store.alloc_words;
    segments = m "tcp.segments_sent";
    acks = m "tcp.acks";
    retransmits = m "tcp.retransmits";
    grants = m "mptcp.sched_grants";
    defers = m "mptcp.sched_defers";
    reinjections = m "mptcp.reinjections_total";
    churn = r.Serve.Store.subflow_churn;
    depth_sum = float_of_int (m "engine.heap_depth");
    depth_samples = 1 }

let add a b =
  { runs = a.runs + b.runs; events = a.events + b.events;
    pkts_enqueued = a.pkts_enqueued + b.pkts_enqueued;
    pkts_dropped = a.pkts_dropped + b.pkts_dropped;
    pool_acquired = a.pool_acquired + b.pool_acquired;
    pool_recycled = a.pool_recycled + b.pool_recycled;
    packets_created = a.packets_created + b.packets_created;
    alloc_words = a.alloc_words +. b.alloc_words;
    segments = a.segments + b.segments; acks = a.acks + b.acks;
    retransmits = a.retransmits + b.retransmits;
    timeouts = a.timeouts + b.timeouts; grants = a.grants + b.grants;
    defers = a.defers + b.defers;
    reinjections = a.reinjections + b.reinjections; churn = a.churn + b.churn;
    ticks = a.ticks + b.ticks; ode_steps = a.ode_steps + b.ode_steps;
    depth_sum = a.depth_sum +. b.depth_sum;
    depth_samples = a.depth_samples + b.depth_samples;
    requests = a.requests + b.requests; hits = a.hits + b.hits;
    misses = a.misses + b.misses }

let sum = List.fold_left add zero

let mean_depth c =
  if c.depth_samples = 0 then 0
  else int_of_float (c.depth_sum /. float_of_int c.depth_samples)

(* ---- unit costs ---- *)

type point = {
  net_config : Netsim.Net.config;
  rto_cap : int option;  (* MPTCP failover threshold *)
  send_buffer : int option;  (* connection-level send buffer, bytes *)
  ccs : Mptcp.Algorithm.t list;
  depth : int;  (* standing event-queue population *)
}

(* Scheduler: one [at_anon] plus its dispatch by [run], with [depth]
   unrelated timers pending far in the future. *)
let dispatch_ns p =
  let n = 2000 in
  1e9
  *. Stat.unit_cost ~units:n (fun () ->
         let s = Engine.Sched.create () in
         for i = 1 to p.depth do
           Engine.Sched.at_anon s (Engine.Time.s (1000 + i)) ignore
         done;
         fun () ->
           for i = 1 to n do
             Engine.Sched.at_anon s (Engine.Time.us i) ignore
           done;
           Engine.Sched.run ~until:(Engine.Time.us n) s)

let paper_net ?(config = Core.Scenario.default_net_config) () =
  let topo = Core.Paper_net.topology () in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 1) ~config topo in
  (topo, sched, net)

let enqueued net =
  let n = ref 0 in
  Netsim.Net.iter_linkqs net (fun ~link:_ ~dir:_ q ->
      n := !n + (Netsim.Linkq.stats q).Netsim.Linkq.enqueued);
  !n

(* Work of one isolated run, for turning its wall time into per-unit
   costs: wall seconds, units done, events, packet-hops. *)
type run_stats = { wall : float; units : int; r_events : int; hops : int }

let best_run prepare =
  let wall, finish = Stat.fastest ~budget_s:0.2 prepare in
  finish wall

(* Bare forwarding: one CBR source over Path 2 (three hops), well below
   the bottleneck so nothing queues; cost per packet-hop. *)
let forward p ~pkt_bytes =
  let rate_bps, sim_ms = if pkt_bytes < 500 then (10_000_000, 80) else (30_000_000, 600) in
  best_run (fun () ->
      let topo, sched, net = paper_net ~config:p.net_config () in
      let path = List.nth (Core.Paper_net.paths topo) 1 in
      Netsim.Net.install_path net ~tag:100 path;
      let until = Engine.Time.ms sim_ms in
      let src = Netgraph.Path.src path and dst = Netgraph.Path.dst path in
      fun () ->
        let cbr =
          Netsim.Traffic.cbr ~net ~src ~dst ~tag:100 ~rate_bps ~pkt_bytes
            ~stop_at:until ()
        in
        Engine.Sched.run ~until sched;
        fun wall ->
          { wall; units = Netsim.Traffic.packets_sent cbr;
            r_events = Engine.Sched.events_processed sched;
            hops = enqueued net })

(* Per-ACK congestion-control update, averaged over the CC mix: one
   on_ack per segment, a loss every 100 (the loop of bench/main.ml's
   controller microbenchmarks). *)
let cc_ack_ns p =
  let one cc =
    1e9
    *. Stat.unit_cost ~units:1000 (fun () ->
           let cwnd = ref 10.0 and ssthresh = ref 1e9 and now = ref 0.0 in
           let g = Tcp.Cc.group_create 3 in
           Array.iteri
             (fun i w ->
               g.Tcp.Cc.cwnds.(i) <- w;
               g.Tcp.Cc.srtts.(i) <- 0.01;
               g.Tcp.Cc.loss_intervals.(i) <- 100_000.0;
               Tcp.Cc.group_set_established g i true)
             [| 10.0; 20.0; 30.0 |];
           let ctx =
             { Tcp.Cc.now_s = (fun () -> !now);
               mss = Packet.default_mss;
               get_cwnd = (fun () -> !cwnd);
               set_cwnd = (fun w -> cwnd := w);
               get_ssthresh = (fun () -> !ssthresh);
               set_ssthresh = (fun w -> ssthresh := w);
               srtt_s = (fun () -> 0.01);
               group =
                 (fun () ->
                   g.Tcp.Cc.cwnds.(0) <- !cwnd;
                   g);
               self_index = (fun () -> 0) }
           in
           let cc = Mptcp.Algorithm.factory cc ctx in
           fun () ->
             for i = 1 to 1000 do
               now := float_of_int i *. 0.001;
               cc.Tcp.Cc.on_ack ~acked:Packet.default_mss;
               if i mod 100 = 0 then cc.Tcp.Cc.on_loss ()
             done)
  in
  List.fold_left (fun acc cc -> acc +. one cc) 0. p.ccs
  /. float_of_int (List.length p.ccs)

(* Single-path TCP (CUBIC) bulk flow over Path 2, per segment sent. *)
let flow p =
  best_run (fun () ->
      let topo, sched, net = paper_net ~config:p.net_config () in
      let path = List.nth (Core.Paper_net.paths topo) 1 in
      Netsim.Net.install_path net ~tag:2 path;
      let src = Tcp.Endpoint.create net ~node:(Netgraph.Path.src path) in
      let dst = Tcp.Endpoint.create net ~node:(Netgraph.Path.dst path) in
      fun () ->
        let f = Tcp.Flow.start ~src ~dst ~tag:2 ~conn:1 () in
        Engine.Sched.run ~until:(Engine.Time.ms 500) sched;
        fun wall ->
          { wall;
            units = (Tcp.Sender.stats (Tcp.Flow.sender f)).Tcp.Sender.segments_sent;
            r_events = Engine.Sched.events_processed sched;
            hops = enqueued net })

(* MPTCP (CUBIC) over the three paper paths, per segment sent, with the
   workload's failover setting and send buffer. *)
let connection p =
  best_run (fun () ->
      let topo, sched, net = paper_net ~config:p.net_config () in
      let paths = Core.Paper_net.tagged_paths ~default:2 topo in
      let node n = Netgraph.Topology.node_id topo n in
      let src = Tcp.Endpoint.create net ~node:(node "s") in
      let dst = Tcp.Endpoint.create net ~node:(node "d") in
      fun () ->
        let c =
          Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
            ~cc:Mptcp.Algorithm.Cubic
            ~config:
              { Mptcp.Connection.default_config with
                rto_cap = p.rto_cap;
                send_buffer = p.send_buffer }
            ()
        in
        Engine.Sched.run ~until:(Engine.Time.ms 500) sched;
        fun wall ->
          let segs = ref 0 in
          for i = 0 to Mptcp.Connection.subflow_count c - 1 do
            segs :=
              !segs
              + (Tcp.Sender.stats (Mptcp.Connection.subflow_sender c i))
                  .Tcp.Sender.segments_sent
          done;
          { wall; units = !segs;
            r_events = Engine.Sched.events_processed sched;
            hops = enqueued net })

let reassembly_ns () =
  1e9
  *. Stat.unit_cost ~units:1000 (fun () ->
         let r = Mptcp.Reassembly.create () in
         fun () ->
           for i = 0 to 999 do
             Mptcp.Reassembly.insert r ~dseq:(i * 769 mod 1000 * 1448) ~len:1448
           done)

(* One coarse tick of a field of 1000 CBR classes x 10 flows (30 Mbps
   in all, hybrid_light's background) on Path 2's three links.  The foreground rate
   alternates between two levels so the field never goes dormant: the
   cost measured is that of a tick that integrates.  Returns (us per
   tick, us per ODE step). *)
let advance p =
  let classes = 1000 in
  let topo = Core.Paper_net.topology () in
  let path = List.nth (Core.Paper_net.paths topo) 1 in
  let pkt_bits = 8. *. 1500. in
  let channels =
    Array.map
      (fun l ->
        { Fluid.Background.cap_pps =
            float_of_int (Netgraph.Topology.link topo l).Netgraph.Topology.capacity_bps
            /. pkt_bits;
          limit_pkts = p.net_config.Netsim.Net.limit_pkts })
      path.Netgraph.Path.links
  in
  let rate_pps = 30e6 /. pkt_bits /. float_of_int (classes * 10) in
  let specs =
    Array.init classes (fun i ->
        { Fluid.Background.flows = 10;
          law = Fluid.Background.Constant;
          flow_rate_pps = rate_pps;
          base_rtt_s = 0.02 *. (0.85 +. (0.3 *. float_of_int i /. float_of_int classes));
          chans = Array.init (Array.length channels) Fun.id;
          start_s = 0. })
  in
  let ticks = 50 in
  let steps = ref 0 in
  let per_tick =
    Stat.unit_cost ~units:ticks (fun () ->
        let f = Fluid.Background.compile ~channels ~classes:specs () in
        for k = 1 to 20 do
          Fluid.Background.set_foreground f ~chan:0
            ~pps:(if k land 1 = 0 then 500. else 1500.);
          ignore (Fluid.Background.advance f ~dt_s:0.001)
        done;
        fun () ->
          let s0 = Fluid.Background.ode_steps f in
          for k = 1 to ticks do
            Fluid.Background.set_foreground f ~chan:0
              ~pps:(if k land 1 = 0 then 500. else 1500.);
            ignore (Fluid.Background.advance f ~dt_s:0.001)
          done;
          steps := Fluid.Background.ode_steps f - s0)
  in
  let per_step = per_tick *. float_of_int ticks /. float_of_int (max 1 !steps) in
  (1e6 *. per_tick, 1e6 *. per_step)

(* One sample of every simulation-layer unit cost at [p]. *)
type units = {
  dispatch : float;  (* ns per scheduled event *)
  fwd64 : run_stats;
  fwd1500 : run_stats;
  cc_ack : float;  (* ns per ACK *)
  flow_run : run_stats;
  conn_run : run_stats;
  reassembly : float;  (* ns per insert *)
  advance_us : float;
  step_us : float;
}

let measure p =
  Span.with_ "unit costs" @@ fun _ ->
  let advance_us, step_us = advance p in
  { dispatch = dispatch_ns p; fwd64 = forward p ~pkt_bytes:64;
    fwd1500 = forward p ~pkt_bytes:1500; cc_ack = cc_ack_ns p; flow_run = flow p;
    conn_run = connection p; reassembly = reassembly_ns (); advance_us; step_us }

(* The faster of two samples, cost by cost.  The machine's speed drifts
   over seconds, so a caller samples the unit costs over the same window
   as the wall time they are set against, and keeps the fastest of
   each, as it keeps the fastest rep.  A run's work is deterministic, so
   the faster run is the one with the shorter wall. *)
let fastest_of a b =
  let run x y = if x.wall <= y.wall then x else y in
  let advance_us, step_us =
    if a.advance_us <= b.advance_us then (a.advance_us, a.step_us)
    else (b.advance_us, b.step_us)
  in
  { dispatch = Float.min a.dispatch b.dispatch; fwd64 = run a.fwd64 b.fwd64;
    fwd1500 = run a.fwd1500 b.fwd1500; cc_ack = Float.min a.cc_ack b.cc_ack;
    flow_run = run a.flow_run b.flow_run; conn_run = run a.conn_run b.conn_run;
    reassembly = Float.min a.reassembly b.reassembly; advance_us; step_us }

(* ---- the service and daemon layers ---- *)

type serve_costs = {
  parse_us : float;
  hash_us : float;
  lookup_us : float;
  insert_ms : float;
  trend_append_us : float;
  codec_us : float;
}

(* The daemon's per-request steps, called in process against a scratch
   store under [dir] holding [records]: request parse (frame sexp and
   batch expansion), canonical hash, store lookup, record insert, trend
   append, and the codecs the two ends run (request render, response
   render and parse). *)
let serve_costs ~dir ~form ~(records : Serve.Store.record list) =
  Span.with_ "serve unit costs" @@ fun _ ->
  let store = Serve.Store.open_store ~dir in
  List.iter (Serve.Store.insert store) records;
  let payload = Daemon.Protocol.render_request (Daemon.Protocol.Submit [ form ]) in
  let entries () =
    match Daemon.Protocol.parse_request payload with
    | Daemon.Protocol.Submit forms -> Serve.Batch.of_sexps ~base_dir:"." forms
    | _ -> assert false
  in
  let entry = List.hd (entries ()) in
  let hash = Serve.Service.hash_entry entry in
  let record =
    match records with
    | r :: _ -> r
    | [] -> invalid_arg "Layers.serve_costs: no records"
  in
  Serve.Store.insert store { record with Serve.Store.hash };
  let us = 1e6 in
  let n = 200 in
  let parse_us = us *. Stat.unit_cost ~units:n (fun () () ->
      for _ = 1 to n do ignore (entries ()) done) in
  let hash_us = us *. Stat.unit_cost ~units:n (fun () () ->
      for _ = 1 to n do ignore (Serve.Service.hash_entry entry) done) in
  let lookup_us = us *. Stat.unit_cost ~units:n (fun () () ->
      for _ = 1 to n do ignore (Serve.Store.lookup store ~hash) done) in
  let k = ref 0 in
  let insert_ms = 1e3 *. Stat.unit_cost ~reps:3 ~units:20 (fun () () ->
      for _ = 1 to 20 do
        incr k;
        Serve.Store.insert store
          { record with Serve.Store.hash = Digest.to_hex (Digest.string (string_of_int !k)) }
      done) in
  let trend = Serve.Trend.entry_of_record ~at_unix:0. ~cached:true record in
  let trend_append_us = us *. Stat.unit_cost ~units:n (fun () () ->
      for _ = 1 to n do Serve.Trend.append ~dir trend done) in
  let reply =
    Daemon.Protocol.Batch
      { Daemon.Protocol.outcomes =
          [ { Daemon.Protocol.kind = Daemon.Protocol.Hit; hash;
              label = entry.Serve.Batch.label;
              tail_mbps = record.Serve.Store.tail_mbps;
              opt_mbps = record.Serve.Store.opt_mbps;
              sim_events = record.Serve.Store.sim_events } ];
        entries = 1; hits = 1; fresh = 0; shared = 0; fresh_sim_events = 0 }
  in
  let codec_us = us *. Stat.unit_cost ~units:n (fun () () ->
      for _ = 1 to n do
        ignore (Daemon.Protocol.render_request (Daemon.Protocol.Submit [ form ]));
        ignore (Daemon.Protocol.parse_response (Daemon.Protocol.render_response reply))
      done) in
  { parse_us; hash_us; lookup_us; insert_ms; trend_append_us; codec_us }

(* ---- the ledger ---- *)

type core_costs = { make_ms : float; lp_ms : float; summary_ms : float }

type inputs = {
  units : units;  (* measured at the workload's operating point *)
  counts : counts;
  wall_s : float;  (* untraced wall time the counts were spent in *)
  core : core_costs;
  serve : serve_costs;
  trace_overhead_pct : float;
  words_per_pkt : float;
  hit_latency_us : float;  (* daemon workloads: median hit latency *)
  miss_overhead_ms : float;
  daemon_counters : int * int * int;  (* shared, rejected, protocol errors *)
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Every per-layer metric, in BENCHMARK.json order, plus the ledger
   lines printed beside them. *)
let metrics i =
  Span.with_ "ledger" @@ fun _ ->
  let u = i.units and c = i.counts in
  let dispatch = u.dispatch in
  let per r = r.wall /. float_of_int (max 1 r.units) *. 1e9 in
  let per_hop r = r.wall /. float_of_int (max 1 r.hops) *. 1e9 in
  let evs_per_hop r = ratio r.r_events r.hops in
  let fwd64 = u.fwd64 and fwd1500 = u.fwd1500 in
  (* Self cost of a packet-hop: forwarding less its scheduler events. *)
  let hop_self =
    Float.max 0.
      (((per_hop fwd64 -. (evs_per_hop fwd64 *. dispatch))
       +. (per_hop fwd1500 -. (evs_per_hop fwd1500 *. dispatch)))
      /. 2.)
  in
  let fl = u.flow_run and cn = u.conn_run in
  let self_per_seg r =
    per r
    -. (ratio r.r_events r.units *. dispatch)
    -. (ratio r.hops r.units *. hop_self)
  in
  let tcp_self = Float.max 0. (self_per_seg fl) in
  let mptcp_self = Float.max 0. (self_per_seg cn -. tcp_self) in
  let advance_us = u.advance_us and step_us = u.step_us in
  let s = i.serve in
  let ms x = x *. 1e-6 and us_ms x = x *. 1e-3 in
  let ledger =
    [ ("engine", ms (float_of_int c.events *. dispatch));
      ("netsim", ms (float_of_int c.pkts_enqueued *. hop_self));
      ("tcp", ms (float_of_int c.segments *. tcp_self));
      ("mptcp", ms (float_of_int c.segments *. mptcp_self));
      ("fluid", us_ms (float_of_int c.ode_steps *. step_us));
      ("core", float_of_int c.runs *. (i.core.lp_ms +. i.core.summary_ms));
      ( "serve",
        us_ms
          ((float_of_int (c.hits + c.misses)
           *. (s.parse_us +. s.hash_us +. s.lookup_us +. s.trend_append_us))
          +. (float_of_int c.misses *. s.insert_ms *. 1e3)) );
      ("daemon", us_ms (float_of_int c.requests *. s.codec_us)) ]
  in
  let wall_ms = i.wall_s *. 1e3 in
  let share layer = 100. *. List.assoc layer ledger /. wall_ms in
  let explained = List.fold_left (fun acc (_, v) -> acc +. v) 0. ledger in
  let shared, rejected, perrs = i.daemon_counters in
  let m = Report.metric in
  let count name v = m name (float_of_int v) "count" in
  let metrics =
    [ count "engine.events" c.events;
      m "engine.dispatch_ns" dispatch "ns";
      m "engine.share_pct" (share "engine") "%";
      m "packet.words_per_pkt" i.words_per_pkt "words/pkt";
      m "packet.recycle_ratio" (ratio c.pool_recycled c.pool_acquired) "ratio";
      count "netsim.pkts_enqueued" c.pkts_enqueued;
      m "netsim.drop_ratio" (ratio c.pkts_dropped c.pkts_enqueued) "ratio";
      m "netsim.fwd_ns_64B" (per_hop fwd64) "ns";
      m "netsim.fwd_ns_1500B" (per_hop fwd1500) "ns";
      m "netsim.share_pct" (share "netsim") "%";
      count "tcp.segments_sent" c.segments;
      count "tcp.acks" c.acks;
      count "tcp.retransmits" c.retransmits;
      count "tcp.timeouts" c.timeouts;
      m "tcp.retransmit_ratio" (ratio c.retransmits c.segments) "ratio";
      m "tcp.cc_ack_ns" u.cc_ack "ns";
      m "tcp.flow_ns_per_seg" (per fl) "ns";
      m "tcp.share_pct" (share "tcp") "%";
      count "mptcp.sched_grants" c.grants;
      m "mptcp.grant_ratio" (ratio c.grants (c.grants + c.defers)) "ratio";
      count "mptcp.reinjections" c.reinjections;
      count "mptcp.subflow_churn" c.churn;
      m "mptcp.reassembly_ns" u.reassembly "ns";
      m "mptcp.conn_ns_per_seg" (per cn) "ns";
      m "mptcp.share_pct" (share "mptcp") "%";
      count "fluid.ticks" c.ticks;
      count "fluid.ode_steps" c.ode_steps;
      m "fluid.steps_per_tick" (ratio c.ode_steps c.ticks) "ratio";
      m "fluid.advance_us" advance_us "us";
      m "fluid.share_pct" (share "fluid") "%";
      m "core.make_ms" i.core.make_ms "ms";
      m "core.lp_ms" i.core.lp_ms "ms";
      m "core.summary_ms" i.core.summary_ms "ms";
      m "core.residual_pct" (100. *. (wall_ms -. explained) /. wall_ms) "%";
      m "core.trace_overhead_pct" i.trace_overhead_pct "%";
      m "serve.parse_us" s.parse_us "us";
      m "serve.hash_us" s.hash_us "us";
      m "serve.lookup_us" s.lookup_us "us";
      m "serve.insert_ms" s.insert_ms "ms";
      m "serve.trend_append_us" s.trend_append_us "us";
      m "serve.hit_ratio" (ratio c.hits c.requests) "ratio";
      m "serve.share_pct" (share "serve") "%";
      m "daemon.codec_us" s.codec_us "us";
      m "daemon.transport_us"
        (if i.hit_latency_us > 0. then
           i.hit_latency_us
           -. (s.parse_us +. s.hash_us +. s.lookup_us +. s.trend_append_us
              +. s.codec_us)
         else 0.)
        "us";
      m "daemon.miss_overhead_ms" i.miss_overhead_ms "ms";
      m "daemon.share_pct" (share "daemon") "%";
      count "daemon.shared" shared;
      count "daemon.rejected" rejected;
      count "daemon.protocol_errors" perrs ]
  in
  let lines =
    Printf.sprintf "ledger over %.1f ms of untraced wall time:" wall_ms
    :: List.map
         (fun (layer, v) ->
           Printf.sprintf "  %-8s %10.2f ms  %6.2f %%" layer v
             (100. *. v /. wall_ms))
         ledger
    @ [ Printf.sprintf "  %-8s %10.2f ms  %6.2f %%" "residual"
          (wall_ms -. explained)
          (100. *. (wall_ms -. explained) /. wall_ms);
        Printf.sprintf
          "  self costs: hop %.1f ns, tcp %.1f ns/seg, mptcp %.1f ns/seg, \
           ODE step %.2f us"
          hop_self tcp_self mptcp_self step_us ]
  in
  (metrics, lines)
