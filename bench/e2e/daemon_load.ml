(* The two daemon workloads.  The daemon is a child process, the
   repository's own [mptcp_sim serve --listen SOCK --store DIR --jobs 1],
   and load comes from two closed-loop client threads in this process,
   each with one persistent connection: every request waits for the
   previous reply.  All latencies are taken at the client, around the
   whole exchange. *)

type def = {
  name : string;
  miss_pct : int;  (* share of plan indices that are misses *)
}

let daemon_hits = { name = "daemon_hits"; miss_pct = 0 }
let daemon_mix = { name = "daemon_mix"; miss_pct = 5 }
let all = [ daemon_hits; daemon_mix ]
let clients = 2

(* ---- the child daemon ---- *)

type child = {
  pid : int;
  dir : string;
  socket : string;
  mutable running : bool;
}

(* Every child not yet reaped, for the exit handler; once it has run,
   [closing] stops a child spawned concurrently, on another thread. *)
let children : child list ref = ref []
let closing = Atomic.make false

let exe () = Filename.concat (Filename.dirname Sys.executable_name) Daemon_bin.path

let reap ?(timeout_s = 10.) c =
  let deadline = Stat.now () +. timeout_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Stat.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] c.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  if c.running then begin
    wait ();
    c.running <- false
  end;
  children := List.filter (fun c' -> c'.pid <> c.pid) !children

(* Last-resort cleanup: kill and reap every child still running.  Their
   directories go with the run's scratch directory. *)
let kill_all () =
  Atomic.set closing true;
  List.iter
    (fun c ->
      if c.running then (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap ~timeout_s:5. c)
    !children

let call c req = Daemon.Protocol.call_once ~socket:c.socket req

(* Drain over the socket, then wait for the process to exit. *)
let stop c =
  (try ignore (call c Daemon.Protocol.Drain) with _ -> ());
  reap c

(* Stop, and remove the daemon's socket and log (not its store). *)
let dispose c =
  stop c;
  Cfg.rm_rf c.dir

let spawn (cfg : Cfg.t) ~store =
  let dir = Filename.temp_dir ~temp_dir:cfg.tmp "daemon" "" in
  let socket = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let exe = exe () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--listen"; socket; "--store"; store; "--jobs"; "1" |]
          Unix.stdin log log)
  in
  let c = { pid; dir; socket; running = true } in
  children := c :: !children;
  if Atomic.get closing then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap c;
    failwith "daemon: spawned while the benchmark was exiting"
  end;
  let deadline = Stat.now () +. 30. in
  let rec ready () =
    match call c Daemon.Protocol.Status with
    | Daemon.Protocol.Status_reply _ -> ()
    | _ -> failwith "daemon: unexpected status reply"
    | exception (Unix.Unix_error _ as e) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        c.running <- false;
        failwith ("daemon exited before listening; see " ^ dir ^ "/daemon.log"));
      if Stat.now () > deadline then raise e;
      Unix.sleepf 0.0001;
      ready ()
  in
  ready ();
  c

(* Load the hot set into [store] with a daemon of its own: 9 grid
   batches of 8 specs, all simulated.  Returns every outcome, in order. *)
let load_hot_set cfg ~store =
  Span.with_ "load hot set" @@ fun _ ->
  let c = spawn cfg ~store in
  Fun.protect
    ~finally:(fun () -> dispose c)
    (fun () ->
      List.concat_map
        (fun grid ->
          match call c (Daemon.Protocol.Submit [ grid ]) with
          | Daemon.Protocol.Batch b when b.Daemon.Protocol.entries = Gen.hot_seeds ->
            b.Daemon.Protocol.outcomes
          | _ -> failwith "daemon: hot-set batch failed")
        (Gen.hot_grids ~quick:cfg.Cfg.quick ~seed:cfg.Cfg.seed))

(* ---- clients ---- *)

(* One client's record of the window. *)
type client = {
  all : Stat.Samples.t;
  done_at : Stat.Samples.t;  (* completion times of the replies *)
  hits : Stat.Samples.t;
  misses : Stat.Samples.t;
  mutable attempted : int;
  mutable failed : int;
  mutable bad_hits : int;  (* hit replies that report simulation work *)
  mutable sampled : (Events.Sexp.t * Daemon.Protocol.outcome) list;
  mutable fresh : string list;  (* hashes this client's requests simulated *)
}

let new_client () =
  { all = Stat.Samples.create (); done_at = Stat.Samples.create (); hits = Stat.Samples.create ();
    misses = Stat.Samples.create (); attempted = 0; failed = 0; bad_hits = 0;
    sampled = []; fresh = [] }

(* A span around [f] when [traced]. *)
let span ~traced ~req name f =
  if traced then Span.with_ ~req name (fun _ -> f ()) else f ()

(* One framed exchange, spanned as encode / socket call / decode. *)
let exchange fd ~traced ~req request =
  let span name f = span ~traced ~req name f in
  let payload = span "encode" (fun () -> Daemon.Protocol.render_request request) in
  let frame =
    span "socket call" (fun () ->
        Daemon.Protocol.write_frame fd payload;
        Daemon.Protocol.read_frame fd)
  in
  match frame with
  | Daemon.Protocol.Frame s -> span "decode" (fun () -> Daemon.Protocol.parse_response s)
  | _ -> raise (Daemon.Protocol.Protocol_error "reply frame lost")

let samples_wanted = 5

(* Closed loop over this client's plan from index [first] until
   [t_end].  The client connects before its first request, and again
   after a failure; a request that connects counts the connect in its
   latency.  A failure (a refused connect too) counts at +inf latency,
   closes the connection and waits 10 ms.  Only a client's first error
   is printed.  When spans are on, one request in four is traced, which
   keeps a window's spans within the recorder's limit while covering all
   of it. *)
let run_client (cfg : Cfg.t) ~miss_pct ~c ~socket ~first ~t_end st =
  let quick = cfg.quick and seed = cfg.seed in
  let fd = ref None in
  let connection () =
    match !fd with
    | Some x -> x
    | None ->
      let x = Daemon.Protocol.connect socket in
      fd := Some x;
      x
  in
  let close () =
    Option.iter (fun x -> try Unix.close x with Unix.Unix_error _ -> ()) !fd;
    fd := None
  in
  let i = ref first in
  while Stat.now () < t_end do
    let form = Gen.request_form ~quick ~seed (Gen.plan ~seed ~miss_pct ~client:c !i) in
    let req = (c * 100_000_000) + !i + 1 in
    let traced = !i land 3 = 0 in
    st.attempted <- st.attempted + 1;
    let a = Stat.now () in
    (match
       span ~traced ~req "request" (fun () ->
           exchange (connection ()) ~traced ~req (Daemon.Protocol.Submit [ form ]))
     with
    | Daemon.Protocol.Batch b ->
      let now = Stat.now () in
      let dt = now -. a in
      Stat.Samples.add st.all dt;
      Stat.Samples.add st.done_at now;
      let o = List.hd b.Daemon.Protocol.outcomes in
      (match o.Daemon.Protocol.kind with
      | Daemon.Protocol.Hit ->
        Stat.Samples.add st.hits dt;
        if b.Daemon.Protocol.fresh_sim_events <> 0 then st.bad_hits <- st.bad_hits + 1
      | Daemon.Protocol.Fresh | Daemon.Protocol.Shared ->
        Stat.Samples.add st.misses dt;
        if o.Daemon.Protocol.kind = Daemon.Protocol.Fresh then
          st.fresh <- o.Daemon.Protocol.hash :: st.fresh);
      (* Verify misses where there are any, hits otherwise. *)
      let want = if miss_pct > 0 then o.Daemon.Protocol.kind <> Daemon.Protocol.Hit else true in
      if want && List.length st.sampled < samples_wanted then
        st.sampled <- (form, o) :: st.sampled
    | _ ->
      Stat.Samples.add st.all infinity;
      st.failed <- st.failed + 1
    | exception e ->
      if st.failed = 0 then Printf.eprintf "client %d: %s\n%!" c (Printexc.to_string e);
      Stat.Samples.add st.all infinity;
      st.failed <- st.failed + 1;
      close ();
      Unix.sleepf 0.01);
    incr i
  done;
  close ();
  !i

(* Both clients over one window; returns the next plan index of each. *)
let window cfg ~miss_pct ~socket ~firsts ~seconds sts =
  let t_end = Stat.now () +. seconds in
  let nexts = Array.make clients 0 in
  let parent = Span.current () in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            Span.with_ ~parent ("client " ^ string_of_int c) (fun _ ->
                nexts.(c) <-
                  run_client cfg ~miss_pct ~c ~socket ~first:firsts.(c) ~t_end sts.(c)))
          ())
  in
  List.iter Thread.join threads;
  nexts

let merge f sts = Array.concat (Array.to_list (Array.map (fun s -> Stat.Samples.to_array (f s)) sts))

(* Each sampled reply against an in-process run of the same spec. *)
let verify_samples sts =
  let sampled = List.concat_map (fun s -> s.sampled) (Array.to_list sts) in
  let bad =
    List.filter
      (fun (form, (o : Daemon.Protocol.outcome)) ->
        match Serve.Batch.of_sexps ~base_dir:"." [ form ] with
        | [ e ] ->
          (* as the service runs it: metrics layer on, whose snapshot
             events count in the run's total *)
          let r = Core.Scenario.run (Sim_load.with_metrics e.Serve.Batch.spec) in
          Core.Scenario.tail_mean_mbps r <> o.Daemon.Protocol.tail_mbps
          || r.Core.Scenario.events_processed <> o.Daemon.Protocol.sim_events
        | _ -> true)
      sampled
  in
  Report.check "sampled replies match in-process runs"
    (sampled <> [] && bad = [])
    (Printf.sprintf "%d sampled, %d differ" (List.length sampled) (List.length bad))

let hot_digest outcomes =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (o : Daemon.Protocol.outcome) ->
               Printf.sprintf "%s %.17g %d" o.Daemon.Protocol.hash
                 o.Daemon.Protocol.tail_mbps o.Daemon.Protocol.sim_events)
             outcomes)))

(* Set-up, as a user restarting the daemon over its store pays it:
   spawn it, wait until it answers, and get its first reply, a hit. *)
let setup (cfg : Cfg.t) ~store =
  Span.with_ "setup" @@ fun _ ->
  let c = spawn cfg ~store in
  match call c (Daemon.Protocol.Submit [ Gen.hot_form ~quick:cfg.quick ~seed:cfg.seed 0 ]) with
  | Daemon.Protocol.Batch { Daemon.Protocol.hits = 1; _ } -> c
  | _ -> failwith "daemon: first request on the loaded store did not hit"

let warm_up cfg c =
  ignore
    (window cfg ~miss_pct:0 ~socket:c.socket
       ~firsts:(Array.make clients 1_000_000)
       ~seconds:(if cfg.Cfg.quick then 0.1 else 0.5)
       (Array.init clients (fun _ -> new_client ())))

let common_checks sts =
  let failed = Array.fold_left (fun acc s -> acc + s.failed) 0 sts in
  let bad_hits = Array.fold_left (fun acc s -> acc + s.bad_hits) 0 sts in
  let replies = Array.map (fun s -> Stat.Samples.length s.done_at) sts in
  [ Report.check "every client got replies" (Array.for_all (fun n -> n > 1) replies)
      (String.concat ", " (Array.to_list (Array.map string_of_int replies)));
    Report.check "no request failed" (failed = 0) (Printf.sprintf "%d failed" failed);
    Report.check "hit replies report fresh_sim_events = 0" (bad_hits = 0)
      (Printf.sprintf "%d hits with simulation work" bad_hits);
    verify_samples sts ]

let stats c =
  match call c Daemon.Protocol.Stats with
  | Daemon.Protocol.Stats_reply s -> s
  | _ -> failwith "daemon: unexpected stats reply"

let ms x = 1e3 *. x

(* The timed run: the hot set loaded once, untimed; the median of 7
   set-ups on the loaded store, the last of which serves the rest; a
   short all-hit warm-up; then the window.

   Interference from the rest of the machine comes in bursts and drifts
   over tens of seconds, and slows a request's round trip through both
   processes more than it slows computation.  Throughput is therefore
   each client's rate in the fastest tenth of its window (its replies in
   consecutive groups of 200, the 90th percentile of the groups' rates),
   summed over the clients: the daemon's counterpart of a simulation
   input's fastest run. *)
let run (cfg : Cfg.t) def =
  let store = Filename.concat cfg.tmp "store" in
  let hot = load_hot_set cfg ~store in
  let rec setups k acc =
    let t0 = Stat.now () in
    let c = setup cfg ~store in
    let acc = (Stat.now () -. t0) :: acc in
    if k = 1 then (acc, c)
    else begin
      dispose c;
      setups (k - 1) acc
    end
  in
  let setups, c = setups (if cfg.quick then 1 else 7) [] in
  warm_up cfg c;
  let sts = Array.init clients (fun _ -> new_client ()) in
  ignore
    (window cfg ~miss_pct:def.miss_pct ~socket:c.socket
       ~firsts:(Array.make clients 0) ~seconds:cfg.seconds sts);
  let rss = Stat.peak_rss_mb (string_of_int c.pid) in
  let s = stats c in
  stop c;
  let all = merge (fun s -> s.all) sts in
  let hits = merge (fun s -> s.hits) sts and misses = merge (fun s -> s.misses) sts in
  let attempted = Array.fold_left (fun acc s -> acc + s.attempted) 0 sts in
  let failed = Array.fold_left (fun acc s -> acc + s.failed) 0 sts in
  let pct a p = ms (Stat.percentile a p) in
  {
    Report.workload = def.name;
    seed = cfg.seed;
    traced = false;
    attempted;
    failed;
    metrics =
      Report.e2e ~setup_s:(Stat.median (Array.of_list setups))
        ~throughput:
          (Array.fold_left
             (fun acc s -> acc +. Stat.fast_rate (Stat.Samples.to_array s.done_at))
             0. sts)
        ~rss;
    extras =
      [ (Report.metric "latency_p50_ms" (pct all 50.) "ms", "lower");
        (Report.metric "latency_p99_ms" (pct all 99.) "ms", "lower");
        (Report.metric "hit_p50_ms" (pct hits 50.) "ms", "lower");
        (Report.metric "hit_p99_ms" (pct hits 99.) "ms", "lower");
        (Report.metric "error_rate" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio", "lower") ]
      @ (if def.miss_pct > 0 then
           [ (Report.metric "miss_p50_ms" (pct misses 50.) "ms", "lower");
             (Report.metric "miss_p90_ms" (pct misses 90.) "ms", "lower");
             (Report.metric "misses" (float_of_int (Array.length misses)) "count", "higher");
             (Report.metric "shared" (float_of_int s.Daemon.Protocol.s_shared) "count", "higher") ]
         else []);
    checks = common_checks sts;
    digest = hot_digest hot;
  }

(* The traced run: half the window untraced, half with spans on (their
   hit medians give the tracing overhead); counts from the fresh
   records the daemon stored; the simulation layers' unit costs sampled
   before and after the window, the faster of each kept; the service's
   in process, against the daemon's store once it has drained. *)
let traced (cfg : Cfg.t) def =
  let store_dir = Filename.concat cfg.tmp "store" in
  let hot = load_hot_set cfg ~store:store_dir in
  let store = Serve.Store.open_store ~dir:store_dir in
  let records hashes =
    List.filter_map (fun h -> Serve.Store.lookup store ~hash:h) (List.sort_uniq compare hashes)
  in
  let hot_records = records (List.map (fun o -> o.Daemon.Protocol.hash) hot) in
  let form = Gen.hot_form ~quick:cfg.quick ~seed:cfg.seed 0 in
  let entry () = List.hd (Serve.Batch.of_sexps ~base_dir:"." [ form ]) in
  let spec = (entry ()).Serve.Batch.spec in
  let point =
    { Layers.net_config = spec.Core.Scenario.net_config;
      rto_cap = spec.Core.Scenario.rto_cap;
      send_buffer = spec.Core.Scenario.send_buffer;
      ccs = Array.to_list Gen.ccs;
      depth = Layers.mean_depth (Layers.sum (List.map Layers.of_record hot_records)) }
  in
  let units_before = Layers.measure point in
  let c = setup cfg ~store:store_dir in
  let tracing = Span.enabled () in
  Span.disable ();
  warm_up cfg c;
  let half = cfg.seconds /. 2. in
  let plain = Array.init clients (fun _ -> new_client ()) in
  let firsts =
    window cfg ~miss_pct:def.miss_pct ~socket:c.socket
      ~firsts:(Array.make clients 0) ~seconds:half plain
  in
  let sts = Array.init clients (fun _ -> new_client ()) in
  if tracing then Span.enable ~limit:!Span.cap;
  ignore
    (Span.with_ "traced window" (fun _ ->
         window cfg ~miss_pct:def.miss_pct ~socket:c.socket ~firsts
           ~seconds:half sts));
  let s = stats c in
  stop c;
  let units = Layers.fastest_of units_before (Layers.measure point) in
  let fresh = records (List.concat_map (fun s -> s.fresh) (Array.to_list sts)) in
  let hits = merge (fun s -> s.hits) sts and misses = merge (fun s -> s.misses) sts in
  let all = merge (fun s -> s.all) sts in
  let counts =
    { (Layers.sum (List.map Layers.of_record fresh)) with
      Layers.requests = Array.length all;
      hits = Array.length hits;
      misses = Array.length misses }
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. in
  let result = Core.Scenario.run spec in
  let one_ms f =
    1e3 *. Stat.unit_cost ~units:100 (fun () () -> for _ = 1 to 100 do ignore (f ()) done)
  in
  let core =
    { Layers.make_ms = one_ms entry;
      lp_ms = one_ms (fun () -> Core.Scenario.optimum_rates spec);
      summary_ms =
        one_ms (fun () ->
            Serve.Store.of_result ~hash:"" ~label:"" ~wall_s:0. ~alloc_words:0.
              ~created_unix:0. result) }
  in
  let serve =
    Layers.serve_costs
      ~dir:(Filename.temp_dir ~temp_dir:cfg.tmp "store" "")
      ~form ~records:hot_records
  in
  let hit_p50 a = Stat.median (merge (fun s -> s.hits) a) in
  let metrics, lines =
    Layers.metrics
      { Layers.units; counts;
        wall_s = Array.fold_left ( +. ) 0. all;
        core; serve;
        trace_overhead_pct = 100. *. (hit_p50 sts -. hit_p50 plain) /. hit_p50 plain;
        words_per_pkt =
          sum (fun r -> r.Serve.Store.alloc_words) fresh
          /. Float.max 1. (sum (fun r -> float_of_int r.Serve.Store.packets_created) fresh);
        hit_latency_us = 1e6 *. Stat.median hits;
        miss_overhead_ms =
          (if fresh = [] then 0.
           else
             ms (Stat.median misses)
             -. ms (Stat.median (Array.of_list (List.map (fun r -> r.Serve.Store.wall_s) fresh))));
        daemon_counters =
          (s.Daemon.Protocol.s_shared, s.Daemon.Protocol.rejected,
           s.Daemon.Protocol.protocol_errors) }
  in
  List.iter print_endline lines;
  let both = Array.append plain sts in
  {
    Report.workload = def.name;
    seed = cfg.seed;
    traced = true;
    attempted = Array.fold_left (fun acc s -> acc + s.attempted) 0 both;
    failed = Array.fold_left (fun acc s -> acc + s.failed) 0 both;
    metrics;
    extras = [];
    checks = common_checks both;
    digest = hot_digest hot;
  }
