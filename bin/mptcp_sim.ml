(* Command-line front end for the MPTCP overlapping-paths reproduction.

   Subcommands:
     paths    - show the paper's network, paths, and their overlaps
     lp-opt   - solve the Fig. 1c throughput LP
     run      - run one measured scenario with full control of parameters
     figures  - regenerate the paper's figures (2a, 2b, 2c, 1, 1c)
     sweep    - the convergence summary table (cc x default path)
     serve    - run scenario batches against the content-addressed cache,
                or stay resident with --listen and serve a socket
     submit   - send batches/control requests to a serve --listen daemon
     report   - render the trend table from the store's history
     cache    - inspect or clear the result store *)

open Cmdliner

(* A value the library checks reject (a bad --default, --sampling,
   --tick-ms, --background-flows, --horizon or --samples) is a
   one-line usage error with exit 2, as a malformed batch is for
   serve, not an uncaught exception. *)
let or_usage_error f =
  try f ()
  with Invalid_argument msg ->
    Format.eprintf "%s@." msg;
    exit 2

(* --- shared argument definitions --- *)

let cc_arg =
  let parse s =
    match Mptcp.Algorithm.of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown congestion control %S" s))
  in
  let print fmt a = Mptcp.Algorithm.pp fmt a in
  Arg.conv (parse, print)

let scheduler_arg =
  let parse s =
    match Mptcp.Scheduler.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let print fmt p =
    Format.pp_print_string fmt (Mptcp.Scheduler.policy_name p)
  in
  Arg.conv (parse, print)

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let duration_t =
  Arg.(
    value
    & opt float 4.0
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated duration.")

let sampling_t =
  Arg.(
    value
    & opt float 0.1
    & info [ "sampling" ] ~docv:"SECONDS"
        ~doc:"Sampling window (the paper uses 0.1 and 0.01).")

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH"
        ~doc:
          "Also write the command's data as CSV: the time series for run \
           and fluid, the summary table for sweep and scaling.")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulations (default: the \
           machine's recommended domain count).  Results are identical \
           for every value; 1 disables parallelism.")

let check_jobs = function
  | Some j when j < 1 ->
    Format.eprintf "--jobs must be >= 1@.";
    exit 2
  | jobs -> jobs

(* --- paths --- *)

let paths_cmd =
  let run () =
    let f = Core.Figures.fig1 () in
    print_string f.Core.Figures.chart;
    let topo = Core.Paper_net.topology () in
    let ps = Core.Paper_net.paths topo in
    List.iteri
      (fun i p ->
        List.iteri
          (fun j q ->
            if j > i then
              Format.printf "Paths %d and %d share %d link(s)@," (i + 1)
                (j + 1)
                (List.length (Netgraph.Path.shared_links p q)))
          ps)
      ps;
    Format.printf "@."
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Show the paper's network and path overlaps")
    Term.(const run $ const ())

(* --- lp-opt --- *)

let lp_opt_cmd =
  let run () =
    let f = Core.Figures.fig1c () in
    print_string f.Core.Figures.chart
  in
  Cmd.v
    (Cmd.info "lp-opt" ~doc:"Solve the Fig. 1c throughput maximisation LP")
    Term.(const run $ const ())

(* --- run --- *)

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let run_cmd =
  let exec cc default scheduler duration sampling seed buffer csv ptrace audit
      trace_json trace_csv metrics_path profile topo_file xp_file background
      background_cc background_flows background_mbps background_rtt_ms tick_ms
      =
    let want_trace = trace_json <> None || trace_csv <> None in
    let obs =
      if want_trace || metrics_path <> None then
        Some { Obs.Collect.trace = want_trace; metrics = metrics_path <> None }
      else None
    in
    let spec, title =
      match (topo_file, xp_file) with
      | Some topo_file, Some xp_file ->
        (* Scenario as data: the experiment file fixes everything except
           the output/audit switches, which stay CLI-controlled. *)
        let _topo, spec =
          try Core.Expfile.load ~topo_file ~xp_file
          with Events.Sexp.Parse_error msg | Invalid_argument msg ->
            Format.eprintf "%s@." msg;
            exit 2
        in
        ( {
            spec with
            Core.Scenario.audit;
            obs;
            trace_limit = Option.map (fun _ -> 10_000) ptrace;
          },
          Printf.sprintf "experiment %s (cc=%s, Mbps)"
            (Filename.basename xp_file)
            (Mptcp.Algorithm.name spec.Core.Scenario.cc) )
      | None, None ->
        let topo = Core.Paper_net.topology () in
        let spec =
          or_usage_error (fun () ->
              let paths = Core.Paper_net.tagged_paths ~default topo in
              Core.Scenario.make ~topo ~paths ~cc ~scheduler
                ~duration:(Engine.Time.of_float_s duration)
                ~sampling:(Engine.Time.of_float_s sampling)
                ~seed ?send_buffer:buffer
                ?trace_limit:(Option.map (fun _ -> 10_000) ptrace)
                ~audit ?obs ())
        in
        ( spec,
          Printf.sprintf "MPTCP-%s on the paper network (Mbps)"
            (String.uppercase_ascii (Mptcp.Algorithm.name cc)) )
      | _ ->
        Format.eprintf
          "--topology and --experiment must be given together@.";
        exit 2
    in
    (* --background N adds N fluid flow classes between the connection's
       endpoints (shortest path), on top of whatever the experiment file
       declared; the classes start at t=0 and run for the whole
       scenario. *)
    let spec =
      if background = 0 then spec
      else begin
        let src, dst =
          match spec.Core.Scenario.paths with
          | (_, p) :: _ -> (Netgraph.Path.src p, Netgraph.Path.dst p)
          | [] -> assert false
        in
        let bg_cc =
          match String.lowercase_ascii background_cc with
          | "cbr" -> None
          | name -> (
            match Mptcp.Algorithm.of_string name with
            | Some a when Fluid.Controller.of_algorithm a <> None -> Some a
            | Some _ ->
              Format.eprintf "--background-cc %s has no fluid model@." name;
              exit 2
            | None ->
              Format.eprintf "unknown --background-cc %s@." name;
              exit 2)
        in
        let ev =
          Events.Event.at
            (Events.Event.Background_start
               { src; dst; classes = background; flows = background_flows;
                 cc = bg_cc;
                 rate_bps = int_of_float (background_mbps *. 1e6);
                 rtt = Engine.Time.of_float_s (background_rtt_ms /. 1e3) })
            ~at:Engine.Time.zero
        in
        let spec =
          { spec with
            Core.Scenario.events = spec.Core.Scenario.events @ [ ev ];
            hybrid_tick = Engine.Time.of_float_s (tick_ms /. 1e3) }
        in
        or_usage_error (fun () -> Core.Scenario.validate spec);
        spec
      end
    in
    let wall0 = Unix.gettimeofday () in
    let result = Core.Scenario.run spec in
    let wall_s = Unix.gettimeofday () -. wall0 in
    let named =
      List.map
        (fun (tag, s) -> (Printf.sprintf "path%d" tag, s))
        result.Core.Scenario.per_tag
      @ [ ("total", result.Core.Scenario.total) ]
    in
    print_string (Measure.Render.ascii_chart ~y_max:100.0 ~title named);
    Format.printf "%a@." Core.Scenario.pp_summary result;
    Format.printf "LP optimum %.1f Mbps; measured tail %.1f Mbps@."
      (Core.Scenario.optimal_total_mbps result)
      (Core.Scenario.tail_mean_mbps result);
    List.iter
      (fun (tag, v) -> Format.printf "  path %d tail: %.1f Mbps@." tag v)
      (Core.Scenario.per_path_tail_mbps result);
    (match Core.Scenario.time_to_optimum_s result with
    | Some t -> Format.printf "time to optimum: %.2f s@." t
    | None -> Format.printf "optimum not reached within the run@.");
    (match csv with
    | Some path ->
      Measure.Render.write_file ~path (Measure.Render.series_csv named);
      Format.printf "wrote %s@." path
    | None -> ());
    (match (ptrace, result.Core.Scenario.trace_text) with
    | Some path, Some text ->
      Measure.Render.write_file ~path text;
      Format.printf "wrote packet trace to %s@." path
    | _ -> ());
    (match result.Core.Scenario.obs with
    | Some o ->
      (match (trace_json, Obs.Collect.trace o) with
      | Some path, Some tr ->
        with_out path (Obs.Trace.write_chrome tr);
        Format.printf
          "wrote Chrome trace to %s (%d events kept, %d overwritten)@." path
          (List.length (Obs.Trace.events tr))
          (Obs.Trace.dropped tr)
      | _ -> ());
      (match (trace_csv, Obs.Collect.trace o) with
      | Some path, Some tr ->
        with_out path (Obs.Trace.write_csv tr);
        Format.printf "wrote trace CSV to %s@." path
      | _ -> ());
      (match (metrics_path, Obs.Collect.metrics o) with
      | Some path, Some m ->
        with_out path (Obs.Metrics.write_csv m);
        Format.printf "wrote metrics CSV to %s (%d snapshots)@." path
          (List.length (Obs.Metrics.snapshots m))
      | _ -> ())
    | None -> ());
    if profile then
      Format.printf
        "profile: wall %.3f s, %d events dispatched, %.0f events/s@." wall_s
        result.Core.Scenario.events_processed
        (if wall_s > 0.0 then
           float_of_int result.Core.Scenario.events_processed /. wall_s
         else 0.0);
    match result.Core.Scenario.audit with
    | None -> ()
    | Some rep ->
      Format.printf "%a@." Audit.pp_report rep;
      if rep.Audit.total_violations > 0 then exit 1
  in
  let cc_t =
    Arg.(
      value
      & opt cc_arg Mptcp.Algorithm.Cubic
      & info [ "cc" ] ~docv:"ALGO"
          ~doc:"Congestion control: cubic, reno, lia, olia, balia, ewtcp.")
  in
  let default_t =
    Arg.(
      value
      & opt int 2
      & info [ "default" ] ~docv:"PATH"
          ~doc:"Which path (1-3) is the default subflow.")
  in
  let sched_t =
    Arg.(
      value
      & opt scheduler_arg Mptcp.Scheduler.Min_rtt
      & info [ "scheduler" ] ~docv:"POLICY"
          ~doc:"Subflow scheduler: minrtt, roundrobin, redundant.")
  in
  let buffer_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "send-buffer" ] ~docv:"BYTES"
          ~doc:"Connection-level send buffer cap (default unlimited).")
  in
  let ptrace_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "packet-trace" ] ~docv:"PATH"
          ~doc:"Write a tcpdump-style packet trace of the connection.")
  in
  let trace_json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Write a structured Chrome trace-event JSON file (loadable in \
             about://tracing or ui.perfetto.dev): event-loop dispatches, \
             link enqueue/drop/deliver, TCP cwnd and state changes, MPTCP \
             scheduler decisions.")
  in
  let trace_csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-csv" ] ~docv:"PATH"
          ~doc:"Write the same structured trace as CSV.")
  in
  let metrics_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Write the metrics registry (counters, gauges, histograms \
             sampled every --sampling period) as CSV.")
  in
  let profile_t =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print wall time and event-loop throughput after the run.")
  in
  let audit_t =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Run the invariant checker alongside the simulation (byte \
             conservation, queue occupancy, sequence monotonicity, LP \
             feasibility) and print its report; exits 1 on any violation.")
  in
  let topo_file_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "t"; "topology" ] ~docv:"FILE"
          ~doc:
            "Topology file (S-expression).  Replaces the paper network; \
             requires --experiment.")
  in
  let xp_file_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "x"; "experiment" ] ~docv:"FILE"
          ~doc:
            "Experiment file (S-expression): paths, congestion control, \
             transfer size and timed events (failover, capacity ramps, \
             subflow churn, cross-traffic).  Overrides the scenario \
             flags; requires --topology.")
  in
  let background_t =
    Arg.(
      value & opt int 0
      & info [ "background" ] ~docv:"CLASSES"
          ~doc:
            "Add this many fluid background flow classes between the \
             connection's endpoints (hybrid co-simulation: the classes are \
             ODE fields sharing the link queues, not packet flows).  \
             Default 0 (off).")
  in
  let background_cc_t =
    Arg.(
      value & opt string "reno"
      & info [ "background-cc" ] ~docv:"ALGO"
          ~doc:
            "Window law of the background classes: reno, cubic, lia, olia, \
             or cbr for open-loop constant-rate classes.")
  in
  let background_flows_t =
    Arg.(
      value & opt int 10
      & info [ "background-flows" ] ~docv:"N"
          ~doc:"Identical flows aggregated per background class.")
  in
  let background_mbps_t =
    Arg.(
      value & opt float 1.0
      & info [ "background-mbps" ] ~docv:"MBPS"
          ~doc:"Per-flow rate of cbr background classes.")
  in
  let background_rtt_ms_t =
    Arg.(
      value & opt float 20.0
      & info [ "background-rtt-ms" ] ~docv:"MS"
          ~doc:"Mean propagation RTT of the background classes.")
  in
  let tick_ms_t =
    Arg.(
      value & opt float 1.0
      & info [ "tick-ms" ] ~docv:"MS"
          ~doc:"Coarse-tick period of the hybrid fluid driver.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one MPTCP scenario on the paper's network, or an experiment \
          file with -t/-x")
    Term.(
      const exec $ cc_t $ default_t $ sched_t $ duration_t $ sampling_t
      $ seed_t $ buffer_t $ csv_t $ ptrace_t $ audit_t $ trace_json_t
      $ trace_csv_t $ metrics_t $ profile_t $ topo_file_t $ xp_file_t
      $ background_t $ background_cc_t $ background_flows_t
      $ background_mbps_t $ background_rtt_ms_t $ tick_ms_t)

(* --- fluid --- *)

let fluid_cmd =
  let exec cc default validate timing csv horizon samples tol =
    let topo = Core.Paper_net.topology () in
    let paths =
      or_usage_error (fun () -> Core.Paper_net.tagged_paths ~default topo)
    in
    let kinds =
      match String.lowercase_ascii cc with
      | "all" ->
        [ Fluid.Controller.Cubic; Fluid.Controller.Lia; Fluid.Controller.Olia ]
      | s -> (
        match Fluid.Controller.of_string s with
        | Some k -> [ k ]
        | None ->
          Format.eprintf "unknown fluid controller %S (cubic, reno, lia, olia, all)@." s;
          exit 2)
    in
    let spec_of kind =
      Core.Scenario.make ~topo ~paths ~cc:(Fluid.Controller.to_algorithm kind)
        ()
    in
    let failures = ref 0 in
    List.iter
      (fun kind ->
        let spec = spec_of kind in
        let wall0 = Unix.gettimeofday () in
        let report =
          if validate then Validate.against_sim ~tol spec
          else Validate.equilibrium ~tol spec
        in
        let wall_s = Unix.gettimeofday () -. wall0 in
        match report with
        | Error msg ->
          Format.eprintf "fluid %s: %s@." (Fluid.Controller.name kind) msg;
          incr failures
        | Ok rep ->
          Format.printf "%a@." Validate.pp rep;
          if timing then Format.printf "wall time: %.3f ms@." (wall_s *. 1e3);
          Format.printf "@.";
          if not rep.Validate.diag.Fluid.Equilibrium.converged then
            incr failures)
      kinds;
    (match (csv, kinds) with
    | None, _ -> ()
    | Some path, [ kind ] ->
      let m =
        Fluid.Model.compile topo ~paths:(List.map snd paths) ~controller:kind
          ()
      in
      let samples', _stats =
        or_usage_error (fun () -> Fluid.Trajectory.run m ~horizon ~samples)
      in
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      Fluid.Trajectory.write_csv m ppf samples';
      Format.pp_print_flush ppf ();
      Measure.Render.write_file ~path (Buffer.contents buf);
      Format.printf "wrote %s@." path
    | Some _, _ ->
      Format.eprintf "--csv needs a single --cc (not all)@.";
      exit 2);
    if !failures > 0 then exit 1
  in
  let cc_t =
    Arg.(
      value & opt string "all"
      & info [ "cc" ] ~docv:"ALGO"
          ~doc:"Fluid controller: cubic, reno, lia, olia, or all.")
  in
  let default_t =
    Arg.(
      value & opt int 2
      & info [ "default" ] ~docv:"PATH"
          ~doc:"Which path (1-3) is the default subflow.")
  in
  let validate_t =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Also run the packet-level simulator on the same scenario and \
             report per-path fluid-vs-sim deviations.")
  in
  let timing_t =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Print wall time per solve (off by default so output is \
             byte-stable for the CLI smoke tests).")
  in
  let horizon_t =
    Arg.(
      value & opt float 4.0
      & info [ "horizon" ] ~docv:"SECONDS"
          ~doc:"Trajectory length for --csv.")
  in
  let samples_t =
    Arg.(
      value & opt int 200
      & info [ "samples" ] ~docv:"N" ~doc:"Trajectory samples for --csv.")
  in
  let tol_t =
    Arg.(
      value & opt float 1e-4
      & info [ "tol" ] ~docv:"X"
          ~doc:"Equilibrium residual target (state units per second).")
  in
  Cmd.v
    (Cmd.info "fluid"
       ~doc:
         "Solve the fluid (ODE) model of the paper scenario: per-path \
          equilibrium rates vs the LP optimum, optional simulator \
          cross-validation and trajectory CSV")
    Term.(
      const exec $ cc_t $ default_t $ validate_t $ timing_t $ csv_t
      $ horizon_t $ samples_t $ tol_t)

(* --- serve / report / cache: the scenario service --- *)

let store_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Result-store directory (created if missing): content-addressed \
           records under objects/, the version file, and the append-only \
           trend.log.")

let serve_cmd =
  let exec store batches no_cache invalidate perf jobs listen watch max_queue
      gc_max_bytes gc_interval =
    let jobs = check_jobs jobs in
    match listen with
    | Some socket_path ->
      (* daemon mode: stay resident and serve Protocol requests *)
      if batches <> [] then begin
        Format.eprintf
          "serve --listen runs as a daemon; submit batches with 'mptcp_sim \
           submit --socket %s BATCH.sexp'@."
          socket_path;
        exit 2
      end;
      if no_cache then begin
        Format.eprintf "serve --listen does not support --no-cache@.";
        exit 2
      end;
      if invalidate then begin
        let st = Serve.Store.open_store ~dir:store in
        Format.printf "invalidated %d cached records@."
          (Serve.Store.invalidate st)
      end;
      let conf =
        {
          (Daemon.default_conf ~socket_path ~store_dir:store) with
          Daemon.jobs;
          max_queue;
          gc_max_bytes;
          gc_interval_s = gc_interval;
          watch_dir = watch;
        }
      in
      (try Daemon.run conf
       with Failure msg ->
         Format.eprintf "serve: %s@." msg;
         exit 1)
    | None ->
    if watch <> None then begin
      Format.eprintf "serve --watch requires --listen@.";
      exit 2
    end;
    if batches = [] then begin
      Format.eprintf "serve: no batch files given@.";
      exit 2
    end;
    let st = Serve.Store.open_store ~dir:store in
    if invalidate then
      Format.printf "invalidated %d cached records@." (Serve.Store.invalidate st);
    List.iter
      (fun batch_file ->
        let entries =
          try Serve.Batch.load batch_file with
          | Events.Sexp.Parse_error msg ->
            Format.eprintf "%s: %s@." batch_file msg;
            exit 2
          | Invalid_argument msg ->
            Format.eprintf "%s: %s@." batch_file msg;
            exit 2
        in
        let outcomes, stats =
          Serve.Service.run_batch ?jobs ~cache:(not no_cache) ~store:st entries
        in
        Format.printf "=== batch %s ===@." (Filename.basename batch_file);
        List.iter
          (fun ((e : Serve.Batch.entry), outcome) ->
            let kind, (r : Serve.Store.record) =
              match outcome with
              | Serve.Service.Hit r -> ("hit  ", r)
              | Serve.Service.Fresh r -> ("fresh", r)
              | Serve.Service.Shared r -> ("shared", r)
            in
            Format.printf "%s %s %-24s tail %.1f / opt %.1f Mbps%s@." kind
              (Core.Canon.short r.Serve.Store.hash)
              (Serve.Store.sanitize_atom e.Serve.Batch.label)
              r.Serve.Store.tail_mbps
              r.Serve.Store.opt_mbps
              (if perf then Printf.sprintf "  (%.3f s)" r.Serve.Store.wall_s
               else ""))
          outcomes;
        (* shared only when nonzero: a batch without repeats has a
           hits-and-fresh summary *)
        Format.printf
          "batch: %d entries, %d hits, %d fresh%s, %d simulation events%s@."
          stats.Serve.Service.entries stats.Serve.Service.hits
          stats.Serve.Service.fresh
          (if stats.Serve.Service.shared > 0 then
             Printf.sprintf ", %d shared" stats.Serve.Service.shared
           else "")
          stats.Serve.Service.fresh_sim_events
          (if perf then
             Printf.sprintf " (wall %.3f s)" stats.Serve.Service.wall_s
           else ""))
      batches
  in
  let batches_t =
    Arg.(value & pos_all file [] & info [] ~docv:"BATCH.sexp")
  in
  let no_cache_t =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Skip cache lookups: re-simulate every entry and overwrite its \
             stored record (results still land in the store and the trend \
             log).")
  in
  let invalidate_t =
    Arg.(
      value & flag
      & info [ "invalidate" ]
          ~doc:"Delete every cached record before processing the batches.")
  in
  let perf_t =
    Arg.(
      value & flag
      & info [ "perf" ]
          ~doc:
            "Also print wall-clock timings (off by default so output is \
             byte-stable for the golden tests).")
  in
  let listen_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"SOCK"
          ~doc:
            "Stay resident: bind a Unix-domain socket and serve submissions \
             from 'mptcp_sim submit' over one warm domain pool.  Identical \
             concurrent submissions share a single simulation; SIGTERM (or \
             a submit --drain) drains cleanly.")
  in
  let watch_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "watch" ] ~docv:"DIR"
          ~doc:
            "With --listen: also poll DIR and submit every *.sexp batch \
             file dropped there, renaming it .done (or .err) once served.")
  in
  let max_queue_t =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "With --listen: reject submissions (typed busy reply) once this \
             many entries are in flight.")
  in
  let gc_max_bytes_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "gc-max-bytes" ] ~docv:"N"
          ~doc:
            "With --listen: keep the store under N bytes with a periodic \
             LRU eviction pass.")
  in
  let gc_interval_t =
    Arg.(
      value & opt float 5.0
      & info [ "gc-interval" ] ~docv:"SECONDS"
          ~doc:"Period of the --gc-max-bytes pass.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run scenario batches against the content-addressed result cache \
          (hits are served from the store with zero simulation work, misses \
          run on the domain pool and are stored; every outcome is appended \
          to the trend log), or stay resident with --listen and serve \
          submissions over a socket")
    Term.(
      const exec $ store_t $ batches_t $ no_cache_t $ invalidate_t $ perf_t
      $ jobs_t $ listen_t $ watch_t $ max_queue_t $ gc_max_bytes_t
      $ gc_interval_t)

(* The outcome of one LRU pass, from `cache --gc` and `submit --gc`. *)
let print_gc ~budget (g : Serve.Store.gc_stats) =
  Format.printf
    "gc: evicted %d of %d records (%dB), kept %d (%dB <= %dB budget)@."
    g.evicted g.examined g.evicted_bytes g.kept g.kept_bytes budget

(* --- submit: client side of the resident daemon --- *)

let submit_cmd =
  let exec socket batches status stats invalidate gc_bytes drain =
    let rpc req =
      match Daemon.Protocol.call_once ~socket req with
      | resp -> resp
      | exception Daemon.Protocol.Protocol_error msg ->
        Format.eprintf "submit: protocol error: %s@." msg;
        exit 1
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "submit: cannot reach a daemon on %s: %s@." socket
          (Unix.error_message e);
        exit 1
    in
    let fail_reply kind msg =
      Format.eprintf "submit: daemon error (%s): %s@."
        (Daemon.Protocol.error_kind_name kind)
        msg;
      exit 1
    in
    let nothing_else =
      (not status) && (not stats) && (not invalidate) && (not drain)
      && gc_bytes = None
    in
    if batches = [] && nothing_else then begin
      Format.eprintf "submit: no batch files and no control flags given@.";
      exit 2
    end;
    List.iter
      (fun batch_file ->
        let forms =
          try Events.Sexp.load batch_file with
          | Events.Sexp.Parse_error msg ->
            Format.eprintf "%s: %s@." batch_file msg;
            exit 2
          | Sys_error msg ->
            Format.eprintf "%s@." msg;
            exit 2
        in
        match rpc (Daemon.Protocol.Submit forms) with
        | Daemon.Protocol.Batch b ->
          Format.printf "=== batch %s ===@." (Filename.basename batch_file);
          List.iter
            (fun (o : Daemon.Protocol.outcome) ->
              Format.printf "%-6s %s %-24s tail %.1f / opt %.1f Mbps@."
                (Daemon.Protocol.outcome_kind_name o.Daemon.Protocol.kind)
                (Core.Canon.short o.Daemon.Protocol.hash)
                o.Daemon.Protocol.label o.Daemon.Protocol.tail_mbps
                o.Daemon.Protocol.opt_mbps)
            b.Daemon.Protocol.outcomes;
          Format.printf
            "batch: %d entries, %d hits, %d fresh, %d shared, %d simulation \
             events@."
            b.Daemon.Protocol.entries b.Daemon.Protocol.hits
            b.Daemon.Protocol.fresh b.Daemon.Protocol.shared
            b.Daemon.Protocol.fresh_sim_events
        | Daemon.Protocol.Error (kind, msg) -> fail_reply kind msg
        | _ ->
          Format.eprintf "submit: unexpected reply to a batch@.";
          exit 1)
      batches;
    if invalidate then begin
      match rpc Daemon.Protocol.Invalidate with
      | Daemon.Protocol.Invalidated n ->
        Format.printf "invalidated %d cached records@." n
      | Daemon.Protocol.Error (kind, msg) -> fail_reply kind msg
      | _ ->
        Format.eprintf "submit: unexpected reply to invalidate@.";
        exit 1
    end;
    (match gc_bytes with
    | None -> ()
    | Some budget -> (
      match rpc (Daemon.Protocol.Gc budget) with
      | Daemon.Protocol.Gc_done g -> print_gc ~budget g
      | Daemon.Protocol.Error (kind, msg) -> fail_reply kind msg
      | _ ->
        Format.eprintf "submit: unexpected reply to gc@.";
        exit 1));
    if status then begin
      match rpc Daemon.Protocol.Status with
      | Daemon.Protocol.Status_reply s ->
        Format.printf
          "daemon pid %d: draining %b, queue %d, inflight %d, %d pool \
           domains, %d records@."
          s.Daemon.Protocol.pid s.Daemon.Protocol.draining
          s.Daemon.Protocol.queue_depth s.Daemon.Protocol.inflight
          s.Daemon.Protocol.pool_domains s.Daemon.Protocol.store_records
      | Daemon.Protocol.Error (kind, msg) -> fail_reply kind msg
      | _ ->
        Format.eprintf "submit: unexpected reply to status@.";
        exit 1
    end;
    if stats then begin
      match rpc Daemon.Protocol.Stats with
      | Daemon.Protocol.Stats_reply s ->
        Format.printf
          "daemon stats: %d submissions, %d entries (%d hits, %d fresh, %d \
           shared), %d rejected, %d protocol errors, %d gc runs@."
          s.Daemon.Protocol.submissions s.Daemon.Protocol.served_entries
          s.Daemon.Protocol.s_hits s.Daemon.Protocol.s_fresh
          s.Daemon.Protocol.s_shared s.Daemon.Protocol.rejected
          s.Daemon.Protocol.protocol_errors s.Daemon.Protocol.gc_runs;
        Format.printf "store: %d records (%dB), %d trend entries@."
          s.Daemon.Protocol.store_records s.Daemon.Protocol.store_bytes
          s.Daemon.Protocol.trend_entries
      | Daemon.Protocol.Error (kind, msg) -> fail_reply kind msg
      | _ ->
        Format.eprintf "submit: unexpected reply to stats@.";
        exit 1
    end;
    if drain then begin
      match rpc Daemon.Protocol.Drain with
      | Daemon.Protocol.Drained -> Format.printf "daemon drained@."
      | Daemon.Protocol.Error (kind, msg) -> fail_reply kind msg
      | _ ->
        Format.eprintf "submit: unexpected reply to drain@.";
        exit 1
    end
  in
  let socket_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"SOCK"
          ~doc:"The daemon's Unix-domain socket (serve --listen SOCK).")
  in
  let batches_t =
    Arg.(value & pos_all file [] & info [] ~docv:"BATCH.sexp")
  in
  let status_t =
    Arg.(
      value & flag
      & info [ "status" ]
          ~doc:"Print the daemon's lifecycle snapshot after any batches.")
  in
  let stats_t =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the daemon's service counters.")
  in
  let invalidate_t =
    Arg.(
      value & flag
      & info [ "invalidate" ] ~doc:"Ask the daemon to drop every record.")
  in
  let gc_bytes_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "gc" ] ~docv:"BYTES"
          ~doc:"Ask the daemon for one LRU pass down to this byte budget.")
  in
  let drain_t =
    Arg.(
      value & flag
      & info [ "drain" ]
          ~doc:
            "Drain the daemon: in-flight runs complete, the socket is \
             unlinked, the process exits.  Runs after everything else.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit batches (and control requests) to a resident 'serve \
          --listen' daemon over its socket")
    Term.(
      const exec $ socket_t $ batches_t $ status_t $ stats_t $ invalidate_t
      $ gc_bytes_t $ drain_t)

let report_cmd =
  let exec store last perf =
    let entries, skipped = Serve.Trend.load ~dir:store in
    Serve.Trend.report ~perf ?last Format.std_formatter entries;
    Format.pp_print_flush Format.std_formatter ();
    if skipped > 0 then
      Format.printf "(%d unparseable trend line(s) skipped)@." skipped
  in
  let last_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "last" ] ~docv:"N" ~doc:"Only the N most recent submissions.")
  in
  let perf_t =
    Arg.(
      value & flag
      & info [ "perf" ]
          ~doc:"Add wall-clock columns (non-deterministic; off by default).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render the per-scenario goodput/perf trend table from the store's \
          append-only history")
    Term.(const exec $ store_t $ last_t $ perf_t)

let cache_cmd =
  let exec store invalidate gc max_bytes =
    let st = Serve.Store.open_store ~dir:store in
    if invalidate then
      Format.printf "invalidated %d cached records@." (Serve.Store.invalidate st)
    else if gc then begin
      match max_bytes with
      | None ->
        Format.eprintf "cache --gc requires --max-bytes@.";
        exit 2
      | Some budget -> print_gc ~budget (Serve.Store.gc st ~max_bytes:budget)
    end
    else begin
      let entries, skipped = Serve.Trend.load ~dir:store in
      Format.printf
        "store %s: format v%d, %d cached records (%dB), %d trend entries@."
        store Serve.Store.format_version (Serve.Store.count st)
        (Serve.Store.bytes st) (List.length entries);
      if skipped > 0 then
        Format.printf "(%d unparseable trend line(s) skipped)@." skipped
    end
  in
  let invalidate_t =
    Arg.(
      value & flag
      & info [ "invalidate" ] ~doc:"Delete every cached record and exit.")
  in
  let gc_t =
    Arg.(
      value & flag
      & info [ "gc" ]
          ~doc:
            "Evict records, oldest first, until the store fits the \
             --max-bytes budget.")
  in
  let max_bytes_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"N"
          ~doc:"Byte budget the store must fit after --gc.")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect (or clear with --invalidate, shrink with --gc) the result \
          store")
    Term.(const exec $ store_t $ invalidate_t $ gc_t $ max_bytes_t)

(* --- figures --- *)

let figures_cmd =
  let exec fig seed csv_dir jobs =
    let jobs = check_jobs jobs in
    let figs =
      match fig with
      | "all" -> Core.Figures.all ~seed ?jobs ()
      | id -> (
        match Core.Figures.by_id id with
        | Some f -> [ f ~seed () ]
        | None ->
          Format.eprintf "unknown figure %S (use 1, 1c, 2a, 2b, 2c, all)@." id;
          exit 1)
    in
    List.iter
      (fun (f : Core.Figures.figure) ->
        Format.printf "=== %s ===@." f.Core.Figures.title;
        print_string f.Core.Figures.chart;
        Format.printf "@.";
        match csv_dir with
        | Some dir when f.Core.Figures.csv <> "" ->
          let path = Filename.concat dir ("fig" ^ f.Core.Figures.id ^ ".csv") in
          Measure.Render.write_file ~path f.Core.Figures.csv;
          Format.printf "wrote %s@." path
        | Some _ | None -> ())
      figs
  in
  let fig_t =
    Arg.(
      value & opt string "all"
      & info [ "fig" ] ~docv:"ID" ~doc:"Figure id: 1, 1c, 2a, 2b, 2c or all.")
  in
  let dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Write each figure's CSV here.")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures")
    Term.(const exec $ fig_t $ seed_t $ dir_t $ jobs_t)

(* --- scaling --- *)

let scaling_cmd =
  let exec max_n duration csv jobs =
    let jobs = check_jobs jobs in
    let rows =
      Core.Scaling.sweep
        ~ns:(List.init (max_n - 1) (fun i -> i + 2))
        ~duration:(Engine.Time.of_float_s duration)
        ?jobs ()
    in
    Format.printf "%a@." Core.Scaling.pp_table rows;
    match csv with
    | Some path ->
      Measure.Render.write_file ~path (Core.Scaling.to_csv rows);
      Format.printf "wrote %s@." path
    | None -> ()
  in
  let max_n_t =
    Arg.(
      value & opt int 5
      & info [ "max-n" ] ~docv:"N"
          ~doc:"Largest number of pairwise-overlapping paths.")
  in
  let duration_t =
    Arg.(
      value & opt float 15.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Per-run duration.")
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:
         "Generalise the paper's construction to n pairwise-overlapping           paths and measure achieved/optimal per algorithm")
    Term.(const exec $ max_n_t $ duration_t $ csv_t $ jobs_t)

(* --- sweep --- *)

let sweep_cmd =
  let exec duration seeds csv jobs =
    let jobs = check_jobs jobs in
    let rows =
      Core.Summary.sweep
        ~seeds:(List.init seeds (fun i -> i + 1))
        ~duration:(Engine.Time.of_float_s duration)
        ?jobs ()
    in
    Format.printf "%a@." Core.Summary.pp_table rows;
    Format.printf
      "(optimum %.0f Mbps; greedy Pareto point from Path 2: %.0f Mbps)@."
      Core.Paper_net.optimal_total_mbps
      (Core.Paper_net.greedy_total_mbps ~default:2);
    match csv with
    | Some path ->
      Measure.Render.write_file ~path (Core.Summary.to_csv rows);
      Format.printf "wrote %s@." path
    | None -> ()
  in
  let duration_t =
    Arg.(
      value & opt float 20.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Per-run duration.")
  in
  let seeds_t =
    Arg.(
      value & opt int 3
      & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per cell (1..N).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Convergence summary: congestion control x default path")
    Term.(const exec $ duration_t $ seeds_t $ csv_t $ jobs_t)

let () =
  let doc = "Reproduction of 'The Performance of MPTCP with Overlapping Paths'" in
  let info = Cmd.info "mptcp_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ paths_cmd; lp_opt_cmd; run_cmd; fluid_cmd; figures_cmd;
            sweep_cmd; scaling_cmd; serve_cmd; submit_cmd; report_cmd;
            cache_cmd ]))
