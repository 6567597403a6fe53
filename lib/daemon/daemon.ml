module Protocol = Protocol

type conf = {
  socket_path : string;
  store_dir : string;
  base_dir : string;
  jobs : int option;
  max_queue : int;
  gc_max_bytes : int option;
  gc_interval_s : float;
  watch_dir : string option;
  log : bool;
}

let default_conf ~socket_path ~store_dir =
  {
    socket_path;
    store_dir;
    base_dir = Filename.current_dir_name;
    jobs = None;
    max_queue = 64;
    gc_max_bytes = None;
    gc_interval_s = 5.;
    watch_dir = None;
    log = true;
  }

(* Seconds between two scans of the watch directory. *)
let watch_poll_s = 0.5

type t = {
  conf : conf;
  store : Serve.Store.t;
  pool : Engine.Pool.t;
  flights : Serve.Service.Flights.t;
  listen : Unix.file_descr;
  m : Mutex.t;
  cond : Condition.t;
  drain_requested : bool Atomic.t;
      (** set from signal handlers; the accept loop promotes it to a
          real drain outside signal context *)
  mutable is_draining : bool;
  mutable busy_entries : int;  (** entries admitted and not yet replied *)
  mutable active_conns : int;
  mutable helpers : Thread.t list;
  (* service counts for the [stats] reply, all under [m] *)
  mutable submissions : int;
  mutable entries : int;
  mutable hits : int;
  mutable fresh : int;
  mutable shared : int;
  mutable rejected : int;
  mutable proto_errors : int;
  mutable gc_runs : int;
}

let store t = t.store

let log t fmt =
  if t.conf.log then
    Printf.ksprintf (fun s -> Printf.eprintf "[mptcp-daemon] %s\n%!" s) fmt
  else Printf.ksprintf ignore fmt

let draining t =
  Mutex.lock t.m;
  let d = t.is_draining in
  Mutex.unlock t.m;
  d

let protocol_error t =
  Mutex.lock t.m;
  t.proto_errors <- t.proto_errors + 1;
  Mutex.unlock t.m

let initiate_drain t =
  Mutex.lock t.m;
  let first = not t.is_draining in
  t.is_draining <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.m;
  if first then log t "draining: no new work; letting in-flight runs land"

(* Async-signal-safe drain request: signal handlers run at poll points
   on whatever thread happens to be executing, so they must not touch
   [t.m] (the thread may already hold it — instant self-deadlock).
   They only flip this atomic; the accept loop, which polls at 4 Hz,
   promotes it to [initiate_drain] from ordinary thread context. *)
let request_drain t = Atomic.set t.drain_requested true

let submit_entries t entries =
  let n = List.length entries in
  Mutex.lock t.m;
  if t.is_draining then begin
    t.rejected <- t.rejected + 1;
    Mutex.unlock t.m;
    Protocol.Error (Protocol.Draining, "daemon is draining; no new work")
  end
  else if t.busy_entries + n > t.conf.max_queue then begin
    t.rejected <- t.rejected + 1;
    let depth = t.busy_entries in
    Mutex.unlock t.m;
    Protocol.Error
      ( Protocol.Busy,
        Printf.sprintf
          "queue full: %d entries in flight plus %d submitted exceeds limit %d"
          depth n t.conf.max_queue )
  end
  else begin
    t.busy_entries <- t.busy_entries + n;
    t.submissions <- t.submissions + 1;
    t.entries <- t.entries + n;
    Mutex.unlock t.m;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.m;
        t.busy_entries <- t.busy_entries - n;
        Condition.broadcast t.cond;
        Mutex.unlock t.m)
      (fun () ->
        match
          Serve.Service.run_batch ~pool:t.pool ~flights:t.flights
            ~store:t.store entries
        with
        | exception ex ->
          Protocol.Error (Protocol.Failed, Printexc.to_string ex)
        | outcomes, stats ->
          let { Serve.Service.hits; fresh; shared; fresh_sim_events; _ } =
            stats
          in
          Mutex.lock t.m;
          t.hits <- t.hits + hits;
          t.fresh <- t.fresh + fresh;
          t.shared <- t.shared + shared;
          Mutex.unlock t.m;
          let outcomes =
            List.map
              (fun ((e : Serve.Batch.entry), outcome) ->
                let kind, (r : Serve.Store.record) =
                  match outcome with
                  | Serve.Service.Hit r -> (Protocol.Hit, r)
                  | Serve.Service.Fresh r -> (Protocol.Fresh, r)
                  | Serve.Service.Shared r -> (Protocol.Shared, r)
                in
                {
                  Protocol.kind;
                  hash = r.Serve.Store.hash;
                  label = e.Serve.Batch.label;
                  tail_mbps = r.Serve.Store.tail_mbps;
                  opt_mbps = r.Serve.Store.opt_mbps;
                  sim_events = r.Serve.Store.sim_events;
                })
              outcomes
          in
          Protocol.Batch
            { Protocol.outcomes; entries = n; hits; fresh; shared;
              fresh_sim_events })
  end

let handle t (req : Protocol.request) =
  match req with
  | Protocol.Submit forms -> (
    match Serve.Batch.of_sexps ~base_dir:t.conf.base_dir forms with
    | [] -> Protocol.Error (Protocol.Failed, "empty batch")
    | entries -> submit_entries t entries
    | exception Events.Sexp.Parse_error msg ->
      protocol_error t;
      Protocol.Error (Protocol.Parse, msg)
    | exception Invalid_argument msg ->
      Protocol.Error (Protocol.Failed, msg))
  | Protocol.Status ->
    Mutex.lock t.m;
    let queue_depth = t.busy_entries in
    let draining = t.is_draining in
    Mutex.unlock t.m;
    Protocol.Status_reply
      {
        Protocol.pid = Unix.getpid ();
        draining;
        queue_depth;
        inflight = Serve.Service.Flights.inflight t.flights;
        pool_domains = Engine.Pool.size t.pool;
        store_records = Serve.Store.count t.store;
      }
  | Protocol.Stats ->
    let trend_entries =
      List.length (fst (Serve.Trend.load ~dir:(Serve.Store.dir t.store)))
    in
    let store_records = Serve.Store.count t.store
    and store_bytes = Serve.Store.bytes t.store in
    Mutex.lock t.m;
    let reply =
      {
        Protocol.submissions = t.submissions;
        served_entries = t.entries;
        s_hits = t.hits;
        s_fresh = t.fresh;
        s_shared = t.shared;
        rejected = t.rejected;
        protocol_errors = t.proto_errors;
        gc_runs = t.gc_runs;
        store_records;
        store_bytes;
        trend_entries;
      }
    in
    Mutex.unlock t.m;
    Protocol.Stats_reply reply
  | Protocol.Invalidate ->
    Protocol.Invalidated (Serve.Store.invalidate t.store)
  | Protocol.Gc budget -> (
    match Serve.Store.gc t.store ~max_bytes:budget with
    | g ->
      Mutex.lock t.m;
      t.gc_runs <- t.gc_runs + 1;
      Mutex.unlock t.m;
      Protocol.Gc_done g
    | exception Invalid_argument msg -> Protocol.Error (Protocol.Failed, msg))
  | Protocol.Drain ->
    initiate_drain t;
    Mutex.lock t.m;
    while t.busy_entries > 0 do
      Condition.wait t.cond t.m
    done;
    Mutex.unlock t.m;
    Protocol.Drained

(* Helper-thread sleep that notices a drain within 0.1 s. *)
let sleep_interruptible t seconds =
  let rec go remaining =
    if remaining > 0. && not (draining t) then begin
      Thread.delay (min 0.1 remaining);
      go (remaining -. 0.1)
    end
  in
  go seconds

(* The periodic pass is a [Gc] request the daemon sends itself. *)
let gc_loop t budget =
  while not (draining t) do
    sleep_interruptible t t.conf.gc_interval_s;
    if not (draining t) then
      match handle t (Protocol.Gc budget) with
      | Protocol.Gc_done g when g.Serve.Store.evicted > 0 ->
        log t "gc: evicted %d records (%d bytes), %d kept" g.evicted
          g.evicted_bytes g.kept
      | Protocol.Error (_, msg) -> log t "gc: %s" msg
      | _ -> ()
  done

let watch_loop t dir =
  let processed = Hashtbl.create 16 in
  let shelve path suffix =
    try Sys.rename path (path ^ suffix) with Sys_error _ -> ()
  in
  while not (draining t) do
    (match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
      Array.sort compare names;
      Array.iter
        (fun name ->
          if
            Filename.check_suffix name ".sexp"
            && (not (Hashtbl.mem processed name))
            && not (draining t)
          then begin
            Hashtbl.add processed name ();
            let path = Filename.concat dir name in
            match Serve.Batch.load path with
            | exception ex ->
              log t "watch: %s: %s" name (Printexc.to_string ex);
              shelve path ".err"
            | [] ->
              log t "watch: %s: empty batch" name;
              shelve path ".err"
            | entries -> (
              match submit_entries t entries with
              | Protocol.Batch b ->
                log t "watch: %s: %d entries, %d hits, %d fresh, %d shared"
                  name b.Protocol.entries b.Protocol.hits b.Protocol.fresh
                  b.Protocol.shared;
                shelve path ".done"
              | Protocol.Error ((Protocol.Busy | Protocol.Draining), _) ->
                (* transient rejects — backpressure, or a drain racing
                   the poll: leave the file in place so a later poll or
                   the next daemon instance retries it, instead of
                   shelving a perfectly good batch as [.err] *)
                Hashtbl.remove processed name;
                log t "watch: %s: rejected transiently, will retry" name
              | Protocol.Error (_, msg) ->
                log t "watch: %s: rejected: %s" name msg;
                shelve path ".err"
              | _ -> ())
          end)
        names);
    sleep_interruptible t watch_poll_s
  done

let handle_conn t fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.m;
      t.active_conns <- t.active_conns - 1;
      Condition.broadcast t.cond;
      Mutex.unlock t.m)
    (fun () ->
      let idle_stop () = draining t in
      let reply resp =
        match Protocol.write_frame fd (Protocol.render_response resp) with
        | () -> true
        | exception (Unix.Unix_error _ | Invalid_argument _) -> false
      in
      let rec loop () =
        match Protocol.read_frame ~idle_stop fd with
        | Protocol.Eof | Protocol.Idle_stop -> ()
        | Protocol.Truncated ->
          (* stream died mid-frame: nothing sensible to answer *)
          protocol_error t
        | Protocol.Too_large n ->
          protocol_error t;
          (* answer, then drop the connection: the stream cannot be
             resynchronised without trusting the bogus length *)
          ignore
            (reply
               (Protocol.Error
                  ( Protocol.Oversized,
                    Printf.sprintf
                      "frame of %d bytes exceeds the %d byte limit" n
                      Protocol.max_frame )))
        | Protocol.Frame payload ->
          let resp =
            match Protocol.parse_request payload with
            | req -> (
              try handle t req
              with ex ->
                Protocol.Error (Protocol.Failed, Printexc.to_string ex))
            | exception Events.Sexp.Parse_error msg ->
              protocol_error t;
              Protocol.Error (Protocol.Parse, msg)
            | exception Protocol.Wrong_version v ->
              protocol_error t;
              Protocol.Error
                ( Protocol.Version,
                  Printf.sprintf
                    "peer speaks protocol %d, this daemon speaks %d" v
                    Protocol.version )
          in
          if reply resp then loop ()
      in
      loop ())

let start conf =
  (match Unix.stat conf.socket_path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    (* leftover from a dead daemon, or a live one?  probe it *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX conf.socket_path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf "a daemon is already listening on %s" conf.socket_path)
    else (try Sys.remove conf.socket_path with Sys_error _ -> ())
  | _ -> failwith (conf.socket_path ^ " exists and is not a socket"));
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock listen;
  Unix.bind listen (Unix.ADDR_UNIX conf.socket_path);
  Unix.listen listen 16;
  let store = Serve.Store.open_store ~dir:conf.store_dir in
  let domains =
    match conf.jobs with
    | Some j -> j
    | None -> Engine.Pool.default_domains ()
  in
  let pool = Engine.Pool.create ~domains () in
  let t =
    {
      conf;
      store;
      pool;
      flights = Serve.Service.Flights.create ();
      listen;
      m = Mutex.create ();
      cond = Condition.create ();
      drain_requested = Atomic.make false;
      is_draining = false;
      busy_entries = 0;
      active_conns = 0;
      helpers = [];
      submissions = 0;
      entries = 0;
      hits = 0;
      fresh = 0;
      shared = 0;
      rejected = 0;
      proto_errors = 0;
      gc_runs = 0;
    }
  in
  let helpers = ref [] in
  (match conf.gc_max_bytes with
  | Some budget -> helpers := Thread.create (gc_loop t) budget :: !helpers
  | None -> ());
  (match conf.watch_dir with
  | Some dir -> helpers := Thread.create (watch_loop t) dir :: !helpers
  | None -> ());
  t.helpers <- !helpers;
  t

let serve t =
  (* a client that hangs up before reading its reply must not kill the
     daemon: surface EPIPE as an exception instead *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  log t "listening on %s (pid %d, %d worker domains, %d records cached)"
    t.conf.socket_path (Unix.getpid ())
    (Engine.Pool.size t.pool)
    (Serve.Store.count t.store);
  let rec accept_loop () =
    if Atomic.get t.drain_requested then initiate_drain t;
    if draining t then ()
    else begin
      (match Unix.select [ t.listen ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept t.listen with
        | exception
            Unix.Unix_error
              (( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
               | Unix.ECONNABORTED ),
                _, _ ) ->
          (* spurious wakeup, or the peer gave up before we got there *)
          ()
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE) as e, _, _)
          ->
          (* fd exhaustion (a burst of per-connection threads): shed
             this client and back off until handlers release fds *)
          log t "accept: %s; backing off" (Unix.error_message e);
          Thread.delay 0.2
        | exception Unix.Unix_error (e, _, _) ->
          (* anything else transient must not take the daemon down
             mid-drain with the socket still linked *)
          log t "accept: %s" (Unix.error_message e)
        | fd, _ ->
          Unix.clear_nonblock fd;
          Mutex.lock t.m;
          t.active_conns <- t.active_conns + 1;
          Mutex.unlock t.m;
          ignore (Thread.create (handle_conn t) fd)));
      accept_loop ()
    end
  in
  accept_loop ();
  (* drain: every admitted entry replies, every connection closes *)
  Mutex.lock t.m;
  while t.busy_entries > 0 || t.active_conns > 0 do
    Condition.wait t.cond t.m
  done;
  Mutex.unlock t.m;
  List.iter Thread.join t.helpers;
  (try Unix.close t.listen with Unix.Unix_error _ -> ());
  (try Sys.remove t.conf.socket_path with Sys_error _ -> ());
  Engine.Pool.shutdown t.pool;
  log t "drained: socket unlinked, pool shut down"

let run conf =
  let t = start conf in
  let drain_signal _ = request_drain t in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle drain_signal) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle drain_signal) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)
    (fun () -> serve t)
