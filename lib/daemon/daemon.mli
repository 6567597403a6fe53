(** The resident scenario daemon: a warm-pool socket service.

    [mptcp_sim serve --listen SOCK] keeps one process resident with a
    single {!Engine.Pool} of worker domains, an open {!Serve.Store} and
    the trend log, and serves {!Protocol} requests over a Unix-domain
    socket.  Compared to one-shot [serve] runs it amortises process
    start, domain spawn and store open across every submission: a warm
    resubmission of a cached batch does zero simulation work and spawns
    nothing.

    Every submission goes through {!Serve.Service.run_batch}, the same
    pipeline and outcome kinds as one-shot [serve].  The daemon adds
    transport, admission, drain, GC and watch, and one resident
    {!Serve.Service.Flights} table shared by all submissions.

    Concurrency model: one [Thread] per connection, all sharing the one
    domain pool.  Submissions are deduplicated twice over —

    - {e in-process} by the resident flight table: concurrent clients
      submitting the same spec share one simulation (one leader runs
      it, followers wait for the published record);
    - {e cross-process} by the store's advisory claims
      ({!Serve.Store.try_claim} via {!Serve.Service.simulate_entry}):
      a second daemon or one-shot [serve] on the same store adopts this
      daemon's in-flight result instead of re-running it.

    Admission is bounded: when the entries already in flight plus a new
    submission would exceed [max_queue], the client gets a typed
    [Busy] error immediately (backpressure) instead of queueing without
    limit.  Draining ([drain] request, SIGTERM or SIGINT) stops
    admission with typed [Draining] errors, lets in-flight runs
    complete and their clients receive full replies, flushes
    store/trend (both are written synchronously per outcome), unlinks
    the socket and shuts the pool down. *)

module Protocol : module type of struct include Protocol end
(** Re-exported: this module is the library's interface module, which
    hides its siblings, so the wire protocol rides along here.  Its
    signature is the sibling's, with every type equal to the
    sibling's: an alias ([module Protocol = Protocol]) would name the
    hidden [Daemon__.Protocol], which the documentation gate cannot
    resolve. *)

(** {1 Configuration and lifecycle} *)

type conf = {
  socket_path : string;  (** Unix-domain socket to bind *)
  store_dir : string;  (** result store + trend log directory *)
  base_dir : string;
      (** directory that relative paths in submitted batch forms
          (experiment files) resolve against *)
  jobs : int option;  (** pool domains; [None] = recommended count *)
  max_queue : int;  (** max entries in flight before [Busy] rejection *)
  gc_max_bytes : int option;
      (** when set, a periodic LRU pass keeps the store under this many
          bytes (the [cache --gc --max-bytes] policy, resident) *)
  gc_interval_s : float;  (** period of that pass *)
  watch_dir : string option;
      (** when set, a poller scans it every 0.5 s, submits every
          [*.sexp] batch file dropped there and renames it [.done] (or
          [.err]) once served *)
  log : bool;  (** lifecycle lines on stderr *)
}

val default_conf : socket_path:string -> store_dir:string -> conf
(** [base_dir "."], recommended domains, [max_queue 64], no GC, no
    watch dir, 5 s GC interval, logging on. *)

type t

val start : conf -> t
(** Bind the socket, open the store, spawn the pool and the helper
    threads (GC / watch, when configured).  A stale socket file left by
    a dead daemon is probed and replaced; a live daemon on the same
    path raises [Failure].  The caller still owes a {!serve}. *)

val serve : t -> unit
(** Accept loop: one handler thread per connection.  Returns only
    after a drain completes — every in-flight run finished and
    replied, helper threads joined, socket closed and unlinked, pool
    shut down. *)

val run : conf -> unit
(** {!start} + SIGTERM/SIGINT → drain-request wiring + {!serve}: the
    whole [serve --listen] server mode.  The signal handlers only flip
    an atomic flag (OCaml signal handlers run at poll points on
    whatever thread is current, so a handler that locked the daemon
    mutex could self-deadlock); the accept loop notices within 0.25 s
    and runs {!initiate_drain} from ordinary thread context. *)

val initiate_drain : t -> unit
(** Flip to draining (idempotent): new submissions get typed
    [Draining] errors, the accept loop winds down, {!serve} completes
    once in-flight work lands.  Takes the daemon mutex — never call it
    from a signal handler. *)

(** {1 In-process service access}

    The socket is one transport; tests, the watch poller and the bench
    harness call straight into the same request handler. *)

val handle : t -> Protocol.request -> Protocol.response
(** Serve one request exactly as a connection handler would — including
    admission control, single-flight dedup and counter updates.
    [Drain] blocks until in-flight submissions land, then answers
    [Drained]. *)

val store : t -> Serve.Store.t
