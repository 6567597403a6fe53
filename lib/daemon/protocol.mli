(** Wire protocol of the resident scenario daemon.

    Frames are length-prefixed sexps over a Unix-domain stream socket:
    a 4-byte big-endian payload length, then that many bytes of sexp
    text ({!Events.Sexp} grammar — no quoting, [;] comments legal).
    Every payload is wrapped as [(mptcp-daemon <version> <body>)], so a
    client and server from different builds fail with a typed version
    error instead of a silent misparse.

    Requests reuse the batch-file grammar as the submission payload:
    [(submit <preset|grid|experiment forms...>)] carries exactly the
    forms a batch file holds ({!Serve.Batch.of_sexps}), so anything
    that can be written as a batch file can be submitted over the
    socket unchanged.

    The server never crashes on garbage: an oversized length prefix, a
    truncated frame, flipped bytes or a malformed sexp each produce a
    typed {!response.Error} frame (or a clean connection drop when the
    stream cannot be resynchronised), and the next well-formed request
    on a fresh connection succeeds — the property [Fuzz.daemon_test]
    hammers. *)

val version : int
(** Bump on any frame-grammar change; mismatched peers get a typed
    [Error (Version, _)] reply. *)

val max_frame : int
(** Largest accepted payload (1 MiB).  A length prefix beyond it is
    answered with [Error (Oversized, _)] and the connection is closed
    (the stream cannot be resynchronised without trusting the bogus
    length). *)

(** {1 Messages} *)

type request =
  | Submit of Events.Sexp.t list
      (** batch forms, verbatim from the batch-file grammar *)
  | Status  (** lifecycle snapshot: draining flag, queue, in-flight *)
  | Stats  (** service counters and store totals *)
  | Invalidate  (** drop every cached record *)
  | Gc of int  (** LRU-evict records down to the byte budget *)
  | Drain
      (** stop admitting, finish in-flight runs, reply, then exit *)

type error_kind =
  | Parse  (** unreadable or unrecognised request sexp *)
  | Version  (** frame from a different protocol version *)
  | Oversized  (** length prefix beyond {!max_frame} *)
  | Busy  (** bounded admission: queue full, resubmit later *)
  | Draining  (** daemon is shutting down; no new work *)
  | Failed  (** the request itself raised (bad batch, store error) *)

type outcome_kind =
  | Hit  (** served from the store; no simulation ran anywhere *)
  | Fresh  (** this daemon simulated it on this submission *)
  | Shared
      (** deduped: rode another client's (or process's) in-flight run *)

type outcome = {
  kind : outcome_kind;
  hash : string;
  label : string;
  tail_mbps : float;
  opt_mbps : float;
  sim_events : int;
}

type batch_reply = {
  outcomes : outcome list;  (** submission order *)
  entries : int;
  hits : int;
  fresh : int;
  shared : int;
  fresh_sim_events : int;
      (** engine events this submission's own fresh runs dispatched —
          [0] exactly when the warm daemon did no simulation work *)
}

type status_reply = {
  pid : int;
  draining : bool;
  queue_depth : int;  (** submissions currently being processed *)
  inflight : int;  (** deduped single-flight simulations running *)
  pool_domains : int;
  store_records : int;
}

type stats_reply = {
  submissions : int;
  served_entries : int;
  s_hits : int;
  s_fresh : int;
  s_shared : int;
  rejected : int;  (** backpressure + draining rejections *)
  protocol_errors : int;
  gc_runs : int;
  store_records : int;
  store_bytes : int;
  trend_entries : int;
}

type response =
  | Batch of batch_reply
  | Status_reply of status_reply
  | Stats_reply of stats_reply
  | Invalidated of int
  | Gc_done of Serve.Store.gc_stats
      (** the store's own account of the LRU pass *)
  | Drained  (** sent after every in-flight run has completed *)
  | Error of error_kind * string

val error_kind_name : error_kind -> string
val outcome_kind_name : outcome_kind -> string

(** {1 Sexp codecs}

    Both sides use both directions: the server parses requests and
    renders responses, the client renders requests and parses
    responses.  Parsers raise {!Events.Sexp.Parse_error} on malformed
    input (the server maps that to a typed [Error (Parse, _)] reply). *)

exception Wrong_version of int
(** Raised by the parsers on a structurally valid frame from a
    different protocol {!version} (the server answers it with a typed
    [Error (Version, _)]). *)

val render_request : request -> string
val parse_request : string -> request
val render_response : response -> string
val parse_response : string -> response

(** {1 Framing} *)

type frame =
  | Frame of string  (** one complete payload *)
  | Eof  (** clean close before any byte of a frame *)
  | Truncated  (** stream ended (or stalled out) mid-frame *)
  | Too_large of int  (** declared length beyond {!max_frame} *)
  | Idle_stop  (** [idle_stop] asked to give up between frames *)

val read_frame :
  ?idle_stop:(unit -> bool) -> Unix.file_descr -> frame
(** Blocking frame read.  The wait for the {e first} byte of a frame is
    unbounded — an idle connection between requests, or a reply still
    being computed, is healthy, however long it takes — and is the only
    place [idle_stop] is polled (4 Hz): the drain loop uses it to shed
    idle connections without cutting off a client mid-send.  Once a
    frame has started, a stream that stalls for 10 s mid-frame reads as
    {!Truncated}. *)

val write_frame : Unix.file_descr -> string -> unit
(** Complete write of the length prefix and payload (EINTR-safe).
    Raises [Invalid_argument] on a payload beyond {!max_frame}. *)

(** {1 Client helpers} *)

exception Protocol_error of string
(** The peer broke framing: closed mid-reply, oversized reply, or a
    reply that does not parse. *)

val connect : string -> Unix.file_descr
(** Connect to the daemon's socket (raises [Unix.Unix_error]). *)

val call_once : socket:string -> request -> response
(** {!connect}, one request/response exchange, close. *)
