(* Length-prefixed sexp frames.  The framing layer is deliberately
   dumb — 4 bytes of big-endian length, then bytes — so that every
   interesting failure (truncation, bit flips, oversized lengths,
   garbage sexps) is handled in exactly one place each and the fuzzer
   can reach them all. *)

let version = 1

let max_frame = 1 lsl 20

type request =
  | Submit of Events.Sexp.t list
  | Status
  | Stats
  | Invalidate
  | Gc of int
  | Drain

type error_kind = Parse | Version | Oversized | Busy | Draining | Failed

type outcome_kind = Hit | Fresh | Shared

type outcome = {
  kind : outcome_kind;
  hash : string;
  label : string;
  tail_mbps : float;
  opt_mbps : float;
  sim_events : int;
}

type batch_reply = {
  outcomes : outcome list;
  entries : int;
  hits : int;
  fresh : int;
  shared : int;
  fresh_sim_events : int;
}

type status_reply = {
  pid : int;
  draining : bool;
  queue_depth : int;
  inflight : int;
  pool_domains : int;
  store_records : int;
}

type stats_reply = {
  submissions : int;
  served_entries : int;
  s_hits : int;
  s_fresh : int;
  s_shared : int;
  rejected : int;
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
  | Drained
  | Error of error_kind * string

let error_kind_name = function
  | Parse -> "parse"
  | Version -> "version"
  | Oversized -> "oversized"
  | Busy -> "busy"
  | Draining -> "draining"
  | Failed -> "failed"

let error_kind_of_name = function
  | "parse" -> Some Parse
  | "version" -> Some Version
  | "oversized" -> Some Oversized
  | "busy" -> Some Busy
  | "draining" -> Some Draining
  | "failed" -> Some Failed
  | _ -> None

let outcome_kind_name = function
  | Hit -> "hit"
  | Fresh -> "fresh"
  | Shared -> "shared"

let outcome_kind_of_name = function
  | "hit" -> Some Hit
  | "fresh" -> Some Fresh
  | "shared" -> Some Shared
  | _ -> None

(* --- sexp codecs --- *)

(* The sexp reader has no quoting, so any free text persisted on the
   wire (error messages) is split into delimiter-free word atoms and
   re-joined with single spaces on parse. *)
let sanitize_word w =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '.' || c = '_' || c = '-' || c = '/' || c = ':' || c = '%'
  in
  let w = String.map (fun c -> if ok c then c else '_') w in
  if w = "" then "_" else w

let words_of_text msg =
  match String.split_on_char ' ' msg |> List.filter (fun w -> w <> "") with
  | [] -> [ "_" ]
  | ws -> List.map sanitize_word ws

exception Wrong_version of int

let wrap body = Printf.sprintf "(mptcp-daemon %d %s)" version body

let unwrap s =
  let open Events.Sexp in
  match parse_string s with
  | [ List (Atom "mptcp-daemon" :: v :: body) ] ->
    if int_exn v <> version then raise (Wrong_version (int_exn v)) else body
  | _ -> fail "expected a single (mptcp-daemon %d ...) frame" version

let render_request = function
  | Submit forms ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf "(submit";
    List.iter
      (fun f ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Events.Sexp.to_string f))
      forms;
    Buffer.add_char buf ')';
    wrap (Buffer.contents buf)
  | Status -> wrap "(status)"
  | Stats -> wrap "(stats)"
  | Invalidate -> wrap "(invalidate)"
  | Gc max_bytes -> wrap (Printf.sprintf "(gc %d)" max_bytes)
  | Drain -> wrap "(drain)"

let parse_request s =
  let open Events.Sexp in
  match unwrap s with
  | [ List (Atom "submit" :: forms) ] -> Submit forms
  | [ List [ Atom "status" ] ] -> Status
  | [ List [ Atom "stats" ] ] -> Stats
  | [ List [ Atom "invalidate" ] ] -> Invalidate
  | [ List [ Atom "gc"; n ] ] -> Gc (int_exn n)
  | [ List [ Atom "drain" ] ] -> Drain
  | [ s ] -> fail "unknown request %s" (to_string s)
  | _ -> fail "expected exactly one request form"

let render_response r =
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match r with
  | Batch b ->
    p "(batch (entries %d) (hits %d) (fresh %d) (shared %d)" b.entries b.hits
      b.fresh b.shared;
    p " (fresh-sim-events %d) (outcomes" b.fresh_sim_events;
    List.iter
      (fun o ->
        p " (o %s %s %s %s %s %d)"
          (outcome_kind_name o.kind)
          o.hash
          (sanitize_word o.label)
          (Events.Sexp.f17 o.tail_mbps)
          (Events.Sexp.f17 o.opt_mbps)
          o.sim_events)
      b.outcomes;
    p "))"
  | Status_reply s ->
    p
      "(status (pid %d) (draining %b) (queue-depth %d) (inflight %d) \
       (pool-domains %d) (store-records %d))"
      s.pid s.draining s.queue_depth s.inflight s.pool_domains s.store_records
  | Stats_reply s ->
    p
      "(stats (submissions %d) (served-entries %d) (hits %d) (fresh %d) \
       (shared %d) (rejected %d) (protocol-errors %d) (gc-runs %d) \
       (store-records %d) (store-bytes %d) (trend-entries %d))"
      s.submissions s.served_entries s.s_hits s.s_fresh s.s_shared s.rejected
      s.protocol_errors s.gc_runs s.store_records s.store_bytes
      s.trend_entries
  | Invalidated n -> p "(invalidated %d)" n
  | Gc_done g ->
    p
      "(gc-done (examined %d) (evicted %d) (evicted-bytes %d) (kept %d) \
       (kept-bytes %d))"
      g.Serve.Store.examined g.evicted g.evicted_bytes g.kept g.kept_bytes
  | Drained -> p "(drained)"
  | Error (kind, msg) ->
    p "(error %s" (error_kind_name kind);
    List.iter (fun w -> p " %s" w) (words_of_text msg);
    p ")");
  wrap (Buffer.contents buf)

let parse_response s =
  let open Events.Sexp in
  let bool_exn s =
    match atom_exn s with
    | "true" -> true
    | "false" -> false
    | a -> fail "expected a boolean, got %s" a
  in
  match unwrap s with
  | [ List (Atom "batch" :: fields) ] ->
    let outcomes =
      List.map
        (function
          | List [ Atom "o"; k; h; l; tail; opt; ev ] ->
            let kind =
              match outcome_kind_of_name (atom_exn k) with
              | Some k -> k
              | None -> fail "unknown outcome kind %s" (atom_exn k)
            in
            {
              kind;
              hash = atom_exn h;
              label = atom_exn l;
              tail_mbps = float_exn tail;
              opt_mbps = float_exn opt;
              sim_events = int_exn ev;
            }
          | o -> fail "bad outcome %s" (to_string o))
        (field "outcomes" fields)
    in
    Batch
      {
        outcomes;
        entries = scalar "entries" int_exn fields;
        hits = scalar "hits" int_exn fields;
        fresh = scalar "fresh" int_exn fields;
        shared = scalar "shared" int_exn fields;
        fresh_sim_events = scalar "fresh-sim-events" int_exn fields;
      }
  | [ List (Atom "status" :: fields) ] ->
    Status_reply
      {
        pid = scalar "pid" int_exn fields;
        draining = scalar "draining" bool_exn fields;
        queue_depth = scalar "queue-depth" int_exn fields;
        inflight = scalar "inflight" int_exn fields;
        pool_domains = scalar "pool-domains" int_exn fields;
        store_records = scalar "store-records" int_exn fields;
      }
  | [ List (Atom "stats" :: fields) ] ->
    Stats_reply
      {
        submissions = scalar "submissions" int_exn fields;
        served_entries = scalar "served-entries" int_exn fields;
        s_hits = scalar "hits" int_exn fields;
        s_fresh = scalar "fresh" int_exn fields;
        s_shared = scalar "shared" int_exn fields;
        rejected = scalar "rejected" int_exn fields;
        protocol_errors = scalar "protocol-errors" int_exn fields;
        gc_runs = scalar "gc-runs" int_exn fields;
        store_records = scalar "store-records" int_exn fields;
        store_bytes = scalar "store-bytes" int_exn fields;
        trend_entries = scalar "trend-entries" int_exn fields;
      }
  | [ List [ Atom "invalidated"; n ] ] -> Invalidated (int_exn n)
  | [ List (Atom "gc-done" :: fields) ] ->
    Gc_done
      {
        Serve.Store.examined = scalar "examined" int_exn fields;
        evicted = scalar "evicted" int_exn fields;
        evicted_bytes = scalar "evicted-bytes" int_exn fields;
        kept = scalar "kept" int_exn fields;
        kept_bytes = scalar "kept-bytes" int_exn fields;
      }
  | [ List [ Atom "drained" ] ] -> Drained
  | [ List (Atom "error" :: Atom kind :: words) ] ->
    let kind =
      match error_kind_of_name kind with
      | Some k -> k
      | None -> fail "unknown error kind %s" kind
    in
    Error (kind, String.concat " " (List.map atom_exn words))
  | [ s ] -> fail "unknown response %s" (to_string s)
  | _ -> fail "expected exactly one response form"

(* --- framing --- *)

type frame =
  | Frame of string
  | Eof
  | Truncated
  | Too_large of int
  | Idle_stop

(* Wait until [fd] is readable, polling [idle_stop] at 4 Hz.  A
   [deadline] of [infinity] waits forever.  [`Ready] never lies: the
   following [read] may still return 0 (EOF), which the callers treat
   per-position. *)
let rec wait_readable ?idle_stop fd ~deadline =
  let now = Unix.gettimeofday () in
  if now >= deadline then `Timeout
  else
    match Unix.select [ fd ] [] [] 0.25 with
    | [], _, _ -> (
      match idle_stop with
      | Some stop when stop () -> `Stop
      | _ -> wait_readable ?idle_stop fd ~deadline)
    | _ -> `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      wait_readable ?idle_stop fd ~deadline

(* Returns how many bytes it managed before EOF or a stall.
   [first_timeout_s] bounds the wait for byte 0 ([infinity] waits
   indefinitely, polling [idle_stop]); every later byte is bounded by
   [mid_frame_timeout_s] — a peer that stalls inside a frame is broken,
   one that is merely quiet before it is not. *)
let read_bytes ?idle_stop ~first_timeout_s fd buf ~len ~mid_frame_timeout_s =
  let rec go off =
    if off >= len then `All
    else
      let idle_stop = if off = 0 then idle_stop else None in
      let timeout_s = if off = 0 then first_timeout_s else mid_frame_timeout_s in
      match
        wait_readable ?idle_stop fd
          ~deadline:(Unix.gettimeofday () +. timeout_s)
      with
      | `Stop -> `Stopped
      | `Timeout -> `Partial off
      | `Ready -> (
        match Unix.read fd buf off (len - off) with
        | 0 -> `Partial off
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off)
  in
  go 0

let mid_frame_timeout_s = 10.

let read_frame ?idle_stop fd =
  let hdr = Bytes.create 4 in
  (* No deadline before a frame starts: an idle-but-healthy peer — a
     client between requests, or a server still computing a long reply —
     is not an error.  [idle_stop] is the only way to give up here, so
     `Partial 0` can only mean a genuine EOF. *)
  match
    read_bytes ?idle_stop ~first_timeout_s:infinity fd hdr ~len:4
      ~mid_frame_timeout_s
  with
  | `Stopped -> Idle_stop
  | `Partial 0 -> Eof
  | `Partial _ -> Truncated
  | `All ->
    let len =
      (Char.code (Bytes.get hdr 0) lsl 24)
      lor (Char.code (Bytes.get hdr 1) lsl 16)
      lor (Char.code (Bytes.get hdr 2) lsl 8)
      lor Char.code (Bytes.get hdr 3)
    in
    if len > max_frame then Too_large len
    else if len = 0 then Frame ""
    else
      let payload = Bytes.create len in
      (* the header already arrived, so the payload is mid-frame from
         its first byte: the stall deadline applies throughout *)
      (match
         read_bytes ~first_timeout_s:mid_frame_timeout_s fd payload ~len
           ~mid_frame_timeout_s
       with
      | `All -> Frame (Bytes.unsafe_to_string payload)
      | `Partial _ | `Stopped -> Truncated)

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then
    invalid_arg
      (Printf.sprintf "Protocol.write_frame: %d bytes > max_frame" len);
  let msg = Bytes.create (4 + len) in
  Bytes.set msg 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set msg 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set msg 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set msg 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 msg 4 len;
  let total = 4 + len in
  let rec go off =
    if off < total then
      match Unix.write fd msg off (total - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* --- client helpers --- *)

exception Protocol_error of string

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let call fd req =
  write_frame fd (render_request req);
  match read_frame fd with
  | Frame s -> (
    try parse_response s
    with Events.Sexp.Parse_error msg ->
      raise (Protocol_error ("unreadable reply: " ^ msg)))
  | Eof -> raise (Protocol_error "connection closed before the reply")
  | Truncated -> raise (Protocol_error "reply truncated")
  | Too_large n ->
    raise (Protocol_error (Printf.sprintf "oversized reply (%d bytes)" n))
  | Idle_stop -> assert false

let call_once ~socket req =
  let fd = connect socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> call fd req)
