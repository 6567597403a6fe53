(* Record files are small (a few hundred bytes), so the format
   optimises for safety and greppability, not density: a version
   header, one sexp body, and a trailing checksum line.

     mptcp-sim-record <format_version>
     (record (hash ..) (label ..) ... (created-unix ..))
     checksum <md5-of-the-sexp-body>

   The checksum covers exactly the sexp body, so a version bump (a new
   header on an otherwise valid file) reads as *stale* while any damage
   to the body — truncation, a flipped byte, a torn write — fails the
   digest and reads as *corrupt*.  Both are misses; neither is ever
   handed to a caller as a result. *)

let format_version = 1

type audit_summary = { violations : int; checks : int }

type record = {
  hash : string;
  label : string;
  cc : string;
  seed : int;
  paths : int;
  tail_mbps : float;
  per_path_mbps : (int * float) list;
  opt_mbps : float;
  delivered_bytes : int;
  completed_at_s : float option;
  subflow_churn : int;
  cross_traffic_bytes : int;
  queue_drops : int;
  sim_events : int;
  packets_created : int;
  audit : audit_summary option;
  metrics : (string * float) list;
  wall_s : float;
  alloc_words : float;
  created_unix : float;
}

(* The sexp reader has no quoting, so anything persisted as an atom
   must contain no delimiters.  Labels come from user batch files;
   metric names are already dotted identifiers. *)
let sanitize_atom s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '.' || c = '_' || c = '-'
  in
  let s = if s = "" then "_" else s in
  String.map (fun c -> if ok c then c else '_') s

let of_result ~hash ~label ~wall_s ~alloc_words ~created_unix
    (result : Core.Scenario.result) =
  {
    hash;
    label = sanitize_atom label;
    cc = Mptcp.Algorithm.name result.Core.Scenario.spec.Core.Scenario.cc;
    seed = result.Core.Scenario.spec.Core.Scenario.seed;
    paths = List.length result.Core.Scenario.spec.Core.Scenario.paths;
    tail_mbps = Core.Scenario.tail_mean_mbps result;
    per_path_mbps = Core.Scenario.per_path_tail_mbps result;
    opt_mbps = Core.Scenario.optimal_total_mbps result;
    delivered_bytes = result.Core.Scenario.delivered_bytes;
    completed_at_s = result.Core.Scenario.completed_at_s;
    subflow_churn = result.Core.Scenario.subflow_churn;
    cross_traffic_bytes = result.Core.Scenario.cross_traffic_bytes;
    queue_drops = result.Core.Scenario.queue_drops;
    sim_events = result.Core.Scenario.events_processed;
    packets_created = result.Core.Scenario.packets_created;
    audit =
      Option.map
        (fun (rep : Audit.report) ->
          { violations = rep.Audit.total_violations; checks = rep.Audit.checks })
        result.Core.Scenario.audit;
    metrics =
      (match result.Core.Scenario.obs with
      | None -> []
      | Some o -> Obs.Collect.final_metrics o);
    wall_s;
    alloc_words;
    created_unix;
  }

let same_results a b =
  a.hash = b.hash && a.label = b.label && a.cc = b.cc && a.seed = b.seed
  && a.paths = b.paths && a.tail_mbps = b.tail_mbps
  && a.per_path_mbps = b.per_path_mbps && a.opt_mbps = b.opt_mbps
  && a.delivered_bytes = b.delivered_bytes
  && a.completed_at_s = b.completed_at_s
  && a.subflow_churn = b.subflow_churn
  && a.cross_traffic_bytes = b.cross_traffic_bytes
  && a.queue_drops = b.queue_drops && a.sim_events = b.sim_events
  && a.packets_created = b.packets_created && a.audit = b.audit
  && a.metrics = b.metrics

(* --- record text --- *)

let body_of_record r =
  let open Events.Sexp in
  let buf = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "(record";
  p " (hash %s)" r.hash;
  p " (label %s)" r.label;
  p " (cc %s)" r.cc;
  p " (seed %d)" r.seed;
  p " (paths %d)" r.paths;
  p " (tail-mbps %s)" (f17 r.tail_mbps);
  p " (per-path";
  List.iter (fun (tag, v) -> p " (%d %s)" tag (f17 v)) r.per_path_mbps;
  p ")";
  p " (opt-mbps %s)" (f17 r.opt_mbps);
  p " (delivered-bytes %d)" r.delivered_bytes;
  p " (completed-at-s %s)"
    (match r.completed_at_s with None -> "none" | Some t -> f17 t);
  p " (subflow-churn %d)" r.subflow_churn;
  p " (cross-traffic-bytes %d)" r.cross_traffic_bytes;
  p " (queue-drops %d)" r.queue_drops;
  p " (sim-events %d)" r.sim_events;
  p " (packets-created %d)" r.packets_created;
  (match r.audit with
  | None -> p " (audit none)"
  | Some { violations; checks } ->
    p " (audit (violations %d) (checks %d))" violations checks);
  p " (metrics";
  List.iter (fun (name, v) -> p " (%s %s)" (sanitize_atom name) (f17 v)) r.metrics;
  p ")";
  p " (wall-s %s)" (f17 r.wall_s);
  p " (alloc-words %s)" (f17 r.alloc_words);
  p " (created-unix %s)" (f17 r.created_unix);
  p ")";
  Buffer.contents buf

let file_of_record r =
  let body = body_of_record r in
  Printf.sprintf "mptcp-sim-record %d\n%s\nchecksum %s\n" format_version body
    (Digest.to_hex (Digest.string body))

let record_of_body body =
  let open Events.Sexp in
  let fields =
    match parse_string body with
    | [ List (Atom "record" :: fields) ] -> fields
    | _ -> fail "record: expected a single (record ...) form"
  in
  let pair kconv vconv = function
    | List [ k; v ] -> (kconv k, vconv v)
    | s -> fail "record: bad pair %s" (to_string s)
  in
  {
    hash = scalar "hash" atom_exn fields;
    label = scalar "label" atom_exn fields;
    cc = scalar "cc" atom_exn fields;
    seed = scalar "seed" int_exn fields;
    paths = scalar "paths" int_exn fields;
    tail_mbps = scalar "tail-mbps" float_exn fields;
    per_path_mbps =
      List.map (pair int_exn float_exn) (field "per-path" fields);
    opt_mbps = scalar "opt-mbps" float_exn fields;
    delivered_bytes = scalar "delivered-bytes" int_exn fields;
    completed_at_s =
      scalar "completed-at-s"
        (function Atom "none" -> None | s -> Some (float_exn s))
        fields;
    subflow_churn = scalar "subflow-churn" int_exn fields;
    cross_traffic_bytes = scalar "cross-traffic-bytes" int_exn fields;
    queue_drops = scalar "queue-drops" int_exn fields;
    sim_events = scalar "sim-events" int_exn fields;
    packets_created = scalar "packets-created" int_exn fields;
    audit =
      (match field "audit" fields with
      | [ Atom "none" ] -> None
      | forms ->
        Some
          {
            violations = scalar "violations" int_exn forms;
            checks = scalar "checks" int_exn forms;
          });
    metrics = List.map (pair atom_exn float_exn) (field "metrics" fields);
    wall_s = scalar "wall-s" float_exn fields;
    alloc_words = scalar "alloc-words" float_exn fields;
    created_unix = scalar "created-unix" float_exn fields;
  }

(* --- the store --- *)

type t = {
  dir : string;
  mutable stale : int;
  mutable corrupt : int;
  mutable evicted : int;
}

let dir t = t.dir

let mkdir_p path =
  let rec make p =
    if p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      make (Filename.dirname p);
      (try Unix.mkdir p 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  make path

let objects_dir dir = Filename.concat dir "objects"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Temp names are built from pid + a process-wide atomic counter
   rather than [Filename.temp_file]: inserts now run on pool worker
   domains (Service.simulate_entry stores its own result under the
   advisory claim), and temp_file's shared PRNG state is not
   domain-safe. *)
let tmp_seq = Atomic.make 0

let write_file_atomic ~dir ~path content =
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let open_store ~dir =
  mkdir_p (objects_dir dir);
  let version_file = Filename.concat dir "version" in
  if not (Sys.file_exists version_file) then
    write_file_atomic ~dir ~path:version_file
      (Printf.sprintf "mptcp-sim-store %d\n" format_version);
  { dir; stale = 0; corrupt = 0; evicted = 0 }

let record_path t ~hash =
  let shard = if String.length hash >= 2 then String.sub hash 0 2 else "xx" in
  Filename.concat (Filename.concat (objects_dir t.dir) shard) hash

(* Split a record file into (header version, body, checksum), or None
   when the shape is wrong (truncated files land here).  The header is
   the first line, the checksum line is the last one that starts
   "checksum ", and the body is the one or more lines between them. *)
let split_file content =
  let header_key = "mptcp-sim-record " and csum_key = "checksum " in
  let drop key s =
    String.sub s (String.length key) (String.length s - String.length key)
  in
  (* [lines] runs from the last line back; [after] collects, in file
     order, the lines that follow the checksum line. *)
  let rec split_last after lines =
    match lines with
    | line :: before when String.starts_with ~prefix:csum_key line ->
      Some (List.rev before, line, after)
    | line :: before -> split_last (line :: after) before
    | [] -> None
  in
  match String.split_on_char '\n' content with
  | header :: rest when String.starts_with ~prefix:header_key header -> (
    match
      (int_of_string_opt (drop header_key header), split_last [] (List.rev rest))
    with
    | Some v, Some ((_ :: _ as body), csum, after) ->
      Some
        ( v,
          String.concat "\n" body,
          String.trim (String.concat "\n" (drop csum_key csum :: after)) )
    | _ -> None)
  | _ -> None

type read_outcome = Ok_record of record | Stale | Corrupt | Missing

(* Open without a stat first: a concurrent gc or invalidate may unlink
   the record between the two.  A record that is gone, or that cannot
   be read as a file, is a miss. *)
let read_record path =
  match read_file path with
  | exception Sys_error _ -> Missing
  | content -> (
    match split_file content with
    | None -> Corrupt
    | Some (v, body, csum) ->
      if Digest.to_hex (Digest.string body) <> csum then Corrupt
      else if v <> format_version then Stale
      else (
        match record_of_body body with
        | r -> Ok_record r
        | exception _ -> Corrupt))

let lookup t ~hash =
  match read_record (record_path t ~hash) with
  | Ok_record r -> Some r
  | Stale ->
    t.stale <- t.stale + 1;
    None
  | Corrupt ->
    t.corrupt <- t.corrupt + 1;
    None
  | Missing -> None

let insert t r =
  let path = record_path t ~hash:r.hash in
  let dir = Filename.dirname path in
  mkdir_p dir;
  write_file_atomic ~dir ~path (file_of_record r)

(* Record files only: the shard directories also hold transient
   [.tmp.*] halves of atomic writes and advisory [*.lock] claims, and
   neither may be counted, GC-evicted or invalidated as a record. *)
let is_record_name name =
  String.length name > 0
  && name.[0] <> '.'
  && not (Filename.check_suffix name ".lock")

let iter_objects t f =
  let objs = objects_dir t.dir in
  if Sys.file_exists objs then
    Array.iter
      (fun shard ->
        let sdir = Filename.concat objs shard in
        if Sys.is_directory sdir then
          Array.iter
            (fun name ->
              if is_record_name name then f (Filename.concat sdir name))
            (Sys.readdir sdir))
      (Sys.readdir objs)

let count t =
  let n = ref 0 in
  iter_objects t (fun _ -> incr n);
  !n

let invalidate t =
  let n = ref 0 in
  iter_objects t (fun path ->
      Sys.remove path;
      incr n);
  !n

let bytes t =
  let acc = ref 0 in
  iter_objects t (fun path ->
      match Unix.stat path with
      | { Unix.st_size; _ } -> acc := !acc + st_size
      | exception Unix.Unix_error _ -> ());
  !acc

type gc_stats = {
  examined : int;
  evicted : int;
  evicted_bytes : int;
  kept : int;
  kept_bytes : int;
}

let gc t ~max_bytes =
  if max_bytes < 0 then invalid_arg "Store.gc: negative byte budget";
  let files = ref [] in
  iter_objects t (fun path ->
      match Unix.stat path with
      | { Unix.st_mtime; st_size; _ } ->
        files := (path, st_mtime, st_size) :: !files
      | exception Unix.Unix_error _ ->
        (* raced with a concurrent invalidate/gc; nothing to evict *)
        ());
  (* Newest first: the scan keeps records while they fit the budget, so
     whatever falls past it — the oldest mtimes — is evicted. *)
  let files =
    List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) !files
  in
  let examined = List.length files in
  let total = List.fold_left (fun acc (_, _, s) -> acc + s) 0 files in
  let budget = ref max_bytes in
  let evicted = ref 0 and evicted_bytes = ref 0 in
  List.iter
    (fun (path, _, size) ->
      if size <= !budget then budget := !budget - size
      else begin
        (* Removal is one unlink per record file, so readers always see
           a whole record or none; a concurrent re-insert wins its
           rename race and simply re-creates the hash afterwards. *)
        (try Sys.remove path with Sys_error _ -> ());
        incr evicted;
        evicted_bytes := !evicted_bytes + size
      end)
    files;
  t.evicted <- t.evicted + !evicted;
  {
    examined;
    evicted = !evicted;
    evicted_bytes = !evicted_bytes;
    kept = examined - !evicted;
    kept_bytes = total - !evicted_bytes;
  }

let stale_seen t = t.stale
let corrupt_seen t = t.corrupt
let evicted_total (t : t) = t.evicted

(* --- advisory in-flight claims --- *)

type claim = { lock_path : string; mutable held : bool }

let claim_path t ~hash = record_path t ~hash ^ ".lock"

let release_claim c =
  if c.held then begin
    c.held <- false;
    try Sys.remove c.lock_path with Sys_error _ -> ()
  end

(* utimes with both times 0.0 sets atime and mtime to now.  Racing a
   release (lock already unlinked) is a caught ENOENT, not a hazard. *)
let refresh_claim c =
  if c.held then
    try Unix.utimes c.lock_path 0. 0. with Unix.Unix_error _ -> ()

(* O_CREAT|O_EXCL is the atomic test-and-set; the file body (pid +
   creation time) is for humans debugging a stuck store, the mtime is
   what staleness reads. *)
let try_claim ?(stale_after_s = 120.) t ~hash =
  let lock_path = claim_path t ~hash in
  mkdir_p (Filename.dirname lock_path);
  let attempt () =
    match
      Unix.openfile lock_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ]
        0o644
    with
    | fd ->
      let body =
        Printf.sprintf "pid %d at %.6f\n" (Unix.getpid ())
          (Unix.gettimeofday ())
      in
      ignore (Unix.write_substring fd body 0 (String.length body));
      Unix.close fd;
      Some { lock_path; held = true }
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> None
  in
  match attempt () with
  | Some c -> `Claimed c
  | None -> (
    (* Held.  A holder that died stops refreshing the file; once its
       mtime is older than the staleness horizon, take it over. *)
    match Unix.stat lock_path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
      (* released between our two looks; retry the create once *)
      match attempt () with Some c -> `Claimed c | None -> `Busy)
    | { Unix.st_mtime; _ } ->
      if Unix.gettimeofday () -. st_mtime <= stale_after_s then `Busy
      else begin
        (try Sys.remove lock_path with Sys_error _ -> ());
        match attempt () with Some c -> `Claimed c | None -> `Busy
      end)

