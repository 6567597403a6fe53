(* Resident-daemon tests: wire-protocol codecs and framing, the
   in-process single-flight table, admission control, warm resubmission
   (zero simulation work, no domain respawn), concurrent-client dedup
   (exactly one fresh run), no flight left open by a failed submission,
   graceful drain with an in-flight batch, and the periodic store-GC
   pass holding the byte bound while batches append. *)

module P = Daemon.Protocol

let sexps s = Events.Sexp.parse_string s

(* Unique relative paths per daemon: dune sandboxes the test cwd, and
   short relative socket paths dodge the 108-byte sockaddr_un limit. *)
let fresh_conf =
  let counter = ref 0 in
  fun () ->
    incr counter;
    {
      (Daemon.default_conf
         ~socket_path:(Printf.sprintf "_dmn_%d.sock" !counter)
         ~store_dir:(Printf.sprintf "_dmn_store_%d" !counter))
      with
      Daemon.jobs = Some 1;
      log = false;
    }

let tiny_form ?(seed = 1) ?(cc = "cubic") label =
  Printf.sprintf
    "(preset (label %s) (cc %s) (seed %d) (duration-s 0.5) (sampling-ms 100))"
    label cc seed

let submit ?seed ?cc label = P.Submit (sexps (tiny_form ?seed ?cc label))

let batch_reply = function
  | P.Batch b -> b
  | P.Error (_, msg) -> Alcotest.failf "unexpected error reply: %s" msg
  | _ -> Alcotest.fail "expected a batch reply"

(* --- protocol codecs --- *)

let request_roundtrip () =
  List.iter
    (fun req ->
      Alcotest.(check bool)
        "request survives render/parse" true
        (P.parse_request (P.render_request req) = req))
    [
      P.Submit (sexps "(preset (label x) (cc cubic) (seed 3))");
      P.Submit (sexps "(grid (ccs cubic lia) (seeds 1 2)) (status-also fine)");
      P.Status;
      P.Stats;
      P.Invalidate;
      P.Gc 4096;
      P.Gc 0;
      P.Drain;
    ]

let response_roundtrip () =
  let outcome kind =
    {
      P.kind;
      hash = String.make 32 'f';
      label = "golden-cubic";
      tail_mbps = 88.4;
      opt_mbps = 90.;
      sim_events = 51_204;
    }
  in
  List.iter
    (fun resp ->
      Alcotest.(check bool)
        "response survives render/parse" true
        (P.parse_response (P.render_response resp) = resp))
    [
      P.Batch
        {
          P.outcomes = [ outcome P.Hit; outcome P.Fresh; outcome P.Shared ];
          entries = 3;
          hits = 1;
          fresh = 1;
          shared = 1;
          fresh_sim_events = 51_204;
        };
      P.Batch
        {
          P.outcomes = [];
          entries = 0;
          hits = 0;
          fresh = 0;
          shared = 0;
          fresh_sim_events = 0;
        };
      P.Status_reply
        {
          P.pid = 4242;
          draining = true;
          queue_depth = 7;
          inflight = 3;
          pool_domains = 4;
          store_records = 19;
        };
      P.Stats_reply
        {
          P.submissions = 12;
          served_entries = 40;
          s_hits = 30;
          s_fresh = 8;
          s_shared = 2;
          rejected = 1;
          protocol_errors = 5;
          gc_runs = 3;
          store_records = 19;
          store_bytes = 25_000;
          trend_entries = 40;
        };
      P.Invalidated 19;
      P.Gc_done
        {
          Serve.Store.examined = 19;
          evicted = 11;
          evicted_bytes = 14_000;
          kept = 8;
          kept_bytes = 11_000;
        };
      P.Drained;
    ]

(* The exact bytes of a batch reply and a gc reply: a change to either
   frame must show here, not only in a round trip through the same
   code. *)
let frame_bytes () =
  let batch =
    P.Batch
      {
        P.outcomes =
          [
            {
              P.kind = P.Shared;
              hash = String.make 32 'f';
              label = "golden-cubic";
              tail_mbps = 88.4;
              opt_mbps = 90.;
              sim_events = 51_204;
            };
          ];
        entries = 1;
        hits = 0;
        fresh = 0;
        shared = 1;
        fresh_sim_events = 0;
      }
  in
  Alcotest.(check string)
    "batch frame"
    "(mptcp-daemon 1 (batch (entries 1) (hits 0) (fresh 0) (shared 1) \
     (fresh-sim-events 0) (outcomes (o shared \
     ffffffffffffffffffffffffffffffff golden-cubic 88.400000000000006 90 \
     51204))))"
    (P.render_response batch);
  Alcotest.(check string)
    "gc frame"
    "(mptcp-daemon 1 (gc-done (examined 19) (evicted 11) (evicted-bytes 14000) \
     (kept 8) (kept-bytes 11000)))"
    (P.render_response
       (P.Gc_done
          {
            examined = 19;
            evicted = 11;
            evicted_bytes = 14_000;
            kept = 8;
            kept_bytes = 11_000;
          }))

let error_roundtrip () =
  List.iter
    (fun kind ->
      match
        P.parse_response
          (P.render_response
             (P.Error (kind, "bad: (unbalanced \"quoted; text\")")))
      with
      | P.Error (kind', msg) ->
        Alcotest.(check bool) "error kind survives" true (kind = kind');
        Alcotest.(check bool) "error text survives" true
          (String.length msg > 0)
      | _ -> Alcotest.fail "error reply did not parse as an error")
    [ P.Parse; P.Version; P.Oversized; P.Busy; P.Draining; P.Failed ]

let float_precision () =
  let o =
    {
      P.kind = P.Fresh;
      hash = "h";
      label = "l";
      tail_mbps = 88.123456789012345;
      opt_mbps = 1. /. 3.;
      sim_events = 1;
    }
  in
  let resp =
    P.Batch
      {
        P.outcomes = [ o ];
        entries = 1;
        hits = 0;
        fresh = 1;
        shared = 0;
        fresh_sim_events = 1;
      }
  in
  match P.parse_response (P.render_response resp) with
  | P.Batch { P.outcomes = [ o' ]; _ } ->
    Alcotest.(check bool) "tail is bit-exact" true
      (o'.P.tail_mbps = o.P.tail_mbps);
    Alcotest.(check bool) "opt is bit-exact" true (o'.P.opt_mbps = o.P.opt_mbps)
  | _ -> Alcotest.fail "batch reply did not parse"

(* --- framing over a socketpair --- *)

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_raw fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let header n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.to_string b

let framing_roundtrip () =
  with_pair (fun a b ->
      P.write_frame a "hello (world)";
      P.write_frame a "";
      (match P.read_frame b with
      | P.Frame s -> Alcotest.(check string) "payload" "hello (world)" s
      | _ -> Alcotest.fail "expected a frame");
      (match P.read_frame b with
      | P.Frame s -> Alcotest.(check string) "empty payload" "" s
      | _ -> Alcotest.fail "expected the empty frame");
      Unix.close a;
      match P.read_frame b with
      | P.Eof -> ()
      | _ -> Alcotest.fail "clean close must read as Eof")

let framing_truncated () =
  with_pair (fun a b ->
      write_raw a (header 128 ^ String.make 40 'x');
      Unix.close a;
      match P.read_frame b with
      | P.Truncated -> ()
      | _ -> Alcotest.fail "mid-frame close must read as Truncated")

let framing_too_large () =
  with_pair (fun a b ->
      write_raw a (header (P.max_frame + 17));
      match P.read_frame b with
      | P.Too_large n ->
        Alcotest.(check int) "declared length" (P.max_frame + 17) n
      | _ -> Alcotest.fail "oversized prefix must read as Too_large")

let framing_idle_stop () =
  with_pair (fun _a b ->
      match P.read_frame ~idle_stop:(fun () -> true) b with
      | P.Idle_stop -> ()
      | _ -> Alcotest.fail "idle_stop must stop an idle read")

let framing_write_limit () =
  with_pair (fun a _b ->
      Alcotest.check_raises "oversized write refused"
        (Invalid_argument
           (Printf.sprintf "Protocol.write_frame: %d bytes > max_frame"
              (P.max_frame + 1)))
        (fun () -> P.write_frame a (String.make (P.max_frame + 1) 'x')))

(* --- the single-flight table --- *)

let flights_roles () =
  let f = Serve.Service.Flights.create () in
  match Serve.Service.Flights.enter f ~hash:"h" with
  | Serve.Service.Flights.Follower _ -> Alcotest.fail "first entrant must lead"
  | Serve.Service.Flights.Leader slot -> (
    Alcotest.(check int) "one flight open" 1 (Serve.Service.Flights.inflight f);
    match Serve.Service.Flights.enter f ~hash:"h" with
    | Serve.Service.Flights.Leader _ ->
      Alcotest.fail "second entrant must follow"
    | Serve.Service.Flights.Follower slot' ->
      Alcotest.(check int)
        "still one flight" 1
        (Serve.Service.Flights.inflight f);
      Serve.Service.Flights.publish f ~hash:"h" slot (Error Exit);
      (match Serve.Service.Flights.wait f slot' with
      | Error Exit -> ()
      | _ -> Alcotest.fail "follower must see the published result");
      Alcotest.(check int)
        "flight retired" 0
        (Serve.Service.Flights.inflight f);
      (* retired: the next entrant opens a fresh flight *)
      (match Serve.Service.Flights.enter f ~hash:"h" with
      | Serve.Service.Flights.Leader slot2 ->
        Serve.Service.Flights.publish f ~hash:"h" slot2 (Error Exit)
      | Serve.Service.Flights.Follower _ ->
        Alcotest.fail "a retired hash must lead again"))

let flights_cross_thread () =
  let f = Serve.Service.Flights.create () in
  match Serve.Service.Flights.enter f ~hash:"x" with
  | Serve.Service.Flights.Follower _ -> Alcotest.fail "first entrant must lead"
  | Serve.Service.Flights.Leader slot ->
    let got = ref None in
    let waiter =
      Thread.create
        (fun () ->
          match Serve.Service.Flights.enter f ~hash:"x" with
          | Serve.Service.Flights.Follower s ->
            got := Some (Serve.Service.Flights.wait f s)
          | Serve.Service.Flights.Leader _ -> ())
        ()
    in
    Thread.delay 0.05;
    Serve.Service.Flights.publish f ~hash:"x" slot (Error Not_found);
    Thread.join waiter;
    (match !got with
    | Some (Error Not_found) -> ()
    | Some _ -> Alcotest.fail "waiter saw the wrong result"
    | None -> Alcotest.fail "waiter entered as leader or never waited")

(* --- daemon behaviour (in-process handle + sockets) --- *)

let with_daemon ?(conf = fresh_conf ()) ?(serve = false) f =
  let t = Daemon.start conf in
  let server = if serve then Some (Thread.create Daemon.serve t) else None in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Daemon.handle t P.Drain) with _ -> ());
      match server with
      | Some th -> Thread.join th
      | None ->
        (* no serve loop: its cleanup never ran, so mimic it *)
        (try Sys.remove conf.Daemon.socket_path with Sys_error _ -> ()))
    (fun () -> f conf t)

let warm_resubmission () =
  with_daemon (fun _conf t ->
      Engine.Pool.reset_global_stats ();
      let pools0 = Engine.Pool.global_pools () in
      let b1 = batch_reply (Daemon.handle t (submit "warm")) in
      Alcotest.(check int) "first pass simulates" 1 b1.P.fresh;
      Alcotest.(check bool) "first pass did work" true
        (b1.P.fresh_sim_events > 0);
      let b2 = batch_reply (Daemon.handle t (submit "warm")) in
      Alcotest.(check int) "second pass all hits" 1 b2.P.hits;
      Alcotest.(check int)
        "second pass does zero simulation work" 0 b2.P.fresh_sim_events;
      Alcotest.(check int)
        "no pool was respawned between submissions" pools0
        (Engine.Pool.global_pools ());
      match Daemon.handle t P.Stats with
      | P.Stats_reply s ->
        Alcotest.(check int) "two submissions counted" 2 s.P.submissions;
        Alcotest.(check int) "one fresh, one hit" 1 s.P.s_fresh;
        Alcotest.(check int) "trend logged both passes" 2 s.P.trend_entries
      | _ -> Alcotest.fail "expected a stats reply")

let concurrent_clients_dedup () =
  with_daemon (fun _conf t ->
      let req = submit ~seed:7 "dedup" in
      let r1 = ref None and r2 = ref None in
      let client r () = r := Some (Daemon.handle t req) in
      let a = Thread.create (client r1) () in
      let b = Thread.create (client r2) () in
      Thread.join a;
      Thread.join b;
      let kinds =
        List.concat_map
          (fun r ->
            match !r with
            | Some (P.Batch b) -> List.map (fun o -> o.P.kind) b.P.outcomes
            | _ -> Alcotest.fail "a client did not get a batch reply")
          [ r1; r2 ]
      in
      let count k = List.length (List.filter (( = ) k) kinds) in
      Alcotest.(check int) "exactly one fresh run" 1 (count P.Fresh);
      Alcotest.(check int)
        "the other client shared or hit" 1
        (count P.Hit + count P.Shared);
      Alcotest.(check int) "one record stored" 1
        (Serve.Store.count (Daemon.store t)))

let admission_bound () =
  with_daemon
    ~conf:{ (fresh_conf ()) with Daemon.max_queue = 1 }
    (fun _conf t ->
      (match
         Daemon.handle t
           (P.Submit
              (sexps (tiny_form "one" ^ " " ^ tiny_form ~seed:2 "two")))
       with
      | P.Error (P.Busy, _) -> ()
      | _ -> Alcotest.fail "a 2-entry batch must bounce off max_queue 1");
      match Daemon.handle t P.Stats with
      | P.Stats_reply s ->
        Alcotest.(check int) "rejection counted" 1 s.P.rejected
      | _ -> Alcotest.fail "expected a stats reply")

let bad_requests_over_socket () =
  let conf = fresh_conf () in
  with_daemon ~conf ~serve:true (fun conf t ->
      let socket = conf.Daemon.socket_path in
      (* malformed batch forms inside a well-formed request *)
      (match
         P.call_once ~socket (P.Submit (sexps "(preset (cc warp-speed))"))
       with
      | P.Error ((P.Parse | P.Failed), _) -> ()
      | _ -> Alcotest.fail "a bad batch must get a typed error");
      (* empty submissions are refused, not simulated *)
      (match P.call_once ~socket (P.Submit []) with
      | P.Error ((P.Parse | P.Failed), _) -> ()
      | _ -> Alcotest.fail "an empty batch must get a typed error");
      (* a negative gc budget is the store's Invalid_argument, typed *)
      (match P.call_once ~socket (P.Gc (-1)) with
      | P.Error (P.Failed, _) -> ()
      | _ -> Alcotest.fail "a negative budget must get a typed error");
      (* and the daemon still serves fine afterwards *)
      (match P.call_once ~socket P.Status with
      | P.Status_reply s ->
        Alcotest.(check bool) "not draining" false s.P.draining
      | _ -> Alcotest.fail "status after bad requests failed");
      ignore t)

(* A submission that fails part-way must still publish every flight
   it opened; otherwise [status] counts it in flight forever and a
   later submission of that spec waits on it.  The second spec's
   record path is a directory, so its run fails after the first spec's
   flight has opened. *)
let failed_submission_leaves_no_flight () =
  with_daemon (fun _conf t ->
      let blocked = tiny_form ~seed:32 "blocked" in
      let hash =
        match Serve.Batch.of_sexps ~base_dir:"." (sexps blocked) with
        | [ e ] -> Serve.Service.hash_entry e
        | _ -> Alcotest.fail "expected one entry"
      in
      let path = Serve.Store.record_path (Daemon.store t) ~hash in
      (try Unix.mkdir (Filename.dirname path) 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Unix.mkdir path 0o755;
      (match
         Daemon.handle t
           (P.Submit (sexps (tiny_form ~seed:31 "ok" ^ " " ^ blocked)))
       with
      | P.Error (P.Failed, _) -> ()
      | _ -> Alcotest.fail "the failed run must get a typed failed reply");
      match Daemon.handle t P.Status with
      | P.Status_reply s ->
        Alcotest.(check int) "no flight left open" 0 s.P.inflight;
        Alcotest.(check int) "nothing queued" 0 s.P.queue_depth
      | _ -> Alcotest.fail "expected a status reply")

let drain_with_in_flight () =
  let conf = fresh_conf () in
  let t = Daemon.start conf in
  let server = Thread.create Daemon.serve t in
  let reply = ref None in
  let client =
    Thread.create
      (fun () ->
        reply :=
          Some
            (P.call_once ~socket:conf.Daemon.socket_path
               (submit ~seed:11 "drainee")))
      ()
  in
  (* wait until the submission is actually in flight *)
  let rec wait_busy tries =
    if tries = 0 then Alcotest.fail "submission never became in-flight";
    match Daemon.handle t P.Status with
    | P.Status_reply s when s.P.queue_depth > 0 -> ()
    | _ ->
      Thread.delay 0.01;
      wait_busy (tries - 1)
  in
  wait_busy 1000;
  Daemon.initiate_drain t;
  (* new work is refused with the typed drain error *)
  (match Daemon.handle t (submit "latecomer") with
  | P.Error (P.Draining, _) -> ()
  | _ -> Alcotest.fail "a submission during drain must be refused");
  Thread.join client;
  Thread.join server;
  (* the in-flight client got its complete reply *)
  (match !reply with
  | Some (P.Batch b) ->
    Alcotest.(check int) "in-flight batch completed" 1 b.P.fresh;
    Alcotest.(check bool) "with real work" true (b.P.fresh_sim_events > 0)
  | _ -> Alcotest.fail "the in-flight client lost its reply");
  (* the socket is gone and the results landed durably *)
  Alcotest.(check bool)
    "socket unlinked" false
    (Sys.file_exists conf.Daemon.socket_path);
  let st = Serve.Store.open_store ~dir:conf.Daemon.store_dir in
  Alcotest.(check int) "record persisted" 1 (Serve.Store.count st);
  let entries, _ = Serve.Trend.load ~dir:conf.Daemon.store_dir in
  Alcotest.(check int) "trend flushed" 1 (List.length entries)

let periodic_gc_bounds_store () =
  let budget = 3_000 in
  let conf =
    {
      (fresh_conf ()) with
      Daemon.gc_max_bytes = Some budget;
      gc_interval_s = 0.1;
    }
  in
  (* serve so the helper threads run; submissions go in-process *)
  with_daemon ~conf ~serve:true (fun _conf t ->
      (* keep appending batches; after each one the periodic pass must
         bring the store back under the byte bound *)
      List.iter
        (fun seed ->
          let b =
            batch_reply
              (Daemon.handle t
                 (submit ~seed (Printf.sprintf "gc-%d" seed)))
          in
          Alcotest.(check int) "each batch simulates" 1 b.P.fresh;
          let rec wait_bound tries =
            if Serve.Store.bytes (Daemon.store t) <= budget then ()
            else if tries = 0 then
              Alcotest.failf "store stayed over budget: %d > %d bytes"
                (Serve.Store.bytes (Daemon.store t))
                budget
            else begin
              Thread.delay 0.05;
              wait_bound (tries - 1)
            end
          in
          wait_bound 100)
        [ 21; 22; 23; 24 ];
      Alcotest.(check bool) "the gc pass actually ran" true
        (Serve.Store.evicted_total (Daemon.store t) > 0);
      match Daemon.handle t P.Stats with
      | P.Stats_reply s ->
        Alcotest.(check bool) "gc runs counted" true (s.P.gc_runs > 0)
      | _ -> Alcotest.fail "expected a stats reply")

let () =
  Alcotest.run "daemon"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick response_roundtrip;
          Alcotest.test_case "error roundtrip" `Quick error_roundtrip;
          Alcotest.test_case "frame bytes" `Quick frame_bytes;
          Alcotest.test_case "float precision" `Quick float_precision;
        ] );
      ( "framing",
        [
          Alcotest.test_case "roundtrip and eof" `Quick framing_roundtrip;
          Alcotest.test_case "truncated" `Quick framing_truncated;
          Alcotest.test_case "too large" `Quick framing_too_large;
          Alcotest.test_case "idle stop" `Quick framing_idle_stop;
          Alcotest.test_case "write limit" `Quick framing_write_limit;
        ] );
      ( "flights",
        [
          Alcotest.test_case "leader and follower" `Quick flights_roles;
          Alcotest.test_case "cross-thread wait" `Quick flights_cross_thread;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "warm resubmission is free" `Slow
            warm_resubmission;
          Alcotest.test_case "concurrent clients dedup" `Slow
            concurrent_clients_dedup;
          Alcotest.test_case "admission bound" `Quick admission_bound;
          Alcotest.test_case "bad requests over the socket" `Quick
            bad_requests_over_socket;
          Alcotest.test_case "failed submission leaves no flight" `Slow
            failed_submission_leaves_no_flight;
          Alcotest.test_case "drain with in-flight batch" `Slow
            drain_with_in_flight;
          Alcotest.test_case "periodic gc bounds the store" `Slow
            periodic_gc_bounds_store;
        ] );
    ]
