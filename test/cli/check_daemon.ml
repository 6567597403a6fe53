(* Golden test for the resident daemon at the CLI level.

   Starts `mptcp_sim serve --listen` as a real subprocess, submits the
   same preset batch from two separate client processes, and pins both
   replies byte-for-byte: the first must simulate, the second must be
   all hits with `0 simulation events` — the warm-pool acceptance check.
   Then the daemon is killed with SIGKILL, so no drain runs and its
   socket file stays linked.  A second `serve --listen` on the same
   socket and store must start anyway and serve a third submission
   from the store (the second reply again: all hits, nothing
   re-simulated).  Finally `submit --drain` must exit 0, the new daemon
   must exit 0, and the socket file must be gone.

   Usage: check_daemon MPTCP_SIM BATCH EXPECTED1 EXPECTED2 *)

let sock = "daemon.sock"
let store = "daemon_store"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("check_daemon: " ^ s);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [exe args], stdout to [out_path] (and stderr to [err]), and
   return the exit code. *)
let run_capture ?(err = Unix.stderr) exe args out_path =
  let out =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin out err
  in
  Unix.close out;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n

let start_daemon exe =
  Unix.create_process exe
    [| exe; "serve"; "--listen"; sock; "--store"; store; "--jobs"; "1" |]
    Unix.stdin Unix.stdout Unix.stderr

(* Poll `submit --status` until the daemon answers.  A socket file
   alone proves nothing: a killed daemon leaves its own behind. *)
let wait_ready exe =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec poll () =
    let rc =
      run_capture ~err:null exe
        [ "submit"; "--socket"; sock; "--status" ]
        "daemon_status.out"
    in
    if rc = 0 then ()
    else if Unix.gettimeofday () > deadline then
      die "the daemon never answered submit --status"
    else begin
      ignore (Unix.select [] [] [] 0.05);
      poll ()
    end
  in
  Fun.protect ~finally:(fun () -> Unix.close null) poll

(* The daemon currently running, if any.  Reaped at exit, so neither
   a failed check ([die] exits) nor an exception orphans it. *)
let daemon = ref None

let () =
  at_exit (fun () ->
      match !daemon with
      | None -> ()
      | Some pid ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))

(* Wait for the current daemon to exit and return its status. *)
let reap () =
  match !daemon with
  | None -> die "no daemon to wait for"
  | Some pid ->
    let _, status = Unix.waitpid [] pid in
    daemon := None;
    status

let () =
  let exe, batch, expected1, expected2 =
    match Sys.argv with
    | [| _; exe; batch; e1; e2 |] -> (exe, batch, e1, e2)
    | _ -> die "usage: check_daemon MPTCP_SIM BATCH EXPECTED1 EXPECTED2"
  in
  if Sys.file_exists sock then Sys.remove sock;
  daemon := Some (start_daemon exe);
  wait_ready exe;
  let check what expected actual =
    let e = read_file expected and a = read_file actual in
    if e <> a then
      die "%s drifted\n--- expected (%s):\n%s--- got (%s):\n%s" what expected
        e actual a
  in
  let submit what out expected =
    let rc = run_capture exe [ "submit"; "--socket"; sock; batch ] out in
    if rc <> 0 then die "%s exited %d" what rc;
    check what expected out
  in
  (* client 1: a cold store, so everything simulates *)
  submit "first submission" "daemon1.out" expected1;
  (* client 2: the same batch from a second process must be served
     warm — all hits, zero simulation events, no respawned domains *)
  submit "second submission" "daemon2.out" expected2;
  (* crash: SIGKILL runs no drain, so the socket file stays linked *)
  Option.iter (fun pid -> Unix.kill pid Sys.sigkill) !daemon;
  (match reap () with
  | Unix.WSIGNALED n when n = Sys.sigkill -> ()
  | _ -> die "the daemon did not die on SIGKILL");
  if not (Sys.file_exists sock) then
    die "the killed daemon's socket file is gone; nothing to restart over";
  (* restart on the same socket and store: the stale socket file must
     not block it, and nothing is re-simulated *)
  daemon := Some (start_daemon exe);
  wait_ready exe;
  submit "submission after restart" "daemon3.out" expected2;
  (* drain: exits 0, the daemon exits 0, the socket is unlinked *)
  let rc =
    run_capture exe [ "submit"; "--socket"; sock; "--drain" ] "daemon_drain.out"
  in
  if rc <> 0 then die "submit --drain exited %d" rc;
  (match reap () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> die "the daemon exited %d after the drain" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> die "the daemon died on signal %d" n);
  if Sys.file_exists sock then die "the socket survived the drain";
  print_endline "daemon golden ok"
