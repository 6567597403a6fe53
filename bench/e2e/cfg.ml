(* Settings of one workload run, from the command line, and the
   scratch-file and child-process housekeeping every run shares. *)

type t = {
  seed : int;
  seconds : float;  (* length of the measured window *)
  quick : bool;  (* about a tenth of the full scale *)
  tmp : string;  (* scratch directory under the working directory, removed on exit *)
}

(* Remove [path] and everything under it, as far as possible: an entry
   that cannot be removed is left in place, not raised. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    (try Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path)
     with Sys_error _ -> ());
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Short-lived children (workload processes, set-up probes) not yet
   waited for, so the exit handler can stop them. *)
let children : int list ref = ref []

(* Run [argv] to completion: its exit status. *)
let run_child argv =
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
  children := pid :: !children;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  children := List.filter (( <> ) pid) !children;
  status

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []
