(* trend.log: one "(run <version> ...)" sexp per line, appended with
   O_APPEND so concurrent serve processes interleave whole lines.  The
   loader is deliberately forgiving — skip-and-count — because an
   append-only history accretes across format changes and crashes. *)

let line_version = 1

type entry = {
  at_unix : float;
  label : string;
  hash : string;
  cc : string;
  cached : bool;
  tail_mbps : float;
  opt_mbps : float;
  wall_s : float;
  delivered_bytes : int;
  sim_events : int;
}

let entry_of_record ~at_unix ~cached (r : Store.record) =
  {
    at_unix;
    label = r.Store.label;
    hash = r.Store.hash;
    cc = r.Store.cc;
    cached;
    tail_mbps = r.Store.tail_mbps;
    opt_mbps = r.Store.opt_mbps;
    wall_s = r.Store.wall_s;
    delivered_bytes = r.Store.delivered_bytes;
    sim_events = r.Store.sim_events;
  }

let line_of_entry e =
  let open Events.Sexp in
  Printf.sprintf
    "(run %d (at %s) (label %s) (hash %s) (cc %s) (cached %b) (tail-mbps %s) \
     (opt-mbps %s) (wall-s %s) (delivered %d) (sim-events %d))\n"
    line_version (f17 e.at_unix) e.label e.hash e.cc e.cached (f17 e.tail_mbps)
    (f17 e.opt_mbps) (f17 e.wall_s) e.delivered_bytes e.sim_events

let log_path dir = Filename.concat dir "trend.log"

let append ~dir e =
  let fd =
    Unix.openfile (log_path dir)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let line = Bytes.of_string (line_of_entry e) in
      ignore (Unix.write fd line 0 (Bytes.length line)))

let entry_of_line line =
  let open Events.Sexp in
  match parse_string line with
  | [ List (Atom "run" :: Atom v :: fields) ]
    when int_of_string_opt v = Some line_version ->
    Some
      {
        at_unix = scalar "at" float_exn fields;
        label = scalar "label" atom_exn fields;
        hash = scalar "hash" atom_exn fields;
        cc = scalar "cc" atom_exn fields;
        cached = scalar "cached" (fun s -> atom_exn s = "true") fields;
        tail_mbps = scalar "tail-mbps" float_exn fields;
        opt_mbps = scalar "opt-mbps" float_exn fields;
        wall_s = scalar "wall-s" float_exn fields;
        delivered_bytes = scalar "delivered" int_exn fields;
        sim_events = scalar "sim-events" int_exn fields;
      }
  | _ -> None

let load ~dir =
  let path = log_path dir in
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let ic = open_in path in
    let entries = ref [] and skipped = ref 0 in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            if String.trim line <> "" then
              match entry_of_line line with
              | Some e -> entries := e :: !entries
              | None | (exception Events.Sexp.Parse_error _) -> incr skipped
          done
        with End_of_file -> ());
    (List.rev !entries, !skipped)
  end

(* --- the report table --- *)

let drop_to_last n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let report ?(perf = false) ?last fmt entries =
  let entries =
    match last with None -> entries | Some n -> drop_to_last n entries
  in
  (* Group by label, preserving first-submission order. *)
  let order = ref [] in
  let groups : (string, entry list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt groups e.label with
      | Some cell -> cell := e :: !cell
      | None ->
        order := e.label :: !order;
        Hashtbl.add groups e.label (ref [ e ]))
    entries;
  let labels = List.rev !order in
  if labels = [] then Format.fprintf fmt "trend store is empty@."
  else begin
    Format.fprintf fmt "@[<v>";
    if perf then
      Format.fprintf fmt "%-24s %-6s %4s %4s  %21s %8s  %17s@," "label" "cc"
        "runs" "hits" "tail Mbps first->last" "opt Mbps" "wall s first->last"
    else
      Format.fprintf fmt "%-24s %-6s %4s %4s  %21s %8s@," "label" "cc" "runs"
        "hits" "tail Mbps first->last" "opt Mbps";
    List.iter
      (fun label ->
        let runs = List.rev !(Hashtbl.find groups label) in
        let first = List.hd runs and last = List.nth runs (List.length runs - 1) in
        let hits = List.length (List.filter (fun e -> e.cached) runs) in
        let arrow =
          Printf.sprintf "%.1f -> %.1f" first.tail_mbps last.tail_mbps
        in
        if perf then
          Format.fprintf fmt "%-24s %-6s %4d %4d  %21s %8.1f  %8.3f -> %.3f@,"
            label first.cc (List.length runs) hits arrow last.opt_mbps
            first.wall_s last.wall_s
        else
          Format.fprintf fmt "%-24s %-6s %4d %4d  %21s %8.1f@," label first.cc
            (List.length runs) hits arrow last.opt_mbps)
      labels;
    Format.fprintf fmt "@]"
  end
