type kind =
  | Loop_dispatch
  | Link_enqueue
  | Link_dequeue
  | Link_drop
  | Link_lost
  | Tcp_sent
  | Tcp_retransmit
  | Tcp_ack
  | Tcp_cwnd
  | Tcp_state
  | Tcp_rx
  | Sched_grant
  | Sched_defer
  | Reinject
  | Subflow_state
  | Audit_violation
  | Metrics_snapshot

(* Stable dotted name used in both export formats. *)
let kind_name = function
  | Loop_dispatch -> "loop.dispatch"
  | Link_enqueue -> "link.enqueue"
  | Link_dequeue -> "link.dequeue"
  | Link_drop -> "link.drop"
  | Link_lost -> "link.lost"
  | Tcp_sent -> "tcp.sent"
  | Tcp_retransmit -> "tcp.retransmit"
  | Tcp_ack -> "tcp.ack"
  | Tcp_cwnd -> "tcp.cwnd"
  | Tcp_state -> "tcp.state"
  | Tcp_rx -> "tcp.rx"
  | Sched_grant -> "mptcp.sched.grant"
  | Sched_defer -> "mptcp.sched.defer"
  | Reinject -> "mptcp.reinject"
  | Subflow_state -> "mptcp.subflow.state"
  | Audit_violation -> "audit.violation"
  | Metrics_snapshot -> "metrics.snapshot"

type event = {
  kind : kind;
  sim_ns : int;
  wall_ns : int;
  track : int;
  a : int;
  b : int;
  label : string;
}

type t = {
  ring : event Ring.t;
  wall0 : float;
  track_names : (int, string) Hashtbl.t;
}

let capacity = 65536

let create () =
  {
    ring = Ring.create ~capacity;
    wall0 = Unix.gettimeofday ();
    track_names = Hashtbl.create 8;
  }

let record t kind ~sim_ns ~track ?(a = 0) ?(b = 0) ?(label = "") () =
  let wall_ns =
    int_of_float ((Unix.gettimeofday () -. t.wall0) *. 1e9)
  in
  Ring.push t.ring { kind; sim_ns; wall_ns; track; a; b; label }

let name_track t track name = Hashtbl.replace t.track_names track name
let events t = Ring.to_list t.ring
let recorded t = Ring.pushed t.ring
let dropped t = Ring.overwritten t.ring

(* Labels are invariant names and scenario tags — short ASCII — but the
   escaper still covers the full JSON string grammar. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_chrome t oc =
  output_string oc "[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else output_string oc ",\n";
    output_string oc line
  in
  Hashtbl.fold (fun track name acc -> (track, name) :: acc) t.track_names []
  |> List.sort compare
  |> List.iter (fun (track, name) ->
         emit
           (Printf.sprintf
              {|{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"%s"}}|}
              track (json_escape name)));
  Ring.iter
    (fun e ->
      let ts_us = float_of_int e.sim_ns /. 1e3 in
      emit
        (Printf.sprintf
           {|{"ph":"i","s":"t","name":"%s","pid":0,"tid":%d,"ts":%.3f,"args":{"a":%d,"b":%d,"wall_ns":%d%s}}|}
           (kind_name e.kind) e.track ts_us e.a e.b e.wall_ns
           (if e.label <> "" then
              Printf.sprintf {|,"label":"%s"|} (json_escape e.label)
            else "")))
    t.ring;
  output_string oc "\n]\n"

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let write_csv t oc =
  output_string oc "kind,sim_ns,wall_ns,track,a,b,label\n";
  Ring.iter
    (fun e ->
      Printf.fprintf oc "%s,%d,%d,%d,%d,%d,%s\n" (kind_name e.kind) e.sim_ns
        e.wall_ns e.track e.a e.b (csv_escape e.label))
    t.ring
