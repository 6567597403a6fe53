type event = { time : Engine.Time.t; node : int; packet : Packet.t }

type t = {
  mutable items : event array;
  mutable size : int;
  limit : int;
  mutable dropped : int;
}

let record t ev =
  if t.size >= t.limit then t.dropped <- t.dropped + 1
  else begin
    let cap = Array.length t.items in
    if cap = 0 then t.items <- Array.make 256 ev
    else if t.size = cap then begin
      let fresh = Array.make (2 * cap) ev in
      Array.blit t.items 0 fresh 0 t.size;
      t.items <- fresh
    end;
    t.items.(t.size) <- ev;
    t.size <- t.size + 1
  end

let attach net ~nodes ?(keep = fun _ -> true) ?(limit = 100_000) () =
  if limit < 1 then invalid_arg "Trace.attach: limit must be >= 1";
  let t = { items = [||]; size = 0; limit; dropped = 0 } in
  let sched = Netsim.Net.sched net in
  List.iter
    (fun node ->
      Engine.Tap.subscribe (Netsim.Net.arrival_tap net ~node) (fun p ->
          (* Tap subscribers must not retain the (pooled, recyclable)
             packet past their return: snapshot it. *)
          if keep p then
            record t
              { time = Engine.Sched.now sched; node; packet = Packet.copy p }))
    nodes;
  t

let conn_filter conn p =
  match p.Packet.body with
  | Packet.Tcp tcp -> tcp.Packet.conn = conn
  | Packet.Plain -> false

let events t = Array.sub t.items 0 t.size
let count t = t.size
let dropped t = t.dropped

let to_text net t =
  let topo = Netsim.Net.topology net in
  let buf = Buffer.create 4096 in
  for i = 0 to t.size - 1 do
    let ev = t.items.(i) in
    Buffer.add_string buf
      (Format.asprintf "%.6f %s: %a@."
         (Engine.Time.to_float_s ev.time)
         (Netgraph.Topology.node_name topo ev.node)
         Packet.pp ev.packet)
  done;
  if t.dropped > 0 then
    Buffer.add_string buf (Printf.sprintf "... (%d more events)\n" t.dropped);
  Buffer.contents buf
