type t = {
  mutable running : bool;
  mutable packets : int;
  mutable bytes : int;
}

let stop t = t.running <- false
let packets_sent t = t.packets
let bytes_sent t = t.bytes

let interval ~pkt_bytes ~rate_bps =
  Engine.Time.tx_time ~bits:(pkt_bytes * 8) ~rate_bps

(* Packets come from the net's pool, which gets every one back at its
   terminal fate: [pool] is the preallocated [Some (Net.pool net)], so
   the call boxes nothing. *)
let send net ~pool t ~src ~dst ~tag ~pkt_bytes =
  let sched = Net.sched net in
  let p =
    Packet.Pool.acquire_plain ?pool ~id:(Net.fresh_packet_id net) ~src ~dst
      ~tag ~born:(Engine.Sched.now sched) ~size:pkt_bytes ()
  in
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + pkt_bytes;
  Net.inject net ~at:src p

let cbr ~net ~src ~dst ~tag ~rate_bps ?(pkt_bytes = 1500)
    ?(start = Engine.Time.zero) ?stop_at () =
  if rate_bps <= 0 then invalid_arg "Traffic.cbr: rate must be positive";
  let sched = Net.sched net in
  let t = { running = true; packets = 0; bytes = 0 } in
  let pool = Some (Net.pool net) in
  let gap = interval ~pkt_bytes ~rate_bps in
  let expired () =
    match stop_at with
    | None -> false
    | Some horizon -> Engine.Time.( >= ) (Engine.Sched.now sched) horizon
  in
  let rec tick () =
    if t.running && not (expired ()) then begin
      send net ~pool t ~src ~dst ~tag ~pkt_bytes;
      Engine.Sched.after_anon sched gap tick
    end
  in
  Engine.Sched.at_anon sched start tick;
  t

let on_off ~net ~rng ~src ~dst ~tag ~rate_bps ~mean_on ~mean_off ?stop_at () =
  let pkt_bytes = 1500 in
  if rate_bps <= 0 then invalid_arg "Traffic.on_off: rate must be positive";
  let sched = Net.sched net in
  let t = { running = true; packets = 0; bytes = 0 } in
  let pool = Some (Net.pool net) in
  let gap = interval ~pkt_bytes ~rate_bps in
  let expired () =
    match stop_at with
    | None -> false
    | Some horizon -> Engine.Time.( >= ) (Engine.Sched.now sched) horizon
  in
  let draw mean =
    Engine.Time.of_float_s
      (Engine.Rng.exponential rng ~mean:(Engine.Time.to_float_s mean))
  in
  let rec burst until =
    if t.running && not (expired ()) then
      if Engine.Time.( < ) (Engine.Sched.now sched) until then begin
        send net ~pool t ~src ~dst ~tag ~pkt_bytes;
        Engine.Sched.after_anon sched gap (fun () -> burst until)
      end
      else
        Engine.Sched.after_anon sched (draw mean_off) start_burst
  and start_burst () =
    if t.running && not (expired ()) then
      burst (Engine.Time.add (Engine.Sched.now sched) (draw mean_on))
  in
  Engine.Sched.at_anon sched Engine.Time.zero start_burst;
  t
