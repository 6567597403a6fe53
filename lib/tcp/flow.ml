type t = {
  sender : Sender.t;
  mutable delivered : int;
  mutable completed_at : Engine.Time.t option;
  total_bytes : int option;
}

let start ~src ~dst ~tag ~conn ?(config = Sender.default_config)
    ?(cc = Cc_cubic.factory) ?(delayed_ack = false) ?total_bytes () =
  let net = Endpoint.net src in
  let sched = Netsim.Net.sched net in
  let fresh_id () = Netsim.Net.fresh_packet_id net in
  let next_byte = ref 0 in
  let source ~max_len =
    let remaining =
      match total_bytes with
      | None -> max_len
      | Some total -> min max_len (total - !next_byte)
    in
    if remaining <= 0 then None
    else begin
      next_byte := !next_byte + remaining;
      Some { Sender.dss = None; len = remaining }
    end
  in
  let t =
    {
      sender =
        Sender.create ~sched ~config ~conn ~subflow:0
          ~src:(Endpoint.node src) ~dst:(Endpoint.node dst) ~tag ~fresh_id
          ~transmit:(fun p -> Netsim.Net.inject net ~at:(Endpoint.node src) p)
          ~pool:(Netsim.Net.pool net) ~source ~cc ();
      delivered = 0;
      completed_at = None;
      total_bytes;
    }
  in
  let receiver =
    Receiver.create ~sched ~conn ~subflow:0 ~addr:(Endpoint.node dst)
      ~peer:(Endpoint.node src) ~tag ~fresh_id
      ~transmit:(fun p ->
        Netsim.Net.inject (Endpoint.net dst) ~at:(Endpoint.node dst) p)
      ~pool:(Netsim.Net.pool (Endpoint.net dst))
      ~on_deliver:(fun ~seq:_ ~len ~dss:_ ->
        t.delivered <- t.delivered + len;
        match t.total_bytes with
        | Some total when t.delivered >= total && t.completed_at = None ->
          t.completed_at <- Some (Engine.Sched.now sched)
        | Some _ | None -> ())
      ~data_ack:(fun () -> 0)
      ~delayed_ack ()
  in
  Endpoint.register dst ~conn ~subflow:0 (fun p ->
      Receiver.handle_data receiver p);
  Endpoint.register src ~conn ~subflow:0 (fun p ->
      Sender.handle_ack t.sender (Packet.tcp_exn p));
  Engine.Sched.at_anon sched Engine.Time.zero (fun () -> Sender.kick t.sender);
  t

let sender t = t.sender
let bytes_delivered t = t.delivered
let completed_at t = t.completed_at

let goodput_bps t ~now =
  let dt = Engine.Time.to_float_s now in
  if dt <= 0.0 then 0.0 else float_of_int (t.delivered * 8) /. dt
