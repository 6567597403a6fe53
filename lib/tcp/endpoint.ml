(* Demux keys are packed to one immediate int — (conn lsl 8) lor subflow —
   so the per-packet lookup in an [Engine.Int_table] neither allocates
   a pair or an option nor runs the polymorphic hash.  8 bits of
   subflow is far beyond the paper's 2–4 subflows; register rejects the
   rest. *)

let subflow_bits = 8
let subflow_mask = (1 lsl subflow_bits) - 1

let demux_key ~conn ~subflow = (conn lsl subflow_bits) lor subflow

let check_demux_key ~conn ~subflow =
  if
    conn < 0 || subflow < 0 || subflow > subflow_mask
    || conn > max_int lsr subflow_bits
  then invalid_arg "Endpoint.register: conn or subflow out of range"

type t = {
  net : Netsim.Net.t;
  node : int;
  handlers : (Packet.t -> unit) Engine.Int_table.t;
  mutable unmatched : int;
}

(* The handler table's answer for an unregistered key; never
   registered itself, so [==] tells a miss. *)
let no_handler (_ : Packet.t) = ()

let create net ~node =
  let t =
    { net; node; handlers = Engine.Int_table.create ~absent:no_handler ();
      unmatched = 0 }
  in
  Netsim.Net.attach_host net ~node (fun p ->
      match p.Packet.body with
      | Packet.Plain -> ()
      | Packet.Tcp tcp ->
        let f =
          Engine.Int_table.find t.handlers
            (demux_key ~conn:tcp.Packet.conn ~subflow:tcp.Packet.subflow)
        in
        if f == no_handler then t.unmatched <- t.unmatched + 1 else f p);
  t

let node t = t.node
let net t = t.net

let register t ~conn ~subflow f =
  check_demux_key ~conn ~subflow;
  let key = demux_key ~conn ~subflow in
  if Engine.Int_table.mem t.handlers key then
    invalid_arg "Endpoint.register: already registered";
  Engine.Int_table.replace t.handlers key f
let unmatched t = t.unmatched
