type event = { time : Engine.Time.t; tag : Packet.tag; bytes : int }

(* Parallel int arrays instead of an array of event records: one data
   packet is one capture record, so a boxed event per packet would be
   steady-state allocation in the hot path.  The boxed view is built on
   demand by [events] (once per run, in Sampler). *)
type t = {
  mutable times : int array;
  mutable tags_ : int array;
  mutable sizes : int array;
  mutable size : int;
}

let create () = { times = [||]; tags_ = [||]; sizes = [||]; size = 0 }

let record t ~time ~tag ~bytes =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let fresh_cap = max 1024 (2 * cap) in
    let grow a =
      let fresh = Array.make fresh_cap 0 in
      Array.blit a 0 fresh 0 t.size;
      fresh
    in
    t.times <- grow t.times;
    t.tags_ <- grow t.tags_;
    t.sizes <- grow t.sizes
  end;
  t.times.(t.size) <- time;
  t.tags_.(t.size) <- tag;
  t.sizes.(t.size) <- bytes;
  t.size <- t.size + 1

let attach net ~node ?conn () =
  let t = create () in
  let sched = Netsim.Net.sched net in
  Engine.Tap.subscribe (Netsim.Net.arrival_tap net ~node) (fun p ->
      if p.Packet.dst = node && Packet.is_data p then begin
        let keep =
          match conn with
          | None -> true
          | Some c -> (Packet.tcp_exn p).Packet.conn = c
        in
        if keep then
          record t ~time:(Engine.Sched.now sched) ~tag:p.Packet.tag
            ~bytes:p.Packet.size
      end);
  t

let events t =
  Array.init t.size (fun i ->
      { time = t.times.(i); tag = t.tags_.(i); bytes = t.sizes.(i) })

let count t = t.size

let bytes_for_tag t tag =
  let acc = ref 0 in
  for i = 0 to t.size - 1 do
    if t.tags_.(i) = tag then acc := !acc + t.sizes.(i)
  done;
  !acc

let tags t =
  let seen = Hashtbl.create 8 in
  for i = 0 to t.size - 1 do
    Hashtbl.replace seen t.tags_.(i) ()
  done;
  Hashtbl.fold (fun tag () acc -> tag :: acc) seen [] |> List.sort Int.compare
