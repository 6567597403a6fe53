(* One int bin per window for each tag seen, and one for the total,
   sized when the capture starts: a packet adds to two bins and
   allocates nothing.  A run sees a handful of tags, so the tag lookup
   is a short list walk. *)
type t = {
  window : Engine.Time.t;
  until : Engine.Time.t;
  total : int array;
  mutable tags : (Packet.tag * int array) list;
}

let create ~window ~until =
  if Engine.Time.( <= ) window Engine.Time.zero then
    invalid_arg "Capture.create: window must be positive";
  let nbins = max 1 ((until + window - 1) / window) in
  { window; until; total = Array.make nbins 0; tags = [] }

let bins_of t tag =
  try List.assq tag t.tags
  with Not_found ->
    let bins = Array.make (Array.length t.total) 0 in
    t.tags <- (tag, bins) :: t.tags;
    bins

let record t ~time ~tag ~bytes =
  let bins = bins_of t tag in
  if time < t.until then begin
    let i = time / t.window in
    bins.(i) <- bins.(i) + bytes;
    t.total.(i) <- t.total.(i) + bytes
  end

let attach net ~node ~conn ~window ~until =
  let t = create ~window ~until in
  let sched = Netsim.Net.sched net in
  Engine.Tap.subscribe (Netsim.Net.arrival_tap net ~node) (fun p ->
      if
        p.Packet.dst = node && Packet.is_data p
        && (Packet.tcp_exn p).Packet.conn = conn
      then
        record t ~time:(Engine.Sched.now sched) ~tag:p.Packet.tag
          ~bytes:p.Packet.size);
  t

let series t bins =
  let w_s = Engine.Time.to_float_s t.window in
  Series.create ~t0:0.0 ~dt:w_s
    (Array.map (fun b -> float_of_int (b * 8) /. w_s /. 1e6) bins)

let per_tag t =
  let tags = List.sort (fun (a, _) (b, _) -> Int.compare a b) t.tags in
  (List.map (fun (tag, bins) -> (tag, series t bins)) tags, series t t.total)
