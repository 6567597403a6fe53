(* Growable flat FIFO of packets with per-slot enqueue timestamps.

   Two parallel arrays replace the old [(Packet.t * Time.t) Queue.t]: no
   boxed pair and no list cell per enqueue, and freed slots are nulled
   to a shared dummy so the ring retains no packet beyond its dequeue
   (the same capacity/compaction discipline as [Engine.Heap]). *)

type t = {
  mutable pkts : Packet.t array;
  mutable stamps : int array; (* enqueue time, ns *)
  mutable head : int;         (* index of the oldest element *)
  mutable len : int;
}

(* Shared empty-slot filler; never handed out.  A plain record (not a
   pooled packet) so it can never alias live traffic. *)
let nil : Packet.t =
  Packet.make_plain ~id:max_int ~src:(-1) ~dst:(-1) ~tag:(-1)
    ~born:Engine.Time.zero ~size:1

let default_capacity = 16

let create ?(capacity = default_capacity) () =
  let capacity = max capacity 1 in
  { pkts = Array.make capacity nil; stamps = Array.make capacity 0;
    head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.pkts

let grow t =
  let cap = Array.length t.pkts in
  let fresh_cap = 2 * cap in
  let pkts = Array.make fresh_cap nil in
  let stamps = Array.make fresh_cap 0 in
  (* Unroll the ring so head restarts at 0. *)
  let tail_n = min t.len (cap - t.head) in
  Array.blit t.pkts t.head pkts 0 tail_n;
  Array.blit t.stamps t.head stamps 0 tail_n;
  if tail_n < t.len then begin
    Array.blit t.pkts 0 pkts tail_n (t.len - tail_n);
    Array.blit t.stamps 0 stamps tail_n (t.len - tail_n)
  end;
  t.pkts <- pkts;
  t.stamps <- stamps;
  t.head <- 0

let[@inline] push t p ~stamp =
  let cap = Array.length t.pkts in
  if t.len = cap then grow t;
  let cap = Array.length t.pkts in
  let i = t.head + t.len in
  let i = if i >= cap then i - cap else i in
  t.pkts.(i) <- p;
  t.stamps.(i) <- stamp;
  t.len <- t.len + 1

let[@inline] head_stamp t =
  if t.len = 0 then invalid_arg "Pktring.head_stamp: empty";
  t.stamps.(t.head)

let[@inline] pop t =
  if t.len = 0 then invalid_arg "Pktring.pop: empty";
  let i = t.head in
  let p = t.pkts.(i) in
  t.pkts.(i) <- nil;
  let cap = Array.length t.pkts in
  let h = i + 1 in
  t.head <- (if h >= cap then 0 else h);
  t.len <- t.len - 1;
  p

let iter t f =
  let cap = Array.length t.pkts in
  for k = 0 to t.len - 1 do
    let i = t.head + k in
    let i = if i >= cap then i - cap else i in
    f t.pkts.(i)
  done

let clear t =
  let cap = Array.length t.pkts in
  for k = 0 to t.len - 1 do
    let i = t.head + k in
    let i = if i >= cap then i - cap else i in
    t.pkts.(i) <- nil
  done;
  t.head <- 0;
  t.len <- 0
