(* Growable flat FIFO of packet slots with per-element stamps.

   Two parallel int arrays: a link queue holds each packet's
   {!Packet.Pool} slot and its enqueue time, so neither a push nor a
   pop stores a pointer, and a freed element needs no nulling — an int
   left behind retains nothing. *)

type t = {
  mutable slots : int array;
  mutable stamps : int array;
  mutable head : int; (* index of the oldest element *)
  mutable len : int;
}

let default_capacity = 16

let create ?(capacity = default_capacity) () =
  let capacity = max capacity 1 in
  { slots = Array.make capacity 0; stamps = Array.make capacity 0; head = 0;
    len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.slots

let grow t =
  let cap = Array.length t.slots in
  let fresh_cap = 2 * cap in
  let slots = Array.make fresh_cap 0 in
  let stamps = Array.make fresh_cap 0 in
  (* Unroll the ring so head restarts at 0. *)
  let tail_n = min t.len (cap - t.head) in
  Array.blit t.slots t.head slots 0 tail_n;
  Array.blit t.stamps t.head stamps 0 tail_n;
  if tail_n < t.len then begin
    Array.blit t.slots 0 slots tail_n (t.len - tail_n);
    Array.blit t.stamps 0 stamps tail_n (t.len - tail_n)
  end;
  t.slots <- slots;
  t.stamps <- stamps;
  t.head <- 0

let[@inline] push t slot ~stamp =
  let cap = Array.length t.slots in
  if t.len = cap then grow t;
  let cap = Array.length t.slots in
  let i = t.head + t.len in
  let i = if i >= cap then i - cap else i in
  t.slots.(i) <- slot;
  t.stamps.(i) <- stamp;
  t.len <- t.len + 1

let[@inline] head_stamp t =
  if t.len = 0 then invalid_arg "Pktring.head_stamp: empty";
  t.stamps.(t.head)

let[@inline] pop t =
  if t.len = 0 then invalid_arg "Pktring.pop: empty";
  let i = t.head in
  let h = i + 1 in
  t.head <- (if h >= Array.length t.slots then 0 else h);
  t.len <- t.len - 1;
  t.slots.(i)

let iter t f =
  let cap = Array.length t.slots in
  for k = 0 to t.len - 1 do
    let i = t.head + k in
    let i = if i >= cap then i - cap else i in
    f t.slots.(i)
  done

let clear t =
  t.head <- 0;
  t.len <- 0
