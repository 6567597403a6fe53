(* Chunk-ownership ring: which subflow carries each connection-level
   chunk above the sender's data ACK, as a ring of parallel int arrays
   (dseq, len, owner).

   The connection's access pattern is the scoreboard's one level up: a
   grant maps [next_dseq], which lies above every chunk already mapped,
   so new chunks only ever arrive at the right edge; the data ACK only
   rises, so acknowledged chunks only ever leave at the left edge.  The
   live set is a FIFO in ascending dseq order — a ring.  Reinjection
   re-maps an existing chunk, found by binary search and overwritten in
   place.  A chunk re-granted after a failover whose key has already
   left the ring (or a pending chunk split by a short grant) is
   inserted at its sorted position by shifting the entries above it:
   O(n), but off the per-grant path.

   Logical index [i] (0 = lowest dseq) maps to physical [(head + i)
   land mask]; growth doubles the arrays and re-bases the ring at 0. *)

type t = {
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable head : int; (* physical index of the lowest chunk *)
  mutable n : int;
  mutable dseqs : int array;
  mutable lens : int array;
  mutable owners : int array;
}

let initial_capacity = 16

let create () =
  {
    mask = initial_capacity - 1;
    head = 0;
    n = 0;
    dseqs = Array.make initial_capacity 0;
    lens = Array.make initial_capacity 0;
    owners = Array.make initial_capacity 0;
  }

let length t = t.n
let capacity t = t.mask + 1
let phys t i = (t.head + i) land t.mask
let dseq_at t i = t.dseqs.(phys t i)
let len_at t i = t.lens.(phys t i)
let owner_at t i = t.owners.(phys t i)

let grow t =
  let cap = t.mask + 1 in
  let fresh = 2 * cap in
  let copy a =
    let b = Array.make fresh 0 in
    for i = 0 to t.n - 1 do
      b.(i) <- a.((t.head + i) land t.mask)
    done;
    b
  in
  t.dseqs <- copy t.dseqs;
  t.lens <- copy t.lens;
  t.owners <- copy t.owners;
  t.head <- 0;
  t.mask <- fresh - 1

let write t p ~dseq ~len ~owner =
  t.dseqs.(p) <- dseq;
  t.lens.(p) <- len;
  t.owners.(p) <- owner

let append t ~dseq ~len ~owner =
  if len <= 0 then invalid_arg "Chunks.append: empty chunk";
  if t.n > 0 && dseq <= dseq_at t (t.n - 1) then
    invalid_arg "Chunks.append: dseq not above the last chunk";
  if t.n > t.mask then grow t;
  write t (phys t t.n) ~dseq ~len ~owner;
  t.n <- t.n + 1

let trim_below t x =
  while t.n > 0 && t.dseqs.(t.head) < x do
    t.head <- (t.head + 1) land t.mask;
    t.n <- t.n - 1
  done

(* Logical index of the first chunk with [dseq_at >= x]; [length t]
   when every chunk starts below [x]. *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.dseqs.(phys t mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let find t x =
  let i = lower_bound t x in
  if i < t.n && dseq_at t i = x then i else -1

let replace t ~dseq ~len ~owner =
  if len <= 0 then invalid_arg "Chunks.replace: empty chunk";
  let i = lower_bound t dseq in
  if i < t.n && dseq_at t i = dseq then write t (phys t i) ~dseq ~len ~owner
  else begin
    if t.n > t.mask then grow t;
    for k = t.n downto i + 1 do
      let src = phys t (k - 1) in
      write t (phys t k) ~dseq:t.dseqs.(src) ~len:t.lens.(src)
        ~owner:t.owners.(src)
    done;
    write t (phys t i) ~dseq ~len ~owner;
    t.n <- t.n + 1
  end

let consistent t ~owners ~limit =
  let ok = ref true in
  for i = 0 to t.n - 1 do
    let p = phys t i in
    if t.lens.(p) <= 0 || t.owners.(p) < 0 || t.owners.(p) >= owners then
      ok := false;
    if i > 0 then begin
      let q = phys t (i - 1) in
      if t.dseqs.(q) + t.lens.(q) > t.dseqs.(p) then ok := false
    end
  done;
  !ok && (t.n = 0 || dseq_at t (t.n - 1) + len_at t (t.n - 1) <= limit)
