(* Out-of-order ranges live on sorted parallel arrays (starts/ends),
   disjoint and non-adjacent, all strictly above [next].  An insert
   binary-searches for the overlap window and splices with Array.blit —
   no per-insert map rebuild, no closure, no boxed bindings.  The arrays
   double on demand and never shrink (the range count is bounded by the
   number of concurrent holes, a handful in practice). *)

type t = {
  mutable next : int;
  mutable starts : int array;
  mutable ends_ : int array;
  mutable n : int; (* live range count *)
  mutable buffered : int; (* sum of (ends_.(i) - starts.(i)) *)
}

let create () =
  { next = 0; starts = Array.make 8 0; ends_ = Array.make 8 0; n = 0;
    buffered = 0 }

let grow t =
  let cap = 2 * Array.length t.starts in
  let s = Array.make cap 0 and e = Array.make cap 0 in
  Array.blit t.starts 0 s 0 t.n;
  Array.blit t.ends_ 0 e 0 t.n;
  t.starts <- s;
  t.ends_ <- e

(* First index whose range could touch [lo, hi): smallest i with
   ends_.(i) >= lo (ranges sorted by start, disjoint, so also by end). *)
let lower_bound t lo =
  let a = ref 0 and b = ref t.n in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if t.ends_.(mid) < lo then a := mid + 1 else b := mid
  done;
  !a

let insert t ~dseq ~len =
  if len <= 0 then invalid_arg "Reassembly.insert: len must be positive";
  if dseq < 0 then invalid_arg "Reassembly.insert: negative dseq";
  let lo = Int.max dseq t.next and hi = dseq + len in
  if hi > t.next then begin
    (* Overlapping-or-adjacent window: ranges i in [i0, i1) with
       starts.(i) <= hi && ends_.(i) >= lo. *)
    let i0 = lower_bound t lo in
    let i1 = ref i0 in
    while !i1 < t.n && t.starts.(!i1) <= hi do incr i1 done;
    let i1 = !i1 in
    let lo = ref lo and hi = ref hi in
    for i = i0 to i1 - 1 do
      if t.starts.(i) < !lo then lo := t.starts.(i);
      if t.ends_.(i) > !hi then hi := t.ends_.(i);
      t.buffered <- t.buffered - (t.ends_.(i) - t.starts.(i))
    done;
    if !lo <= t.next then begin
      (* Contiguous with the delivered prefix: advance [next].  Stored
         ranges all start above the old [next]; any absorbed ones were
         inside the window (non-adjacent invariant), so nothing below
         index i1 survives. *)
      if !hi > t.next then t.next <- !hi;
      if i1 > i0 then begin
        Array.blit t.starts i1 t.starts i0 (t.n - i1);
        Array.blit t.ends_ i1 t.ends_ i0 (t.n - i1);
        t.n <- t.n - (i1 - i0)
      end
    end
    else begin
      t.buffered <- t.buffered + (!hi - !lo);
      if i1 - i0 = 1 then begin
        (* Common case: extend one range in place. *)
        t.starts.(i0) <- !lo;
        t.ends_.(i0) <- !hi
      end
      else if i1 = i0 then begin
        (* Fresh gap: open a slot at i0. *)
        if t.n = Array.length t.starts then grow t;
        Array.blit t.starts i0 t.starts (i0 + 1) (t.n - i0);
        Array.blit t.ends_ i0 t.ends_ (i0 + 1) (t.n - i0);
        t.starts.(i0) <- !lo;
        t.ends_.(i0) <- !hi;
        t.n <- t.n + 1
      end
      else begin
        (* Merged several ranges into one: keep slot i0, close the rest. *)
        t.starts.(i0) <- !lo;
        t.ends_.(i0) <- !hi;
        Array.blit t.starts i1 t.starts (i0 + 1) (t.n - i1);
        Array.blit t.ends_ i1 t.ends_ (i0 + 1) (t.n - i1);
        t.n <- t.n - (i1 - i0 - 1)
      end
    end
  end

let next_expected t = t.next
let delivered_bytes t = t.next
let buffered_bytes t = t.buffered
let gap_count t = t.n
