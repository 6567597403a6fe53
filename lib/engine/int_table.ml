(* Open addressing with linear probing over two parallel arrays.  Keys
   are non-negative, so the negative [empty] marker tags a free slot,
   which ends a probe.  Keys are never removed, so a probe chain only
   grows; the table rehashes before its keys would fill half the
   slots. *)

type 'a t = {
  mutable keys : int array;
  mutable values : 'a array;
  mutable live : int;
  absent : 'a;
}

let empty = -1

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (2 * c)

let create ~absent () =
  { keys = Array.make 8 empty; values = Array.make 8 absent; live = 0; absent }

(* Fibonacci hashing: multiply by an odd constant near 2^62 / golden
   ratio and index by bits from the upper half of the product, so keys
   that differ only in their high bits (a route key's destination)
   still spread over the slots. *)
let[@inline] hash key = (key * 0x278D_DE6E_5FD2_9E01) lsr 30

(* The slot holding [key], or the empty slot that ends its probe. *)
let[@inline] slot keys key =
  let mask = Array.length keys - 1 in
  let i = ref (hash key land mask) in
  while
    let k = keys.(!i) in
    k <> key && k <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

(* A negative key can only meet an empty slot, whose value is [absent]. *)
let[@inline] find t key =
  let i = slot t.keys key in
  if t.keys.(i) = key then t.values.(i) else t.absent

let mem t key = key >= 0 && t.keys.(slot t.keys key) = key

let rehash t =
  let old_keys = t.keys and old_values = t.values in
  let cap = pow2_at_least (4 * (t.live + 1)) (Array.length old_keys) in
  t.keys <- Array.make cap empty;
  t.values <- Array.make cap t.absent;
  Array.iteri
    (fun j k ->
      if k >= 0 then begin
        let i = slot t.keys k in
        t.keys.(i) <- k;
        t.values.(i) <- old_values.(j)
      end)
    old_keys

let rec replace t key v =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  let i = slot t.keys key in
  if t.keys.(i) = key then t.values.(i) <- v
  else if 2 * (t.live + 1) > Array.length t.keys then begin
    rehash t;
    replace t key v
  end
  else begin
    t.keys.(i) <- key;
    t.values.(i) <- v;
    t.live <- t.live + 1
  end
