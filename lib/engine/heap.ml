(* Parallel-array binary heap: keys and ties live in unboxed int arrays,
   values in a third array, so a sift compares machine ints in cache
   instead of chasing entry records, and push/pop allocate nothing (the
   old layout boxed a 4-word entry per push and a [Some (k, t, v)] per
   pop — measurable minor-GC churn at simulator event rates).

   The value array is [Obj.t] behind the phantom ['a]: values are
   [Obj.repr]ed on the way in and [Obj.obj]ed on the way out, both
   identities for the boxed values stored here.  A flat ['a array] would
   be unsound for ['a = float] (Array.make with a magicked filler would
   build a non-float array tagged as a float array), so the indirection
   is load-bearing, not style. *)

type 'a t = {
  mutable keys : int array;
  mutable ties : int array;
  mutable values : Obj.t array;
  mutable size : int;
}

(* Slot 0 is the root.  Slots at or past [size] hold [nil], never a user
   value: [pop], [clear] and [compact] overwrite freed slots so the heap
   retains no values beyond their lifetime. *)
let nil = Obj.repr 0

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  let capacity = max capacity 0 in
  {
    keys = Array.make capacity 0;
    ties = Array.make capacity 0;
    values = Array.make capacity nil;
    size = 0;
  }

let length h = h.size
let capacity h = Array.length h.keys
let is_empty h = h.size = 0

(* Hole-based sifts: carry the moving (key, tie, value) in locals, slide
   displaced slots over the hole, and write the carried element once at
   its final position — one store per level instead of a three-array
   swap. *)

let sift_up h i0 =
  let k = h.keys.(i0) and t = h.ties.(i0) and v = h.values.(i0) in
  let i = ref i0 in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = h.keys.(parent) in
    if k < pk || (k = pk && t < h.ties.(parent)) then begin
      h.keys.(!i) <- pk;
      h.ties.(!i) <- h.ties.(parent);
      h.values.(!i) <- h.values.(parent);
      i := parent
    end
    else moving := false
  done;
  if !i <> i0 then begin
    h.keys.(!i) <- k;
    h.ties.(!i) <- t;
    h.values.(!i) <- v
  end

let sift_down h i0 =
  let size = h.size in
  let k = h.keys.(i0) and t = h.ties.(i0) and v = h.values.(i0) in
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let left = (2 * !i) + 1 in
    if left >= size then moving := false
    else begin
      let right = left + 1 in
      let child =
        if
          right < size
          && (h.keys.(right) < h.keys.(left)
             || (h.keys.(right) = h.keys.(left)
                && h.ties.(right) < h.ties.(left)))
        then right
        else left
      in
      let ck = h.keys.(child) in
      if ck < k || (ck = k && h.ties.(child) < t) then begin
        h.keys.(!i) <- ck;
        h.ties.(!i) <- h.ties.(child);
        h.values.(!i) <- h.values.(child);
        i := child
      end
      else moving := false
    end
  done;
  if !i <> i0 then begin
    h.keys.(!i) <- k;
    h.ties.(!i) <- t;
    h.values.(!i) <- v
  end

let grow h =
  let cap = Array.length h.keys in
  let fresh_cap = max 16 (2 * cap) in
  let keys = Array.make fresh_cap 0 in
  let ties = Array.make fresh_cap 0 in
  let values = Array.make fresh_cap nil in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.ties 0 ties 0 h.size;
  Array.blit h.values 0 values 0 h.size;
  h.keys <- keys;
  h.ties <- ties;
  h.values <- values

let push h ~key ~tie value =
  if h.size = Array.length h.keys then grow h;
  let i = h.size in
  h.keys.(i) <- key;
  h.ties.(i) <- tie;
  h.values.(i) <- Obj.repr value;
  h.size <- i + 1;
  sift_up h i

let min_key_exn h =
  if h.size = 0 then invalid_arg "Heap.min_key_exn: empty heap";
  h.keys.(0)

let min_tie_exn h =
  if h.size = 0 then invalid_arg "Heap.min_tie_exn: empty heap";
  h.ties.(0)

(* Shared removal of the root; the caller has already read it out. *)
let drop_root h =
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    h.keys.(0) <- h.keys.(last);
    h.ties.(0) <- h.ties.(last);
    h.values.(0) <- h.values.(last);
    h.values.(last) <- nil;
    sift_down h 0
  end
  else h.values.(0) <- nil

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let v = h.values.(0) in
  drop_root h;
  Obj.obj v

let pop h =
  if h.size = 0 then None
  else begin
    let k = h.keys.(0) and t = h.ties.(0) and v = h.values.(0) in
    drop_root h;
    Some (k, t, Obj.obj v)
  end

let peek h =
  if h.size = 0 then None
  else Some (h.keys.(0), h.ties.(0), Obj.obj h.values.(0))

let clear h =
  Array.fill h.values 0 h.size nil;
  h.size <- 0

let compact h ~keep =
  let n = h.size in
  let live = ref 0 in
  for i = 0 to n - 1 do
    if keep (Obj.obj h.values.(i)) then begin
      h.keys.(!live) <- h.keys.(i);
      h.ties.(!live) <- h.ties.(i);
      h.values.(!live) <- h.values.(i);
      incr live
    end
  done;
  Array.fill h.values !live (n - !live) nil;
  h.size <- !live;
  (* Floyd heapify: entries keep their (key, tie), so the pop order of
     survivors is exactly what it would have been without compaction. *)
  for i = (!live / 2) - 1 downto 0 do
    sift_down h i
  done
