(* Calendar queue: the O(1) event queue behind [Sched].

   One circular array of 1 024 slots, each a 2^12 ns granule wide,
   covers a window of 2^22 ns (~4.2 ms) from the current granule on.  A
   key goes to the slot of its granule, [(key lsr 12) land 1023]: its
   distance in granules from [now] picks the slot, so placement is a
   shift, a subtraction and a mask, and a queued cell never moves
   between slots.  Keys at or below [now] are overdue and join the
   current slot; keys past the window wait in an overflow heap and move
   in as the window reaches them.

   Every slot holds a circular doubly-linked list of cells (the head's
   [prev] is the tail), so cancellation unlinks in O(1) and both ends
   of a slot are one load away.  Cells are parallel int arrays, the
   payload included: the scheduler queues int-coded events, so pushing,
   popping and freeing a cell store no pointer and call no write
   barrier.  Freed cells chain through [nexts] as a free list, so
   steady-state push/cancel/pop allocates nothing.

   Ordering is exact, not approximate: pops come in (key, tie) order.
   Each slot's list is kept sorted by an insertion walk back from its
   tail — pushes mostly arrive in key order, so the walk is usually
   empty.  A walk longer than [walk_bound] steps gives up: the cell
   goes to the tail and the slot is flagged, and a flagged slot is
   sorted once, when it becomes current.  The current slot — the
   lowest occupied one, which pops take from — is always fully sorted,
   so a pop is a head removal, and a dense slot costs one O(k log k)
   sort rather than a long walk per push.  The lowest occupied slot is
   found through a two-level occupancy bitmap, wrapping round.

   [now] (the wheel's notion of "no key below this will pop next") only
   advances to a granule start that is <= every key still queued, and
   to a popped key.  A peek — which [Sched.run ~until] does without
   popping — may therefore advance it past a later push; such a push
   is overdue and lands, in sorted position, in the current slot, so
   it still pops first and in the right order.

   Cancelling an overflow entry marks it dead; the heap is compacted
   when dead entries outnumber live ones. *)

type t = {
  mutable keys : int array;
  mutable ties : int array;
  mutable values : int array;
  mutable nexts : int array; (* circular slot list / free-list link *)
  mutable prevs : int array;
  mutable locs : int array;  (* slot index, or loc_{ovf,ovf_dead,free} *)
  mutable free_head : int;
  slots : int array;         (* list heads, -1 = empty *)
  occupied : int array;      (* bit b of word w: slot 32w+b is non-empty *)
  mutable summary : int;     (* bit w: word w of [occupied] is non-zero *)
  unsorted : int array;      (* bit b of word w: slot 32w+b may be out of
                                order (a walk gave up) *)
  mutable now : int;
  mutable live : int;        (* queued and not cancelled, incl. overflow *)
  mutable hot : int;         (* cached min cell, -1 = recompute *)
  mutable current : int;     (* the sorted slot pops take from, -1 = none *)
  overflow : int Heap.t;     (* cell indices keyed by (key, tie) *)
  mutable overflow_dead : int;
  mutable overflow_granule : int;
      (* granule of the overflow minimum ([max_int] when empty), so
         entering a slot tests one int to know whether to pull *)
  mutable pulls : int;       (* diagnostic: entries moved in from overflow *)
  mutable scratch : int array; (* cell-index buffer for slot sorting *)
}

let shift = 12 (* a slot spans 2^12 ns *)
let slot_bits = 10
let slot_count = 1 lsl slot_bits (* 1 024: a 2^22 ns window *)
let slot_mask = slot_count - 1
let words = slot_count / 32

(* Steps an insertion walk may take before it flags its slot instead.
   The simulator's slots hold a handful of cells: over the paper grid
   (bench/sample/grid.exe) 2.2 M of 50.9 M pushes sorted before their
   slot's last cell, 0.5 M of them took a step back past it, 49 k two
   or more and 2 five.  The bound keeps a dense slot (keys pushed out
   of order into one granule) from costing O(k) per push. *)
let walk_bound = 4

let loc_ovf = -2 (* queued in the overflow heap *)
let loc_ovf_dead = -3 (* cancelled, awaiting overflow compaction *)
let loc_free = -4

let create ?(capacity = 256) () =
  let capacity = max capacity 1 in
  let t =
    {
      keys = Array.make capacity 0;
      ties = Array.make capacity 0;
      values = Array.make capacity 0;
      nexts = Array.make capacity (-1);
      prevs = Array.make capacity (-1);
      locs = Array.make capacity loc_free;
      free_head = 0;
      slots = Array.make slot_count (-1);
      occupied = Array.make words 0;
      summary = 0;
      unsorted = Array.make words 0;
      now = 0;
      live = 0;
      hot = -1;
      current = -1;
      overflow = Heap.create ~capacity:16 ();
      overflow_dead = 0;
      overflow_granule = max_int;
      pulls = 0;
      scratch = Array.make 16 (-1);
    }
  in
  for i = 0 to capacity - 1 do
    t.nexts.(i) <- (if i = capacity - 1 then -1 else i + 1)
  done;
  t

let length t = t.live
let is_empty t = t.live = 0
let now t = t.now
let pull_count t = t.pulls

(* Index of the lowest set bit of a 32-bit bitmap word; [x] > 0.
   [x land -x] isolates the bit, and multiplying by a de Bruijn
   constant puts a distinct 5-bit pattern in the top bits of the 32-bit
   product for each of the 32 possible positions, so one multiply and
   one table load replace a bit loop. *)
let debruijn = 0x077CB531

let lobit_table =
  let a = Array.make 32 0 in
  for i = 0 to 31 do
    a.((((1 lsl i) * debruijn) land 0xFFFF_FFFF) lsr 27) <- i
  done;
  a

let[@inline] lobit x = lobit_table.((((x land -x) * debruijn) land 0xFFFF_FFFF) lsr 27)

let[@inline] set_occupied t s =
  let w = s lsr 5 in
  t.occupied.(w) <- t.occupied.(w) lor (1 lsl (s land 31));
  t.summary <- t.summary lor (1 lsl w)

let[@inline] clear_occupied t s =
  let w = s lsr 5 in
  let m = t.occupied.(w) land lnot (1 lsl (s land 31)) in
  t.occupied.(w) <- m;
  if m = 0 then t.summary <- t.summary land lnot (1 lsl w)

let[@inline] is_unsorted t s = t.unsorted.(s lsr 5) land (1 lsl (s land 31)) <> 0

let[@inline] set_unsorted t s =
  t.unsorted.(s lsr 5) <- t.unsorted.(s lsr 5) lor (1 lsl (s land 31))

let[@inline] clear_unsorted t s =
  t.unsorted.(s lsr 5) <- t.unsorted.(s lsr 5) land lnot (1 lsl (s land 31))

(* The first occupied slot at or after slot [p], wrapping round; some
   slot is occupied.  Past word [p]'s own bits it takes the lowest
   non-empty word above it, else the lowest of all (which holds, in
   word [p]'s case, only bits below [p]). *)
let[@inline] next_occupied t p =
  let w = p lsr 5 in
  let m = t.occupied.(w) land (-1 lsl (p land 31)) in
  if m <> 0 then (w lsl 5) lor lobit m
  else
    let above = t.summary land (-2 lsl w) in
    let w = lobit (if above <> 0 then above else t.summary) in
    (w lsl 5) lor lobit t.occupied.(w)

let grow t =
  let cap = Array.length t.keys in
  let fresh = 2 * cap in
  let extend a fill =
    let b = Array.make fresh fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.keys <- extend t.keys 0;
  t.ties <- extend t.ties 0;
  t.values <- extend t.values 0;
  t.nexts <- extend t.nexts (-1);
  t.prevs <- extend t.prevs (-1);
  t.locs <- extend t.locs loc_free;
  for i = cap to fresh - 1 do
    t.nexts.(i) <- (if i = fresh - 1 then t.free_head else i + 1)
  done;
  t.free_head <- cap

let[@inline] alloc t =
  if t.free_head < 0 then grow t;
  let c = t.free_head in
  t.free_head <- t.nexts.(c);
  c

let[@inline] free t c =
  t.locs.(c) <- loc_free;
  t.nexts.(c) <- t.free_head;
  t.free_head <- c

let[@inline] cell_before keys ties a b =
  let ka : int = keys.(a) and kb : int = keys.(b) in
  ka < kb || (ka = kb && ties.(a) < ties.(b))

(* Put cell [c] right after cell [p] in [p]'s circular list. *)
let[@inline] insert_after t p c =
  let n = t.nexts.(p) in
  t.nexts.(c) <- n;
  t.prevs.(c) <- p;
  t.nexts.(p) <- c;
  t.prevs.(n) <- c

(* Cell [c] sorts before [tail], the last cell of the non-empty slot
   [s] whose first cell is [head]: walk back for the last cell it does
   not sort before, and link [c] after it — or give up after
   [walk_bound] steps outside the current slot, flag the slot and link
   [c] at the end. *)
let walk_in t c s head tail =
  let keys = t.keys and ties = t.ties and prevs = t.prevs in
  let bound = if s = t.current then max_int else walk_bound in
  let cur = ref tail and steps = ref 0 and placed = ref false in
  while not !placed do
    if !cur = head then begin
      insert_after t tail c;
      t.slots.(s) <- c;
      placed := true
    end
    else if !steps = bound then begin
      set_unsorted t s;
      insert_after t tail c;
      placed := true
    end
    else begin
      let p = prevs.(!cur) in
      incr steps;
      if cell_before keys ties c p then cur := p
      else begin
        insert_after t p c;
        placed := true
      end
    end
  done

(* Link cell [c] into slot [s], in (key, tie) position unless the slot
   is flagged unsorted.  The common cases — an empty slot, or a key at
   or after the slot's last — are a few stores. *)
let[@inline] link t c s =
  t.locs.(c) <- s;
  let head = t.slots.(s) in
  if head < 0 then begin
    t.nexts.(c) <- c;
    t.prevs.(c) <- c;
    t.slots.(s) <- c;
    set_occupied t s
  end
  else begin
    let tail = t.prevs.(head) in
    if is_unsorted t s || not (cell_before t.keys t.ties c tail) then begin
      t.nexts.(c) <- head;
      t.prevs.(c) <- tail;
      t.nexts.(tail) <- c;
      t.prevs.(head) <- c
    end
    else walk_in t c s head tail
  end

(* Queue cell [c] by its key's distance in granules from [now]: within
   the window, the slot of its granule (overdue keys: the current
   granule's); past it, the overflow heap. *)
let[@inline] place t c =
  let key = t.keys.(c) in
  let cg = t.now lsr shift and g = key lsr shift in
  if g - cg < slot_count then
    link t c ((if g < cg then cg else g) land slot_mask)
  else begin
    t.locs.(c) <- loc_ovf;
    Heap.push t.overflow ~key ~tie:t.ties.(c) c;
    if g < t.overflow_granule then t.overflow_granule <- g
  end

let push t ~key ~tie v =
  if key < 0 then invalid_arg "Wheel.push: negative key";
  let c = alloc t in
  t.keys.(c) <- key;
  t.ties.(c) <- tie;
  t.values.(c) <- v;
  place t c;
  t.live <- t.live + 1;
  (* The cached minimum survives a push that cannot beat it, so a peek /
     push / pop sequence (the [Sched.run ~until] shape) does not re-read
     the slot for every arming. *)
  (if t.hot >= 0 then
     let hk = t.keys.(t.hot) in
     if key < hk || (key = hk && tie < t.ties.(t.hot)) then t.hot <- -1);
  c

(* Take cell [c] out of slot [s]'s list.  An emptied slot loses its
   occupancy bit and its unsorted flag, and stops being current. *)
let[@inline] unlink t c s =
  let n = t.nexts.(c) in
  if n = c then begin
    t.slots.(s) <- -1;
    clear_occupied t s;
    if s = t.current then t.current <- -1 else clear_unsorted t s
  end
  else begin
    let p = t.prevs.(c) in
    t.nexts.(p) <- n;
    t.prevs.(n) <- p;
    if t.slots.(s) = c then t.slots.(s) <- n
  end

let reset_overflow_granule t =
  t.overflow_granule <-
    (if Heap.is_empty t.overflow then max_int
     else Heap.min_key_exn t.overflow lsr shift)

let compact_overflow t =
  Heap.compact t.overflow ~keep:(fun c ->
      if t.locs.(c) = loc_ovf_dead then begin
        free t c;
        false
      end
      else true);
  t.overflow_dead <- 0;
  reset_overflow_granule t

let cancel t c =
  match t.locs.(c) with
  | l when l >= 0 ->
    unlink t c l;
    free t c;
    t.live <- t.live - 1;
    if t.hot = c then t.hot <- -1
  | l when l = loc_ovf ->
    t.locs.(c) <- loc_ovf_dead;
    t.live <- t.live - 1;
    t.overflow_dead <- t.overflow_dead + 1;
    if t.overflow_dead * 2 > Heap.length t.overflow then compact_overflow t
  | _ -> invalid_arg "Wheel.cancel: stale handle"

(* Move every overflow entry the window now reaches into its slot. *)
let pull t =
  let limit = (t.now lsr shift) + slot_count and h = t.overflow in
  while (not (Heap.is_empty h)) && Heap.min_key_exn h lsr shift < limit do
    let c = Heap.pop_exn h in
    if t.locs.(c) = loc_ovf_dead then begin
      free t c;
      t.overflow_dead <- t.overflow_dead - 1
    end
    else begin
      place t c;
      t.pulls <- t.pulls + 1
    end
  done;
  reset_overflow_granule t

(* Sort slot [s]'s cells into (key, tie) order and relink them:
   insertion sort for small slots, heapsort above that so a
   pathologically dense slot stays O(k log k).  The comparator and
   heapsort sift live at module level and take the arrays as arguments:
   local versions would capture them in a closure allocated per call. *)
let rec sift keys ties a root len =
  let l = (2 * root) + 1 in
  if l < len then begin
    let child =
      if l + 1 < len && cell_before keys ties a.(l) a.(l + 1) then l + 1
      else l
    in
    if cell_before keys ties a.(root) a.(child) then begin
      let tmp = a.(root) in
      a.(root) <- a.(child);
      a.(child) <- tmp;
      sift keys ties a child len
    end
  end

let sort_slot t s =
  let keys = t.keys and ties = t.ties in
  let head = t.slots.(s) in
  let n = ref 0 and c = ref head in
  let continue = ref true in
  while !continue do
    if !n >= Array.length t.scratch then begin
      let bigger = Array.make (2 * Array.length t.scratch) (-1) in
      Array.blit t.scratch 0 bigger 0 !n;
      t.scratch <- bigger
    end;
    t.scratch.(!n) <- !c;
    incr n;
    c := t.nexts.(!c);
    continue := !c <> head
  done;
  let a = t.scratch and n = !n in
  if n <= 48 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && cell_before keys ties x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    for i = (n / 2) - 1 downto 0 do
      sift keys ties a i n
    done;
    for last = n - 1 downto 1 do
      let tmp = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- tmp;
      sift keys ties a 0 last
    done
  end;
  t.slots.(s) <- a.(0);
  for i = 0 to n - 1 do
    let next = if i = n - 1 then a.(0) else a.(i + 1) in
    t.nexts.(a.(i)) <- next;
    t.prevs.(next) <- a.(i)
  done;
  clear_unsorted t s

(* The calendar is empty: advance [now] to the granule of the overflow
   minimum, which lies past the window, and pull what the window then
   reaches (again, if that was only cancelled entries). *)
let jump_to_overflow t =
  while t.summary = 0 do
    t.now <- (Heap.min_key_exn t.overflow lsr shift) lsl shift;
    pull t
  done

(* No slot is current: find the first occupied slot from [now]'s,
   advance [now] to its granule (pulling from the overflow heap if the
   window now reaches its minimum), sort it if flagged, and make it
   current, its head the cached minimum. *)
let enter_next_slot t =
  if t.live = 0 then invalid_arg "Wheel: empty";
  if t.summary = 0 then jump_to_overflow t;
  let cg = t.now lsr shift in
  let s = next_occupied t (cg land slot_mask) in
  let g = cg + ((s - cg) land slot_mask) in
  if g > cg then begin
    t.now <- g lsl shift;
    if t.overflow_granule < g + slot_count then pull t
  end;
  if is_unsorted t s then sort_slot t s;
  t.current <- s;
  t.hot <- t.slots.(s)

(* Find (and cache) the live minimum.  A current slot is non-empty
   (unlink resets it on empty), sorted, and the lowest occupied slot (a
   push can only add to it or after it, and overflow keys lie past
   every calendar key), so its head IS the minimum. *)
let[@inline] ensure_hot t =
  if t.hot < 0 then
    if t.current >= 0 then t.hot <- t.slots.(t.current)
    else enter_next_slot t

let key t c = t.keys.(c)

let min_key_exn t =
  ensure_hot t;
  t.keys.(t.hot)

let min_tie_exn t =
  ensure_hot t;
  t.ties.(t.hot)

(* Remove the cached minimum cell [c], the current slot's head, and
   return its value. *)
let[@inline] take t c =
  let key = t.keys.(c) and v = t.values.(c) in
  unlink t c t.current;
  free t c;
  t.live <- t.live - 1;
  t.hot <- -1;
  if key > t.now then t.now <- key;
  v

let pop_exn t =
  ensure_hot t;
  take t t.hot

type popped = { mutable key : int; mutable tie : int }

(* The scheduler's whole per-event protocol in one call: emptiness
   test, peek against the horizon, and removal, with the key and tie
   written to [out] rather than returned in a tuple.  The peek leaves
   the wheel exactly as [min_key_exn] would when the minimum lies past
   [until], so a stepped run and a horizon-bounded run agree. *)
let pop_until t ~until out ~none =
  if t.live = 0 then none
  else begin
    ensure_hot t;
    let c = t.hot in
    let key = t.keys.(c) in
    if key > until then none
    else begin
      out.key <- key;
      out.tie <- t.ties.(c);
      take t c
    end
  end
