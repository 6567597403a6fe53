(* Hierarchical timing wheel: the O(1) event queue behind [Sched].

   Eight levels of 32 slots, over a coarse 2^12 ns level-0 granule,
   cover 2^52 ns (~52 simulated days) of future; a timer at distance d
   lands at the level whose granule just contains d (the highest 5-bit
   block above the granule in which [key lxor now] differs, found by
   comparing [key lxor now] against the level boundaries), so insertion
   is a few compares, a shift and a mask, not a sift.  Cells are
   intrusive: every timer lives in one slot's doubly-linked list, so
   cancellation unlinks in O(1) — no dead weight left behind, no
   periodic compaction, unlike the binary heap this replaces.

   Cells are parallel int arrays, the payload included: the scheduler
   queues int-coded events, so pushing, popping and freeing a cell
   store no pointer and call no write barrier.  Freed cells chain
   through [nexts] as a free list, so steady-state push/cancel/pop
   allocates nothing.

   Ordering is exact, not approximate: [min_key_exn]/[min_tie_exn]/
   [pop_exn]/[pop_until] return the true (key, tie)-lexicographic
   minimum.  The wheel cascades the lowest occupied slot down a level
   at a time until level 0 is occupied; the current level-0 slot (at
   most ~4 us worth of keys) is sorted once when it becomes current
   and kept sorted by in-position insertion, so pops from it are O(1)
   head removals.  [now] (the wheel's notion of "no key below this
   will pop next") only ever advances to a granule start that is <=
   every key still queued, so cascading on a peek — which [Sched.run
   ~until] does without popping — can never strand a later,
   earlier-keyed push: a push below [now] (possible only through that
   peek path, or through deliberate abuse by the equivalence fuzzer)
   is placed in sorted position in the *current* level-0 slot, so
   overdue entries still pop first and in the right order.

   Entries beyond the span go to an overflow binary heap and
   migrate into the wheel once it drains down to them; cancelling an
   overflow entry marks it dead and the heap is compacted when dead
   entries outnumber live ones (the same amortisation the old
   all-heap scheduler used for everything). *)

type t = {
  mutable keys : int array;
  mutable ties : int array;
  mutable values : int array;
  mutable nexts : int array; (* slot list forward link / free-list link *)
  mutable prevs : int array;
  mutable locs : int array;  (* level*32+slot, or loc_{ovf,ovf_dead,free} *)
  mutable free_head : int;
  slots : int array;         (* levels*32 list heads, -1 = empty *)
  bitmaps : int array;       (* per level: bit s set iff slot s occupied *)
  mutable levels_mask : int; (* bit l set iff bitmaps.(l) <> 0 *)
  mutable now : int;
  mutable live : int;        (* queued and not cancelled, incl. overflow *)
  mutable hot : int;         (* cached min cell, -1 = recompute *)
  overflow : int Heap.t;     (* cell indices keyed by (key, tie) *)
  mutable overflow_dead : int;
  mutable cascades : int;    (* diagnostic: slot redistributions *)
  mutable sorted_slot : int; (* level-0 slot whose list is kept in
                                (key, tie) order, -1 = none; pops from
                                it are O(1) head removals *)
  mutable scratch : int array; (* cell-index buffer for slot sorting *)
}

let bits = 5
let slot_count = 1 lsl bits (* 32 *)
let slot_mask = slot_count - 1
let levels = 8

(* Level-0 slots are deliberately coarse: one slot covers [2^shift] ns
   (~4 us), so the microsecond-scale timers the simulator actually
   arms (serialisation, pacing, delayed-ACK) place directly at level 0
   or 1 and cascade at most once instead of filtering down four levels
   one redistribution at a time.  Ordering stays exact — the current
   slot is sorted by full (key, tie) — so coarseness trades one
   O(k log k) slot sort for most of the cascade traffic, and pops stay
   O(1).  The span grows to 2^52 ns (~52 simulated days). *)
let shift = 12
let span = 1 lsl (shift + (bits * levels)) (* 2^52 ns *)

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
      slots = Array.make (levels * slot_count) (-1);
      bitmaps = Array.make levels 0;
      levels_mask = 0;
      now = 0;
      live = 0;
      hot = -1;
      overflow = Heap.create ~capacity:16 ();
      overflow_dead = 0;
      cascades = 0;
      sorted_slot = -1;
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
let cascade_count t = t.cascades

(* Index of the lowest set bit of a slot bitmap or the level mask
   (both fit in 32 bits); [x] > 0.  [x land -x] isolates the bit, and
   multiplying by a de Bruijn constant puts a distinct 5-bit pattern in
   the top bits of the 32-bit product for each of the 32 possible
   positions, so one multiply and one table load replace a bit loop. *)
let debruijn = 0x077CB531

let lobit_table =
  let a = Array.make 32 0 in
  for i = 0 to 31 do
    a.((((1 lsl i) * debruijn) land 0xFFFF_FFFF) lsr 27) <- i
  done;
  a

let[@inline] lobit x = lobit_table.((((x land -x) * debruijn) land 0xFFFF_FFFF) lsr 27)

(* The level of a key at xor-distance [x = key lxor now] from [now]:
   the first [l] from the given one with [x < 2^(shift + bits * (l +
   1))], i.e. [x] compared against the level boundaries 2^17, 2^22,
   ..., 2^52 in ascending order ([place] tests levels 0 and 1 itself,
   where nearly every timer the simulator arms lands).  [levels] means
   beyond the span (the overflow heap). *)
let rec level_from x l =
  if l = levels || x < 1 lsl (shift + (bits * (l + 1))) then l
  else level_from x (l + 1)

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
  t.prevs.(c) <- -1;
  t.nexts.(c) <- t.free_head;
  t.free_head <- c

(* Link cell [c] into level [lvl]'s slot [slot]. *)
let[@inline] link t c lvl slot =
  let key = t.keys.(c) in
  let sl = (lvl lsl bits) lor slot in
  if sl = t.sorted_slot then begin
    (* Insert in (key, tie) position so the current slot stays a
       sorted list and pops stay O(1) head removals. *)
    let tie = t.ties.(c) in
    let prev = ref (-1) and cur = ref t.slots.(sl) in
    while
      !cur >= 0
      && (let ck = t.keys.(!cur) in
          ck < key || (ck = key && t.ties.(!cur) < tie))
    do
      prev := !cur;
      cur := t.nexts.(!cur)
    done;
    t.nexts.(c) <- !cur;
    t.prevs.(c) <- !prev;
    if !cur >= 0 then t.prevs.(!cur) <- c;
    if !prev >= 0 then t.nexts.(!prev) <- c else t.slots.(sl) <- c;
    t.locs.(c) <- sl
  end
  else begin
    let head = t.slots.(sl) in
    t.nexts.(c) <- head;
    t.prevs.(c) <- -1;
    if head >= 0 then t.prevs.(head) <- c;
    t.slots.(sl) <- c;
    t.locs.(c) <- sl;
    t.bitmaps.(lvl) <- t.bitmaps.(lvl) lor (1 lsl slot);
    t.levels_mask <- t.levels_mask lor (1 lsl lvl)
  end

(* Link cell [c] into the slot its key calls for, relative to [t.now].
   Keys at or below [now] (overdue; see the header comment) go into the
   current level-0 slot.  Levels 0 and 1, where nearly every simulator
   timer lands, are tested inline before [level_from]'s loop. *)
let[@inline] place t c =
  let key = t.keys.(c) and now = t.now in
  if key <= now then link t c 0 ((now lsr shift) land slot_mask)
  else
    let x = key lxor now in
    if x < 1 lsl (shift + bits) then link t c 0 ((key lsr shift) land slot_mask)
    else if x < 1 lsl (shift + (2 * bits)) then
      link t c 1 ((key lsr (shift + bits)) land slot_mask)
    else
      let lvl = level_from x 2 in
      if lvl = levels then begin
        t.locs.(c) <- loc_ovf;
        Heap.push t.overflow ~key ~tie:t.ties.(c) c
      end
      else link t c lvl ((key lsr (shift + (bits * lvl))) land slot_mask)

let push t ~key ~tie v =
  if key < 0 then invalid_arg "Wheel.push: negative key";
  let c = alloc t in
  t.keys.(c) <- key;
  t.ties.(c) <- tie;
  t.values.(c) <- v;
  place t c;
  t.live <- t.live + 1;
  (* The cached minimum survives a push that cannot beat it, so a peek /
     push / pop sequence (the [Sched.run ~until] shape) does not rescan
     the slot for every arming. *)
  (if t.hot >= 0 then
     let hk = t.keys.(t.hot) in
     if key < hk || (key = hk && tie < t.ties.(t.hot)) then t.hot <- -1);
  c

let[@inline] unlink t c sl =
  let p = t.prevs.(c) and n = t.nexts.(c) in
  if p >= 0 then t.nexts.(p) <- n else t.slots.(sl) <- n;
  if n >= 0 then t.prevs.(n) <- p;
  if t.slots.(sl) < 0 then begin
    let lvl = sl lsr bits and slot = sl land slot_mask in
    t.bitmaps.(lvl) <- t.bitmaps.(lvl) land lnot (1 lsl slot);
    if t.bitmaps.(lvl) = 0 then
      t.levels_mask <- t.levels_mask land lnot (1 lsl lvl);
    if sl = t.sorted_slot then t.sorted_slot <- -1
  end

let compact_overflow t =
  Heap.compact t.overflow ~keep:(fun c ->
      if t.locs.(c) = loc_ovf_dead then begin
        free t c;
        false
      end
      else true);
  t.overflow_dead <- 0

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

(* Move every cell of slot (lvl, slot) down a level (or several).
   Advances [now] to the slot's granule start — which is <= every key
   still queued, since this only runs when all lower levels are empty
   and (lvl, slot) is the lowest occupied slot. *)
let cascade t lvl slot =
  let granule = shift + (bits * lvl) in
  let base = t.now land lnot ((1 lsl (granule + bits)) - 1) in
  let g = base lor (slot lsl granule) in
  if g > t.now then t.now <- g;
  let sl = (lvl lsl bits) lor slot in
  let cell = ref t.slots.(sl) in
  t.slots.(sl) <- -1;
  t.bitmaps.(lvl) <- t.bitmaps.(lvl) land lnot (1 lsl slot);
  if t.bitmaps.(lvl) = 0 then
    t.levels_mask <- t.levels_mask land lnot (1 lsl lvl);
  if lvl = 1 then begin
    (* Common case: a level-1 slot spans exactly level 0's full window,
       so with [now] at its base every cell lands at level 0 — link
       directly by slot index, skipping [place]'s level search (the
       sorted slot cannot be active here: level 0 was empty). *)
    let nexts = t.nexts and prevs = t.prevs and locs = t.locs in
    while !cell >= 0 do
      let c = !cell in
      cell := nexts.(c);
      let s0 = (t.keys.(c) lsr shift) land slot_mask in
      let head = t.slots.(s0) in
      nexts.(c) <- head;
      prevs.(c) <- -1;
      if head >= 0 then prevs.(head) <- c;
      t.slots.(s0) <- c;
      locs.(c) <- s0;
      t.bitmaps.(0) <- t.bitmaps.(0) lor (1 lsl s0)
    done;
    if t.bitmaps.(0) <> 0 then t.levels_mask <- t.levels_mask lor 1
  end
  else
    while !cell >= 0 do
      let c = !cell in
      cell := t.nexts.(c);
      place t c
    done;
  t.cascades <- t.cascades + 1

(* The wheel proper is empty: advance [now] to the overflow minimum and
   pull every entry now within the wheel's span back in. *)
let migrate_overflow t =
  let rec clean_root () =
    match Heap.peek t.overflow with
    | Some (_, _, c) when t.locs.(c) = loc_ovf_dead ->
      ignore (Heap.pop_exn t.overflow : int);
      free t c;
      t.overflow_dead <- t.overflow_dead - 1;
      clean_root ()
    | _ -> ()
  in
  clean_root ();
  if Heap.is_empty t.overflow then invalid_arg "Wheel: empty";
  let k = Heap.min_key_exn t.overflow in
  if k > t.now then t.now <- k;
  let continue = ref true in
  while !continue && not (Heap.is_empty t.overflow) do
    if Heap.min_key_exn t.overflow lxor t.now < span then begin
      let c = Heap.pop_exn t.overflow in
      if t.locs.(c) = loc_ovf_dead then begin
        free t c;
        t.overflow_dead <- t.overflow_dead - 1
      end
      else place t c
    end
    else continue := false
  done

(* Sort level-0 slot [slot]'s cells into (key, tie) order and relink
   them: insertion sort for typical small slots, heapsort above that so
   a pathologically dense slot stays O(k log k).  Once sorted (and with
   {!place} inserting in position), every pop from the slot is an O(1)
   head removal instead of an O(k) rescan.

   [now] advances to the slot's granule start first.  That is sound —
   this is the lowest occupied slot, so every queued key is at or above
   its base — and it makes the sorted slot the *current* slot: any
   later level-0 placement must land in it or above it (a key in a
   lower slot index would be in the next wheel revolution, hence at
   level >= 1), which is what lets {!ensure_hot} trust the slot head
   without rescanning the bitmaps.

   The comparator and heapsort sift live at module level and take the
   arrays as arguments: local versions would capture them in a closure
   allocated on every [sort_slot] call — and with the simulation's
   sparse timers this runs roughly once per event, so those few words
   were visible in the words-per-packet budget. *)
let[@inline] cell_before keys ties a b =
  let ka : int = keys.(a) and kb : int = keys.(b) in
  ka < kb || (ka = kb && ties.(a) < ties.(b))

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

(* Advance [now] to level-0 slot [slot]'s granule start, the first step
   of making it the current, sorted slot. *)
let[@inline] enter_slot t slot =
  let base =
    t.now land lnot ((1 lsl (shift + bits)) - 1) lor (slot lsl shift)
  in
  if base > t.now then t.now <- base

let sort_slot t slot =
  enter_slot t slot;
  let keys = t.keys and ties = t.ties in
  let n = ref 0 in
  let c = ref t.slots.(slot) in
  while !c >= 0 do
    if !n >= Array.length t.scratch then begin
      let bigger = Array.make (2 * Array.length t.scratch) (-1) in
      Array.blit t.scratch 0 bigger 0 !n;
      t.scratch <- bigger
    end;
    t.scratch.(!n) <- !c;
    incr n;
    c := t.nexts.(!c)
  done;
  let a = t.scratch and n = !n in
  if n > 1 then
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
  if n > 0 then begin
    t.slots.(slot) <- a.(0);
    t.prevs.(a.(0)) <- -1;
    for i = 0 to n - 2 do
      t.nexts.(a.(i)) <- a.(i + 1);
      t.prevs.(a.(i + 1)) <- a.(i)
    done;
    t.nexts.(a.(n - 1)) <- -1
  end;
  t.sorted_slot <- slot

(* Find (and cache) the live minimum.  Fast path: while a sorted slot is
   active it is non-empty (unlink resets it on empty) and it is the
   lowest occupied slot (placement can only add to it or above, and
   overflow keys are beyond every in-wheel key), so its head IS the
   minimum — no bitmap scan.  Slow path: cascade until level 0 is
   occupied, then sort the lowest level-0 slot (once — it stays sorted
   while current) and take its head.  The simulator's timers are
   sparse, so that slot usually holds one cell: a lone cell is already
   a sorted list, and it becomes current without [sort_slot]'s scratch
   walk, with the same effect on [now], [sorted_slot] and [hot]. *)
let ensure_hot t =
  if t.hot < 0 then
    if t.sorted_slot >= 0 then t.hot <- t.slots.(t.sorted_slot)
    else begin
      if t.live = 0 then invalid_arg "Wheel: empty";
      if t.levels_mask = 0 then migrate_overflow t;
      while t.levels_mask land 1 = 0 do
        let lvl = lobit t.levels_mask in
        cascade t lvl (lobit t.bitmaps.(lvl))
      done;
      let slot = lobit t.bitmaps.(0) in
      let head = t.slots.(slot) in
      if t.nexts.(head) < 0 then begin
        enter_slot t slot;
        t.sorted_slot <- slot
      end
      else sort_slot t slot;
      t.hot <- t.slots.(slot)
    end

let tie t c = t.ties.(c)

let min_key_exn t =
  ensure_hot t;
  t.keys.(t.hot)

let min_tie_exn t =
  ensure_hot t;
  t.ties.(t.hot)

(* Remove the cached minimum cell [c] and return its value. *)
let[@inline] take t c =
  let key = t.keys.(c) and v = t.values.(c) in
  unlink t c t.locs.(c);
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
   [until], so a stepped run and a horizon-bounded run cascade alike. *)
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
