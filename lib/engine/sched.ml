(* Every queued event is one int on the timing wheel: a registered
   handler's code in the low [code_bits] bits and its argument above
   them.  Dispatch is one array read and one call, and queueing or
   firing an event stores no pointer, so the per-hop events the link
   model registers cost no write barrier.  Closures ([at_anon]) and
   cancellable timers ([at], [idle_timer]) live in free-listed slot
   tables behind two reserved handlers, whose argument is the slot.

   A timer re-armed while pending keeps its wheel cell when that cell
   is due no later than the new deadline: the timer stores the new
   (deadline, tie), and when the cell pops early [dispatch] re-queues
   it at that pair instead of firing.  So the per-ACK re-arm of a
   retransmission timer stores two ints, and the timer's cell moves
   once per expiry of the old deadline rather than once per re-arm. *)

let code_bits = 24
let code_mask = (1 lsl code_bits) - 1

(* An argument must leave the encoded event non-negative: below
   2^(62 - code_bits), which is 2^38. *)
let arg_bits = 62 - code_bits

(* A growable table of values indexed by slot, with freed slots chained
   through [links] as a free list and refilled with [filler], so the
   table retains nothing past its slot's release.  It is made on first
   use at [first_capacity] slots (a fresh scheduler that queues no
   closure or timer allocates none) and doubles when full; every slot
   is taken then, so only the new half needs chaining.

   A doubled table is too large for the minor heap, and [Array.make]
   of a major-heap block with a young initial value (the timer table's
   filler, made with its scheduler) first forces a minor collection,
   which promotes everything the scheduler has just allocated.  So the
   table doubles by appending itself and refilling the new half, which
   forces nothing. *)
module Slots = struct
  type 'a t = {
    mutable items : 'a array;
    mutable links : int array;
    mutable free : int;
    filler : 'a;
  }

  let first_capacity = 256

  let create filler = { items = [||]; links = [||]; free = -1; filler }

  let grow s =
    let cap = Array.length s.items in
    let fresh = max first_capacity (2 * cap) in
    let items =
      if cap = 0 then Array.make fresh s.filler
      else begin
        let a = Array.append s.items s.items in
        Array.fill a cap cap s.filler;
        a
      end
    in
    let links = Array.make fresh (-1) in
    for i = cap to fresh - 2 do
      links.(i) <- i + 1
    done;
    s.items <- items;
    s.links <- links;
    s.free <- cap

  let[@inline] add s x =
    if s.free < 0 then grow s;
    let i = s.free in
    s.free <- s.links.(i);
    s.items.(i) <- x;
    i

  (* The value in slot [i], which goes back to the free list. *)
  let[@inline] take s i =
    let x = s.items.(i) in
    s.items.(i) <- s.filler;
    s.links.(i) <- s.free;
    s.free <- i;
    x
end

type handler = int

type t = {
  wheel : Wheel.t;
  popped : Wheel.popped; (* key and tie of the entry being dispatched *)
  mutable clock : Time.t;
  mutable seq : int;
  mutable fired : int;
  mutable cancelled : int;
  tap : Time.t Tap.t;
  mutable handlers : (int -> unit) array;
  mutable n_handlers : int;
  anons : (unit -> unit) Slots.t;
  timers : timer Slots.t;
  mutable shadow : shadow option;
}

(* The lockstep cross-check, armed under [--audit]: a mirror of every
   push, popped alongside the wheel. *)
and shadow = {
  heap : unit Heap.t;
  dead : (int, unit) Hashtbl.t;
      (* ties of cancelled timers: the heap keeps their entries and
         drops them when they reach its root *)
}

and timer = {
  action : unit -> unit;
  owner : t;
  mutable cell : int; (* wheel handle, -1 while not pending *)
  mutable slot : int; (* index in [owner.timers] while queued *)
  mutable deadline : Time.t;
  mutable tie : int;
      (* while pending, the (deadline, tie) the timer fires at; its cell
         may be queued at an earlier pair (see [rearm_after]) *)
}

let nothing () = ()

let[@inline] now t = t.clock

let register t f =
  if t.n_handlers > code_mask then invalid_arg "Sched.register: too many handlers";
  if t.n_handlers = Array.length t.handlers then begin
    let fresh = Array.make (2 * t.n_handlers) ignore in
    Array.blit t.handlers 0 fresh 0 t.n_handlers;
    t.handlers <- fresh
  end;
  t.handlers.(t.n_handlers) <- f;
  t.n_handlers <- t.n_handlers + 1;
  t.n_handlers - 1

(* The two reserved handlers: an anonymous closure, and a cancellable
   timer.  Each takes its value out of its slot table before running
   it, so the slot is free again by the time the action schedules. *)
let run_anon t slot = (Slots.take t.anons slot) ()

let run_timer t slot =
  let tm = Slots.take t.timers slot in
  tm.cell <- -1;
  tm.slot <- -1;
  tm.action ()

let anon_code = 0
let timer_code = 1
let unregistered = 2

let create () =
  let rec t =
    {
      wheel = Wheel.create ();
      popped = { Wheel.key = 0; tie = 0 };
      clock = Time.zero;
      seq = 0;
      fired = 0;
      cancelled = 0;
      tap = Tap.create ();
      handlers = Array.make 8 ignore;
      n_handlers = 0;
      anons = Slots.create nothing;
      timers = { Slots.items = [||]; links = [||]; free = -1; filler };
      shadow = None;
    }
  and filler =
    { action = nothing; owner = t; cell = -1; slot = -1; deadline = Time.zero;
      tie = 0 }
  in
  ignore (register t (fun slot -> run_anon t slot) : handler);
  ignore (register t (fun slot -> run_timer t slot) : handler);
  ignore
    (register t (fun _ -> failwith "Sched: event for an unregistered handler")
      : handler);
  t

(* One tie per scheduling call, in call order: among equal times,
   events fire in the order they were scheduled. *)
let[@inline] fresh_tie t =
  t.seq <- t.seq + 1;
  t.seq

let[@inline] check_future t when_ =
  if Time.( < ) when_ t.clock then
    invalid_arg
      (Format.asprintf "Sched.at: %a is before now (%a)" Time.pp when_
         Time.pp t.clock)

let[@inline] wheel_push t when_ ~tie code arg =
  Wheel.push t.wheel ~key:when_ ~tie ((arg lsl code_bits) lor code)

(* Queue an event and mirror it into the lockstep shadow, if armed. *)
let[@inline] push t when_ ~tie code arg =
  let cell = wheel_push t when_ ~tie code arg in
  (match t.shadow with
  | None -> ()
  | Some sh -> Heap.push sh.heap ~key:when_ ~tie ());
  cell

(* Queue a timer that is not pending at [when_], in a fresh slot. *)
let[@inline] arm t tm when_ =
  tm.slot <- Slots.add t.timers tm;
  let tie = fresh_tie t in
  tm.deadline <- when_;
  tm.tie <- tie;
  tm.cell <- push t when_ ~tie timer_code tm.slot

let[@inline] at_call t when_ h arg =
  check_future t when_;
  if arg lsr arg_bits <> 0 then
    invalid_arg "Sched.at_call: argument out of range";
  ignore (push t when_ ~tie:(fresh_tie t) h arg : int)

let[@inline] after_call t delay h arg =
  if Time.( < ) delay Time.zero then invalid_arg "Sched.after: negative delay";
  at_call t (Time.add t.clock delay) h arg

(* A timer for [f], not pending. *)
let idle_timer t f =
  { action = f; owner = t; cell = -1; slot = -1; deadline = Time.zero; tie = 0 }

let at t when_ f =
  check_future t when_;
  let tm = idle_timer t f in
  arm t tm when_;
  tm

let after t delay f =
  if Time.( < ) delay Time.zero then invalid_arg "Sched.after: negative delay";
  at t (Time.add t.clock delay) f

let at_anon t when_ f =
  check_future t when_;
  let tie = fresh_tie t in
  ignore (push t when_ ~tie anon_code (Slots.add t.anons f) : int)

let after_anon t delay f =
  if Time.( < ) delay Time.zero then invalid_arg "Sched.after: negative delay";
  at_anon t (Time.add t.clock delay) f

(* Cancellation unlinks the wheel cell immediately — O(1), no dead
   entries accumulating, no compaction pass (the heap-era amortisation
   this replaces).  The shadow heap, when armed, keeps the dead entry
   and filters it at pop time instead. *)
let cancel tm =
  if tm.cell >= 0 then begin
    let t = tm.owner in
    (match t.shadow with
    | None -> ()
    | Some sh -> Hashtbl.replace sh.dead tm.tie ());
    Wheel.cancel t.wheel tm.cell;
    ignore (Slots.take t.timers tm.slot : timer);
    tm.cell <- -1;
    tm.slot <- -1;
    t.cancelled <- t.cancelled + 1
  end

(* [cancel] then [at] on the same handle, with the same tie and
   counts.  A pending timer whose cell is due no later than the new
   deadline keeps the cell and stores the new pair; [dispatch] moves
   the cell when it pops.  The shadow heap mirrors the logical pair. *)
let rearm_after tm delay =
  if Time.( < ) delay Time.zero then
    invalid_arg "Sched.rearm_after: negative delay";
  let t = tm.owner in
  let when_ = Time.add t.clock delay in
  if tm.cell < 0 then arm t tm when_
  else begin
    t.cancelled <- t.cancelled + 1;
    let tie = fresh_tie t in
    (match t.shadow with
    | None -> ()
    | Some sh ->
      Hashtbl.replace sh.dead tm.tie ();
      Heap.push sh.heap ~key:when_ ~tie ());
    if Wheel.key t.wheel tm.cell > when_ then begin
      Wheel.cancel t.wheel tm.cell;
      tm.cell <- wheel_push t when_ ~tie timer_code tm.slot
    end;
    tm.deadline <- when_;
    tm.tie <- tie
  end

let pending timer = timer.cell >= 0

let set_lockstep t on =
  if on then begin
    if t.shadow = None then begin
      if not (Wheel.is_empty t.wheel) then
        invalid_arg "Sched.set_lockstep: scheduler already has queued events";
      t.shadow <- Some { heap = Heap.create (); dead = Hashtbl.create 16 }
    end
  end
  else t.shadow <- None

let lockstep t = t.shadow <> None

(* Drop cancelled timers sitting at the shadow root, then demand its
   live minimum agrees with what the wheel is about to fire. *)
let check_shadow { heap = h; dead } ~key ~tie =
  let rec clean () =
    if (not (Heap.is_empty h)) && Hashtbl.mem dead (Heap.min_tie_exn h)
    then begin
      Hashtbl.remove dead (Heap.min_tie_exn h);
      Heap.pop_exn h;
      clean ()
    end
  in
  clean ();
  if Heap.is_empty h then
    failwith "Sched lockstep: wheel has an event the shadow heap lacks";
  let hk = Heap.min_key_exn h and ht = Heap.min_tie_exn h in
  if hk <> key || ht <> tie then
    failwith
      (Printf.sprintf
         "Sched lockstep divergence: wheel fires (%d, %d), heap expects (%d, %d)"
         key tie hk ht);
  Heap.pop_exn h

(* A timer cell that pops with a tie other than its timer's was left
   queued by an in-place re-arm: queue it again at the timer's own
   (deadline, tie).  Ties are unique, so the tie alone tells. *)
let[@inline] requeued t slot =
  let tm = t.timers.Slots.items.(slot) in
  tm.tie <> t.popped.Wheel.tie
  && begin
       tm.cell <- wheel_push t tm.deadline ~tie:tm.tie timer_code slot;
       true
     end

(* The one dispatch path of [run]: a single wheel call pops the minimum
   if it is due by [until] — no option or tuple boxed per event, this
   is the innermost loop of every simulation.  Encoded events are
   non-negative, so [-1] means nothing is due.  A re-queued timer cell
   is not an event: the clock stays, nothing counts it, and neither the
   tap nor the action runs. *)
let dispatch t ~until =
  let v = Wheel.pop_until t.wheel ~until t.popped ~none:(-1) in
  if v < 0 then false
  else begin
    let code = v land code_mask and arg = v lsr code_bits in
    if code = timer_code && requeued t arg then true
    else begin
      let when_ = t.popped.Wheel.key in
      (match t.shadow with
      | None -> ()
      | Some sh -> check_shadow sh ~key:when_ ~tie:t.popped.Wheel.tie);
      t.clock <- when_;
      t.fired <- t.fired + 1;
      if Array.length t.tap.Tap.subs > 0 then Tap.emit t.tap when_;
      t.handlers.(code) arg;
      true
    end
  end

let run ?until t =
  match until with
  | None -> while dispatch t ~until:max_int do () done
  | Some horizon ->
    while dispatch t ~until:horizon do () done;
    if Time.( < ) t.clock horizon then t.clock <- horizon

let queue_length t = Wheel.length t.wheel
let events_processed t = t.fired
let cancelled_count t = t.cancelled

type stats = { pending : int; fired : int; cancelled : int }

let stats t =
  let fired = events_processed t and cancelled = cancelled_count t in
  { pending = queue_length t; fired; cancelled }

let tap t = t.tap

(* Coarse periodic ticks (the hybrid fluid/packet driver's cadence, and
   a natural fit for any sampling loop).  Each firing re-arms the next
   through the timing wheel, so a periodic task keeps exactly one
   pending anonymous event regardless of how many times it has fired,
   and its dispatches interleave deterministically with packet events
   in (time, insertion-order) order. *)
let periodic t ~period ~until f =
  if Time.( <= ) period Time.zero then
    invalid_arg "Sched.periodic: period must be positive";
  let rec arm at =
    if Time.( <= ) at until then
      at_anon t at (fun () ->
          f ();
          arm (Time.add at period))
  in
  arm (Time.add (now t) period)
