type t = {
  wheel : timer Wheel.t;
  popped : Wheel.popped; (* key and tie of the entry being dispatched *)
  mutable clock : Time.t;
  mutable seq : int;
  mutable fired : int;
  mutable cancelled : int;
  tap : Time.t Tap.t;
  mutable shadow : timer Heap.t option;
      (* lockstep cross-check: mirror of every push, popped (skipping
         cancelled timers) alongside the wheel under [--audit] *)
}

and timer = {
  mutable alive : bool;
  action : unit -> unit;
  owner : t;
  mutable cell : int; (* wheel handle; valid only while [alive] *)
}

let create () =
  {
    wheel = Wheel.create ();
    popped = { Wheel.key = 0; tie = 0 };
    clock = Time.zero;
    seq = 0;
    fired = 0;
    cancelled = 0;
    tap = Tap.create ();
    shadow = None;
  }

let now t = t.clock

(* The wheel holds two kinds of entry, told apart by the tie's low bit:
   cancellable timers (a [timer] record, bit 0) and anonymous timers
   (the callback closure itself, bit 1).  Anonymous scheduling skips the
   handle record entirely — most events a simulation fires (link
   serializer done, packet arrival) are never cancelled, so this erases
   a 5-word allocation from the per-packet path.  The [Obj.magic] is
   confined to this module and guarded by the tie bit: a closure is
   only ever read back as a closure. *)

let fresh_tie t anon =
  t.seq <- t.seq + 1;
  (t.seq lsl 1) lor (if anon then 1 else 0)

let check_future t when_ =
  if Time.( < ) when_ t.clock then
    invalid_arg
      (Format.asprintf "Sched.at: %a is before now (%a)" Time.pp when_
         Time.pp t.clock)

let mirror t ~key ~tie v =
  match t.shadow with
  | None -> ()
  | Some h -> Heap.push h ~key ~tie v

let at t when_ f =
  check_future t when_;
  let tie = fresh_tie t false in
  let timer = { alive = true; action = f; owner = t; cell = -1 } in
  timer.cell <- Wheel.push t.wheel ~key:when_ ~tie timer;
  mirror t ~key:when_ ~tie timer;
  timer

let after t delay f =
  if Time.( < ) delay Time.zero then invalid_arg "Sched.after: negative delay";
  at t (Time.add t.clock delay) f

let at_anon t when_ f =
  check_future t when_;
  let tie = fresh_tie t true in
  let v = (Obj.magic (f : unit -> unit) : timer) in
  ignore (Wheel.push t.wheel ~key:when_ ~tie v : int);
  mirror t ~key:when_ ~tie v

let after_anon t delay f =
  if Time.( < ) delay Time.zero then invalid_arg "Sched.after: negative delay";
  at_anon t (Time.add t.clock delay) f

(* Cancellation unlinks the wheel cell immediately — O(1), no dead
   entries accumulating, no compaction pass (the heap-era amortisation
   this replaces).  The shadow heap, when armed, keeps the dead entry
   and filters it at pop time instead. *)
let cancel tm =
  if tm.alive then begin
    tm.alive <- false;
    let t = tm.owner in
    Wheel.cancel t.wheel tm.cell;
    tm.cell <- -1;
    t.cancelled <- t.cancelled + 1
  end

let pending timer = timer.alive

let set_lockstep t on =
  if on then begin
    if t.shadow = None then begin
      if not (Wheel.is_empty t.wheel) then
        invalid_arg "Sched.set_lockstep: scheduler already has queued events";
      t.shadow <- Some (Heap.create ())
    end
  end
  else t.shadow <- None

let lockstep t = t.shadow <> None

(* Drop cancelled timers sitting at the shadow root, then demand its
   live minimum agrees with what the wheel is about to fire. *)
let check_shadow h ~key ~tie =
  let rec clean () =
    match Heap.peek h with
    | Some (_, ht, v) when ht land 1 = 0 && not v.alive ->
      ignore (Heap.pop_exn h : timer);
      clean ()
    | _ -> ()
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
  ignore (Heap.pop_exn h : timer)

let fire t when_ timer =
  t.clock <- when_;
  if timer.alive then begin
    timer.alive <- false;
    timer.cell <- -1;
    t.fired <- t.fired + 1;
    if Array.length t.tap.Tap.subs > 0 then Tap.emit t.tap when_;
    timer.action ()
  end

(* What [Wheel.pop_until] returns when nothing is due.  A closure like
   the anonymous entries, private to this module, so no queued value
   is ever physically equal to it. *)
let nothing_due () = ()
let none = (Obj.magic (nothing_due : unit -> unit) : timer)

(* The one dispatch path of [run]: a single wheel call pops
   the minimum if it is due by [until] — no option or tuple boxed per
   event, this is the innermost loop of every simulation. *)
let dispatch t ~until =
  let v = Wheel.pop_until t.wheel ~until t.popped ~none in
  if v == none then false
  else begin
    let when_ = t.popped.Wheel.key and tie = t.popped.Wheel.tie in
    (match t.shadow with
    | None -> ()
    | Some h -> check_shadow h ~key:when_ ~tie);
    if tie land 1 = 1 then begin
      t.clock <- when_;
      t.fired <- t.fired + 1;
      if Array.length t.tap.Tap.subs > 0 then Tap.emit t.tap when_;
      (Obj.magic (v : timer) : unit -> unit) ()
    end
    else fire t when_ v;
    true
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
