(* Tests for the discrete-event engine: time arithmetic, the binary heap,
   the scheduler's ordering/cancellation semantics, and the RNG. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time --- *)

let time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "s" 1_000_000_000 (Time.s 1);
  check_int "composition" (Time.s 2) (Time.add (Time.ms 1999) (Time.us 1000))

let time_float_roundtrip () =
  check_int "of_float_s" (Time.ms 1500) (Time.of_float_s 1.5);
  Alcotest.(check (float 1e-12)) "to_float_s" 0.25 (Time.to_float_s (Time.ms 250));
  check_int "rounding" 1 (Time.of_float_s 1e-9);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Time.of_float_s: negative or non-finite") (fun () ->
      ignore (Time.of_float_s (-1.0)))

let time_scale () =
  check_int "scale by 2" (Time.ms 20) (Time.scale (Time.ms 10) 2.0);
  check_int "scale by 0.5" (Time.ms 5) (Time.scale (Time.ms 10) 0.5);
  check_int "scale rounds" 1 (Time.scale 1 0.6)

let time_tx_exact () =
  (* 1500 B at 100 Mbps is exactly 120 us. *)
  check_int "1500B@100M" (Time.us 120)
    (Time.tx_time ~bits:12000 ~rate_bps:100_000_000);
  (* Rounding must be up: 1 bit at 3 bps = ceil(1e9/3). *)
  check_int "round up" 333_333_334 (Time.tx_time ~bits:1 ~rate_bps:3);
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Time.tx_time: rate must be positive") (fun () ->
      ignore (Time.tx_time ~bits:1 ~rate_bps:0))

let time_pp () =
  Alcotest.(check string) "ns" "999ns" (Time.to_string 999);
  Alcotest.(check string) "ms" "1.5ms" (Time.to_string (Time.us 1500));
  Alcotest.(check string) "s" "2.5s" (Time.to_string (Time.ms 2500))

(* --- Heap --- *)

let heap_basic () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  Heap.push h ~key:5 ~tie:0 "five";
  Heap.push h ~key:1 ~tie:0 "one";
  Heap.push h ~key:3 ~tie:0 "three";
  check_int "length" 3 (Heap.length h);
  (match Heap.peek h with
  | Some (1, _, "one") -> ()
  | _ -> Alcotest.fail "peek should be the minimum");
  let order = List.filter_map (fun () -> Option.map (fun (_, _, v) -> v)
      (Heap.pop h)) [ (); (); () ] in
  Alcotest.(check (list string)) "sorted" [ "one"; "three"; "five" ] order;
  check_bool "drained" true (Heap.pop h = None)

let heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> Heap.push h ~key:7 ~tie:i v) [ "a"; "b"; "c" ];
  let popped = List.init 3 (fun _ ->
      match Heap.pop h with Some (_, _, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "FIFO among equal keys" [ "a"; "b"; "c" ]
    popped

let heap_clear () =
  let h = Heap.create () in
  Heap.push h ~key:1 ~tie:0 0;
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h);
  (* The heap must stay usable after clear. *)
  Heap.push h ~key:2 ~tie:0 7;
  (match Heap.pop h with
  | Some (2, _, 7) -> ()
  | _ -> Alcotest.fail "push after clear");
  check_bool "drained again" true (Heap.is_empty h)

let heap_capacity () =
  let h = Heap.create ~capacity:64 () in
  check_int "preallocated" 64 (Heap.capacity h);
  for i = 0 to 63 do
    Heap.push h ~key:i ~tie:i i
  done;
  check_int "no growth within capacity" 64 (Heap.capacity h);
  Heap.push h ~key:64 ~tie:64 64;
  check_bool "doubles when full" true (Heap.capacity h >= 128);
  check_int "default is 256" 256 (Heap.capacity (Heap.create ()));
  check_int "explicit zero allowed" 0 (Heap.capacity (Heap.create ~capacity:0 ()))

let heap_compact_basic () =
  let h = Heap.create () in
  List.iteri (fun i k -> Heap.push h ~key:k ~tie:i k) [ 5; 1; 4; 2; 3 ];
  Heap.compact h ~keep:(fun v -> v mod 2 = 1);
  check_int "three survivors" 3 (Heap.length h);
  let popped =
    List.init 3 (fun _ ->
        match Heap.pop h with Some (k, _, _) -> k | None -> -1)
  in
  Alcotest.(check (list int)) "survivors in order" [ 1; 3; 5 ] popped

let heap_qcheck_sorted =
  QCheck.Test.make ~name:"heap pops keys in non-decreasing order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~tie:i k) keys;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (k, _, _) -> k >= prev && drain k
      in
      drain min_int)

let heap_qcheck_conserves =
  QCheck.Test.make ~name:"heap returns exactly the pushed multiset" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~tie:i k) keys;
      let rec drain acc =
        match Heap.pop h with
        | None -> acc
        | Some (k, _, _) -> drain (k :: acc)
      in
      List.sort compare (drain []) = List.sort compare keys)

let drain_pairs h =
  let rec go acc =
    match Heap.pop h with
    | None -> List.rev acc
    | Some (k, t, _) -> go ((k, t) :: acc)
  in
  go []

let heap_qcheck_key_tie_order =
  (* Random keys AND random ties: pops must follow (key, tie)
     lexicographic order exactly. *)
  QCheck.Test.make ~name:"heap pops in (key, tie) lexicographic order"
    ~count:200
    QCheck.(list (pair (int_bound 50) (int_bound 50)))
    (fun pairs ->
      let h = Heap.create ~capacity:4 () in
      List.iteri (fun i (k, t) -> Heap.push h ~key:k ~tie:t i) pairs;
      drain_pairs h = List.sort compare (List.map (fun (k, t) -> (k, t)) pairs))

let heap_qcheck_compact_order =
  (* Dropping a random subset must not disturb the order of what
     remains: compact-then-drain equals filter-then-sort. *)
  QCheck.Test.make ~name:"compact keeps surviving order" ~count:200
    QCheck.(list (pair (int_bound 100) bool))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (k, keep) -> Heap.push h ~key:k ~tie:i keep) entries;
      Heap.compact h ~keep:(fun b -> b);
      let surviving =
        List.mapi (fun i (k, keep) -> (k, i, keep)) entries
        |> List.filter (fun (_, _, keep) -> keep)
        |> List.map (fun (k, i, _) -> (k, i))
        |> List.sort compare
      in
      drain_pairs h = surviving)

(* --- Wheel --- *)

(* The wheel carries int payloads; the cases below name their entries
   by an index into [labels]. *)
let labels = ref [||]

let label s =
  match Array.find_index (String.equal s) !labels with
  | Some i -> i
  | None ->
    labels := Array.append !labels [| s |];
    Array.length !labels - 1

let unlabel i = !labels.(i)

let wheel_drain w =
  let rec go acc =
    if Wheel.is_empty w then List.rev acc
    else
      let k = Wheel.min_key_exn w and t = Wheel.min_tie_exn w in
      let v = Wheel.pop_exn w in
      go ((k, t, v) :: acc)
  in
  go []

let wheel_basic () =
  let w = Wheel.create () in
  check_bool "empty" true (Wheel.is_empty w);
  ignore (Wheel.push w ~key:5 ~tie:2 (label "five"));
  ignore (Wheel.push w ~key:1 ~tie:0 (label "one"));
  ignore (Wheel.push w ~key:3 ~tie:1 (label "three"));
  check_int "length" 3 (Wheel.length w);
  check_int "min key" 1 (Wheel.min_key_exn w);
  Alcotest.(check (list string)) "sorted" [ "one"; "three"; "five" ]
    (List.map (fun (_, _, v) -> unlabel v) (wheel_drain w));
  check_bool "drained" true (Wheel.is_empty w)

let wheel_fifo_ties () =
  let w = Wheel.create () in
  List.iteri
    (fun i v -> ignore (Wheel.push w ~key:7 ~tie:i (label v)))
    [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "FIFO among equal keys" [ "a"; "b"; "c" ]
    (List.map (fun (_, _, v) -> unlabel v) (wheel_drain w))

let wheel_overdue_push () =
  (* Popping advances the wheel's position; a later push below that
     position is "overdue" and must still pop first, in full (key, tie)
     order against other overdue entries. *)
  let w = Wheel.create () in
  ignore (Wheel.push w ~key:1_000_000 ~tie:0 (label "future"));
  check_int "positioned" 1_000_000 (Wheel.min_key_exn w);
  ignore (Wheel.pop_exn w);
  ignore (Wheel.push w ~key:10 ~tie:1 (label "overdue-b"));
  ignore (Wheel.push w ~key:3 ~tie:2 (label "overdue-a"));
  ignore (Wheel.push w ~key:2_000_000 ~tie:3 (label "future-2"));
  Alcotest.(check (list string)) "overdue first, ordered"
    [ "overdue-a"; "overdue-b"; "future-2" ]
    (List.map (fun (_, _, v) -> unlabel v) (wheel_drain w))

let wheel_cancel () =
  let w = Wheel.create () in
  let _a = Wheel.push w ~key:1 ~tie:0 (label "a") in
  let b = Wheel.push w ~key:2 ~tie:1 (label "b") in
  let _c = Wheel.push w ~key:3 ~tie:2 (label "c") in
  Wheel.cancel w b;
  check_int "length after cancel" 2 (Wheel.length w);
  Alcotest.(check (list string)) "survivors in order" [ "a"; "c" ]
    (List.map (fun (_, _, v) -> unlabel v) (wheel_drain w));
  check_bool "stale handle rejected" true
    (try Wheel.cancel w b; false with Invalid_argument _ -> true)

let wheel_peek_then_push_below () =
  (* A peek makes the lowest level-0 slot current without popping
     ([Sched.run ~until] peeks past its horizon).  A later push may
     then fall between the wheel's position and that slot; it must
     still pop first, whether the slot held one cell (taken without a
     sort) or several. *)
  List.iter
    (fun later ->
      let w = Wheel.create () in
      List.iter (fun k -> ignore (Wheel.push w ~key:k ~tie:k k)) later;
      check_int "peeked" (List.hd later) (Wheel.min_key_exn w);
      ignore (Wheel.push w ~key:50_000 ~tie:0 50_000);
      Alcotest.(check (list int))
        (Printf.sprintf "%d cell(s) in the peeked slot" (List.length later))
        (50_000 :: later)
        (List.map (fun (_, _, v) -> v) (wheel_drain w)))
    [ [ 100_000 ]; [ 100_000; 100_001 ] ]

let wheel_negative_key_rejected () =
  let w = Wheel.create () in
  check_bool "raises" true
    (try ignore (Wheel.push w ~key:(-1) ~tie:0 0); false
     with Invalid_argument _ -> true)

let wheel_overflow_level () =
  (* Keys beyond the wheel's 2^52 ns span wait in the overflow heap and
     must migrate in as the wheel drains — including after a cancel. *)
  let span = 1 lsl 52 in
  let w = Wheel.create () in
  ignore (Wheel.push w ~key:5 ~tie:0 (label "near"));
  ignore (Wheel.push w ~key:(span + 7) ~tie:1 (label "far-b"));
  let dead = Wheel.push w ~key:(span + 3) ~tie:2 (label "dead") in
  ignore (Wheel.push w ~key:(span + 1) ~tie:3 (label "far-a"));
  check_int "all queued" 4 (Wheel.length w);
  Wheel.cancel w dead;
  Alcotest.(check (list string)) "near then migrated overflow in order"
    [ "near"; "far-a"; "far-b" ]
    (List.map (fun (_, _, v) -> unlabel v) (wheel_drain w))

let wheel_qcheck_vs_heap =
  (* The wheel and the heap implement the same ordering contract: any
     multiset of (key, tie) pairs drains identically, across level
     boundaries and into the overflow region. *)
  QCheck.Test.make ~name:"wheel pops exactly like the heap" ~count:200
    QCheck.(list (pair (int_bound 5_000_000) (int_bound 1000)))
    (fun pairs ->
      let w = Wheel.create ~capacity:4 () in
      let h = Heap.create () in
      (* Make ties unique so the expected order is total. *)
      List.iteri
        (fun i (k, t) ->
          let tie = (t * 10_000) + i in
          ignore (Wheel.push w ~key:k ~tie i);
          Heap.push h ~key:k ~tie i)
        pairs;
      let rec drain_heap acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (k, t, v) -> drain_heap ((k, t, v) :: acc)
      in
      wheel_drain w = drain_heap [])

let wheel_cascades_counted () =
  let w = Wheel.create () in
  (* Spread entries over several levels, then drain: redistributions
     must have happened and been counted. *)
  for i = 0 to 199 do
    ignore (Wheel.push w ~key:(i * 7919) ~tie:i i)
  done;
  ignore (wheel_drain w);
  check_bool "cascades happened" true (Wheel.cascade_count w > 0)

let wheel_span_boundary () =
  (* The exact edge of the wheel's 2^52 ns span: span - 1 is the last
     key the levels can hold, span and beyond live in the overflow heap
     until the drain reaches them.  Ordering must be seamless across
     the boundary, and equal keys on both sides of it keep FIFO ties. *)
  let span = 1 lsl 52 in
  let w = Wheel.create () in
  ignore (Wheel.push w ~key:(span - 1) ~tie:0 (label "last-in-wheel"));
  ignore (Wheel.push w ~key:span ~tie:1 (label "first-overflow"));
  ignore (Wheel.push w ~key:(span + 1) ~tie:2 (label "second-overflow"));
  ignore (Wheel.push w ~key:0 ~tie:3 (label "now"));
  ignore (Wheel.push w ~key:span ~tie:4 (label "first-overflow-tie"));
  Alcotest.(check (list string))
    "seamless order across the span edge"
    [
      "now"; "last-in-wheel"; "first-overflow"; "first-overflow-tie";
      "second-overflow";
    ]
    (List.map (fun (_, _, v) -> unlabel v) (wheel_drain w))

let wheel_level_edges_vs_heap () =
  (* A key's level comes from comparing [key lxor now] with the level
     boundaries 2^b, b = 17, 22, ..., 52 (2^52: the overflow heap).
     From an unaligned [now], push keys at distance 2^b - 1, 2^b and
     2^b + 1 (in the xor sense) around every boundary, pop a few, push
     the edges again around the moved [now], and drain: every pop must
     match the reference heap.  [start] has bits b and b - 1 clear for
     every boundary b, so each first-round key lies above it. *)
  let boundaries = List.init 8 (fun l -> 17 + (5 * l)) in
  let start =
    List.fold_left
      (fun acc bit -> acc lor (1 lsl bit))
      0
      [ 0; 1; 3; 5; 7; 11; 13; 19; 24; 29; 34; 39; 44; 49; 55 ]
  in
  let w = Wheel.create () and h = Heap.create () in
  let tie = ref 0 in
  let push key =
    incr tie;
    ignore (Wheel.push w ~key ~tie:!tie key);
    Heap.push h ~key ~tie:!tie key
  in
  let pop ctx =
    check_int (ctx ^ ": min key") (Heap.min_key_exn h) (Wheel.min_key_exn w);
    check_int (ctx ^ ": min tie") (Heap.min_tie_exn h) (Wheel.min_tie_exn w);
    check_int (ctx ^ ": popped") (Heap.pop_exn h) (Wheel.pop_exn w)
  in
  let push_edges round =
    let now = Wheel.now w in
    List.iter
      (fun b ->
        List.iter
          (fun x ->
            let key = now lxor x in
            if round = 0 then
              check_bool
                (Printf.sprintf "edge 2^%d%+d above now" b (x - (1 lsl b)))
                true (key > now);
            push key)
          [ (1 lsl b) - 1; 1 lsl b; (1 lsl b) + 1 ])
      boundaries
  in
  push start;
  pop "advance";
  check_int "now at the unaligned start" start (Wheel.now w);
  for round = 0 to 2 do
    push_edges round;
    for i = 1 to 7 do
      pop (Printf.sprintf "round %d pop %d" round i)
    done
  done;
  while not (Wheel.is_empty w) do
    pop "drain"
  done;
  check_bool "heap drained too" true (Heap.is_empty h)

let wheel_mixed_cancel_vs_heap () =
  (* Satellite conformance pin: a deterministic program that pushes
     across every key regime (near, multi-level, beyond-span), cancels
     a third of the handles — some in the wheel levels, some in the
     overflow heap, one already popped — and interleaves pops, driven
     against the reference heap through the shared Timer_queue
     signature.  Lengths, minima and pop streams must agree at every
     step. *)
  let module Wq = Engine.Timer_queue.Of_wheel in
  let module Hq = Engine.Timer_queue.Of_heap in
  let span = 1 lsl 52 in
  let w = Wq.create () and h = Hq.create () in
  let agree ctx =
    check_int (ctx ^ ": length") (Hq.length h) (Wq.length w);
    if Wq.length w > 0 then begin
      check_int (ctx ^ ": min key") (Hq.min_key_exn h) (Wq.min_key_exn w);
      check_int (ctx ^ ": min tie") (Hq.min_tie_exn h) (Wq.min_tie_exn w)
    end
  in
  let pop ctx =
    agree ctx;
    check_int (ctx ^ ": popped value") (Hq.pop_exn h) (Wq.pop_exn w)
  in
  let handles =
    List.mapi
      (fun i key -> (Wq.push w ~key ~tie:i i, Hq.push h ~key ~tie:i i))
      [
        3; 1_000; 777; 40_000_000; 5_000_000_000; 123_456_789_000;
        span - 2; span; span + 99; span + 5; (2 * span) + 1; 17;
      ]
  in
  agree "after pushes";
  (* pop the two earliest (3 and 17) ... *)
  pop "first";
  pop "second";
  let cancel i =
    let hw, hh = List.nth handles i in
    Wq.cancel w hw;
    Hq.cancel h hh;
    agree (Printf.sprintf "after cancel %d" i)
  in
  cancel 0 (* already popped: must be a no-op on both *);
  cancel 2 (* low wheel level *);
  cancel 3 (* higher wheel level *);
  cancel 7 (* overflow heap, minimal overflow key *);
  cancel 10 (* overflow heap, largest key *);
  cancel 10 (* double cancel: idempotent *);
  (* remaining live: 1_000, 5e9, 123_456_789_000, span-2, span+99, span+5 *)
  check_int "live entries" 6 (Wq.length w);
  let drained = ref [] in
  while Wq.length w > 0 do
    agree "drain";
    drained := Wq.pop_exn w :: !drained;
    ignore (Hq.pop_exn h)
  done;
  Alcotest.(check (list int))
    "survivors in key order"
    [ 1; 4; 5; 6; 9; 8 ]
    (List.rev !drained);
  check_bool "heap drained too" true (Hq.is_empty h)

(* --- Sched --- *)

let sched_ordering () =
  let s = Sched.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sched.at s (Time.ms 30) (note "c"));
  ignore (Sched.at s (Time.ms 10) (note "a"));
  ignore (Sched.at s (Time.ms 20) (note "b"));
  Sched.run s;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !log);
  check_int "clock at last event" (Time.ms 30) (Sched.now s);
  check_int "fired" 3 (Sched.events_processed s)

let sched_same_time_fifo () =
  let s = Sched.create () in
  let log = ref [] in
  List.iter
    (fun tag -> ignore (Sched.at s (Time.ms 5) (fun () -> log := tag :: !log)))
    [ "x"; "y"; "z" ];
  Sched.run s;
  Alcotest.(check (list string)) "insertion order" [ "x"; "y"; "z" ]
    (List.rev !log)

let sched_cancel () =
  let s = Sched.create () in
  let fired = ref false in
  let t = Sched.at s (Time.ms 1) (fun () -> fired := true) in
  check_bool "pending" true (Sched.pending t);
  Sched.cancel t;
  Sched.run s;
  check_bool "cancelled event must not fire" false !fired;
  check_bool "not pending" false (Sched.pending t)

let sched_until () =
  let s = Sched.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sched.after s (Time.ms 10) tick)
  in
  ignore (Sched.at s Time.zero tick);
  Sched.run ~until:(Time.ms 95) s;
  check_int "ticks in [0, 95ms]" 10 !count;
  check_int "clock advanced to horizon" (Time.ms 95) (Sched.now s);
  Sched.run ~until:(Time.ms 100) s;
  check_int "one more tick at 100ms" 11 !count

let sched_nested_scheduling () =
  let s = Sched.create () in
  let log = ref [] in
  ignore
    (Sched.at s (Time.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Sched.after s Time.zero (fun () -> log := "inner" :: !log))));
  ignore (Sched.at s (Time.ms 2) (fun () -> log := "later" :: !log));
  Sched.run s;
  Alcotest.(check (list string)) "inner runs before later"
    [ "outer"; "inner"; "later" ] (List.rev !log)

let sched_cancel_from_callback () =
  (* A callback may cancel a later event; the cancelled event must not
     fire even though it was already queued. *)
  let s = Sched.create () in
  let fired = ref [] in
  let victim = Sched.at s (Time.ms 10) (fun () -> fired := "victim" :: !fired) in
  ignore
    (Sched.at s (Time.ms 5) (fun () ->
         fired := "killer" :: !fired;
         Sched.cancel victim));
  Sched.run s;
  Alcotest.(check (list string)) "victim never fires" [ "killer" ]
    (List.rev !fired);
  check_int "only one event counted" 1 (Sched.events_processed s)

let sched_queue_length () =
  let s = Sched.create () in
  ignore (Sched.at s (Time.ms 1) (fun () -> ()));
  ignore (Sched.at s (Time.ms 2) (fun () -> ()));
  check_int "two pending" 2 (Sched.queue_length s);
  Sched.run s;
  check_int "drained" 0 (Sched.queue_length s)

let sched_stats () =
  let s = Sched.create () in
  let timers =
    List.init 5 (fun i -> Sched.at s (Time.ms (i + 1)) (fun () -> ()))
  in
  check_int "five pending" 5 (Sched.queue_length s);
  Sched.cancel (List.nth timers 1);
  Sched.cancel (List.nth timers 3);
  Sched.cancel (List.nth timers 3);
  (* double cancel is a no-op *)
  let st = Sched.stats s in
  check_int "pending excludes cancelled" 3 st.Sched.pending;
  check_int "cancelled" 2 st.Sched.cancelled;
  check_int "nothing fired yet" 0 st.Sched.fired;
  Sched.run s;
  let st = Sched.stats s in
  check_int "drained" 0 st.Sched.pending;
  check_int "three fired" 3 st.Sched.fired;
  check_int "cancel count is cumulative" 2 (Sched.cancelled_count s)

let sched_mass_cancel_compacts () =
  (* The retransmit-timer pattern: cancel nearly everything.  Live
     events must still fire in order, and the cancelled ones never. *)
  let s = Sched.create () in
  let log = ref [] in
  let timers =
    List.init 200 (fun i ->
        (i, Sched.at s (Time.ms (i + 1)) (fun () -> log := i :: !log)))
  in
  List.iter (fun (i, tm) -> if i mod 10 <> 0 then Sched.cancel tm) timers;
  check_int "only survivors pending" 20 (Sched.queue_length s);
  check_int "180 cancelled" 180 (Sched.cancelled_count s);
  Sched.run s;
  Alcotest.(check (list int)) "survivors fire in time order"
    (List.init 20 (fun i -> i * 10))
    (List.rev !log);
  check_int "fired" 20 (Sched.events_processed s)

let sched_qcheck_cancel_order =
  (* Against an arbitrary cancellation pattern, the fired sequence is
     exactly the non-cancelled events sorted by (time, insertion):
     compaction must never lose or reorder a live timer. *)
  QCheck.Test.make ~name:"random cancels preserve firing order" ~count:100
    QCheck.(list (pair (int_bound 30) bool))
    (fun events ->
      let s = Sched.create () in
      let log = ref [] in
      let timers =
        List.mapi
          (fun i (t_ms, cancel) ->
            (i, cancel, Sched.at s (Time.ms t_ms) (fun () -> log := i :: !log)))
          events
      in
      List.iter
        (fun (_, cancel, tm) -> if cancel then Sched.cancel tm)
        timers;
      Sched.run s;
      let expected =
        List.mapi (fun i (t_ms, cancel) -> (t_ms, i, cancel)) events
        |> List.filter (fun (_, _, cancel) -> not cancel)
        |> List.sort compare
        |> List.map (fun (_, i, _) -> i)
      in
      List.rev !log = expected)

(* A random scheduler program: event [i] waits [delay] us after the
   start (no [parent]) or after its parent fires, is a handler call
   with argument [i], an [at_anon] closure, a timer, or a timer
   cancelled at once and re-armed at the same key; when it fires it
   schedules its children, in index order, and cancels timer
   [cancels] if that one is pending.  Delays of 0-3 us make equal
   keys common.  [sched_program] runs it on [Sched] (with the lockstep
   shadow armed or not) and [heap_program] on the reference [Heap] by
   (key, insertion); each returns the ids in firing order. *)
type prog_event = { delay : int; kind : int; parent : int; cancels : int }

let prog_events raw =
  List.mapi
    (fun i (delay, kind, parent, cancels) ->
      { delay; kind; parent = (parent mod (i + 1)) - 1; cancels = cancels mod 40 })
    raw
  |> Array.of_list

let sched_program ~lockstep prog =
  let s = Sched.create () in
  if lockstep then Sched.set_lockstep s true;
  let n = Array.length prog in
  let log = ref [] and timers = Array.make n None in
  let rec fire i =
    log := i :: !log;
    let e = prog.(i) in
    (if e.cancels < n then
       match timers.(e.cancels) with
       | Some tm -> Sched.cancel tm
       | None -> ());
    Array.iteri (fun j c -> if c.parent = i then arm j) prog
  and h = lazy (Sched.register s fire)
  and arm i =
    let e = prog.(i) in
    let at = Time.add (Sched.now s) (Time.us e.delay) in
    match e.kind with
    | 0 -> Sched.at_call s at (Lazy.force h) i
    | 1 -> Sched.at_anon s at (fun () -> fire i)
    | 2 -> timers.(i) <- Some (Sched.at s at (fun () -> fire i))
    | _ ->
      Sched.cancel (Sched.at s at (fun () -> failwith "cancelled timer fired"));
      timers.(i) <- Some (Sched.at s at (fun () -> fire i))
  in
  Array.iteri (fun i e -> if e.parent < 0 then arm i) prog;
  Sched.run s;
  (List.rev !log, Sched.events_processed s)

let heap_program prog =
  let h = Heap.create () in
  let n = Array.length prog in
  let seq = ref 0 and now = ref 0 and log = ref [] in
  (* Insertion number -> live?, and timer id -> its live insertion. *)
  let live = Hashtbl.create 64 and timer_entry = Array.make n (-1) in
  let push at i =
    incr seq;
    Heap.push h ~key:at ~tie:!seq i;
    Hashtbl.replace live !seq true;
    !seq
  in
  let arm i =
    let e = prog.(i) in
    let at = !now + Time.us e.delay in
    match e.kind with
    | 0 | 1 -> ignore (push at i : int)
    | 2 -> timer_entry.(i) <- push at i
    | _ ->
      Hashtbl.replace live (push at i) false;
      timer_entry.(i) <- push at i
  in
  Array.iteri (fun i e -> if e.parent < 0 then arm i) prog;
  let rec loop () =
    match Heap.pop h with
    | None -> ()
    | Some (key, tie, i) ->
      if Hashtbl.find live tie then begin
        Hashtbl.replace live tie false;
        now := key;
        log := i :: !log;
        let e = prog.(i) in
        if e.cancels < n && timer_entry.(e.cancels) >= 0 then
          Hashtbl.replace live timer_entry.(e.cancels) false;
        Array.iteri (fun j c -> if c.parent = i then arm j) prog
      end;
      loop ()
  in
  loop ();
  (List.rev !log, List.length !log)

let sched_qcheck_program_order =
  QCheck.Test.make
    ~name:"handler, closure and timer events fire in heap order" ~count:300
    QCheck.(
      pair bool
        (list_of_size Gen.(1 -- 40)
           (quad (int_bound 3) (int_bound 3) (int_bound 40) (int_bound 60))))
    (fun (lockstep, raw) ->
      let prog = prog_events raw in
      sched_program ~lockstep prog = heap_program prog)

let sched_large_population () =
  (* A fresh scheduler holding 1 000 timers and 1 000 closures at once:
     both slot tables double past the minor heap's largest block while
     their slots are all taken.  Every other timer is cancelled, each
     survivor is re-armed once from its own callback, and the firing
     order must stay (time, insertion) throughout, with the lockstep
     shadow armed. *)
  let s = Sched.create () in
  Sched.set_lockstep s true;
  let log = ref [] in
  let timers =
    Array.init 1000 (fun i ->
        Sched.at s (Time.us (2 * i)) (fun () ->
            log := (`T, i) :: !log;
            ignore
              (Sched.after s (Time.us 1) (fun () -> log := (`R, i) :: !log)
                : Sched.timer)))
  in
  for i = 0 to 999 do
    Sched.at_anon s (Time.us (2 * i)) (fun () -> log := (`A, i) :: !log)
  done;
  Array.iteri (fun i tm -> if i mod 2 = 1 then Sched.cancel tm) timers;
  check_int "live after cancels" 1500 (Sched.queue_length s);
  Sched.run s;
  let expected =
    List.concat
      (List.init 1000 (fun i ->
           (* at 2i: the timer (if live), then the closure queued after
              it; the re-armed timer at 2i + 1. *)
           if i mod 2 = 0 then [ (`T, i); (`A, i); (`R, i) ] else [ (`A, i) ]))
  in
  check_bool "firing order" true (List.rev !log = expected);
  check_int "fired" 2000 (Sched.events_processed s);
  check_int "cancelled" 500 (Sched.cancelled_count s)

let sched_call_argument_range () =
  let s = Sched.create () in
  let got = ref [] in
  let h = Sched.register s (fun arg -> got := arg :: !got) in
  let big = (1 lsl 38) - 1 in
  Sched.after_call s Time.zero h big;
  Sched.after_call s Time.zero h 0;
  Sched.run s;
  Alcotest.(check (list int)) "arguments arrive whole" [ big; 0 ] (List.rev !got);
  List.iter
    (fun arg ->
      check_bool (Printf.sprintf "argument %d rejected" arg) true
        (try Sched.after_call s Time.zero h arg; false
         with Invalid_argument _ -> true))
    [ -1; 1 lsl 38 ];
  Sched.after_call s Time.zero Sched.unregistered 0;
  check_bool "unregistered handler raises" true
    (try Sched.run s; false with Failure _ -> true)

let sched_lockstep_shadow () =
  (* With the heap shadow armed, every dispatch is cross-checked; a
     mixed workload with cancellation must run to completion in the
     same order (any divergence raises Failure mid-run). *)
  let s = Sched.create () in
  Sched.set_lockstep s true;
  check_bool "armed" true (Sched.lockstep s);
  let log = ref [] in
  let victim = Sched.at s (Time.ms 4) (fun () -> log := "victim" :: !log) in
  ignore (Sched.at s (Time.ms 2) (fun () -> log := "a" :: !log));
  ignore
    (Sched.at s (Time.ms 3) (fun () ->
         log := "b" :: !log;
         ignore (Sched.after s (Time.ms 5) (fun () -> log := "c" :: !log))));
  Sched.cancel victim;
  Sched.run s;
  Alcotest.(check (list string)) "order under lockstep" [ "a"; "b"; "c" ]
    (List.rev !log)

let sched_lockstep_requires_empty () =
  let s = Sched.create () in
  ignore (Sched.at s (Time.ms 1) (fun () -> ()));
  Alcotest.check_raises "non-empty rejected"
    (Invalid_argument "Sched.set_lockstep: scheduler already has queued events")
    (fun () -> Sched.set_lockstep s true)

let sched_past_rejected () =
  let s = Sched.create () in
  ignore (Sched.at s (Time.ms 5) (fun () -> ()));
  Sched.run s;
  check_bool "raises on past" true
    (try ignore (Sched.at s (Time.ms 1) (fun () -> ())); false
     with Invalid_argument _ -> true)

(* --- Rng --- *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done;
  let c = Rng.create 43 in
  check_bool "different seed differs" true (Rng.bits64 (Rng.create 42) <> Rng.bits64 c)

let rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "int in range" true (v >= 0 && v < 10);
    let f = Rng.float r 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let rng_uniformity () =
  (* chi-square-ish sanity: all 10 buckets within 3x of expectation. *)
  let r = Rng.create 123 in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c -> check_bool "bucket roughly uniform" true (c > 700 && c < 1300))
    buckets

let rng_exponential_mean () =
  let r = Rng.create 99 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:3.0
  done;
  let m = !sum /. float_of_int n in
  check_bool "sample mean near 3.0" true (Float.abs (m -. 3.0) < 0.15)

let rng_split_independent () =
  let r = Rng.create 5 in
  let a = Rng.split r in
  let b = Rng.split r in
  check_bool "split streams differ" true (Rng.bits64 a <> Rng.bits64 b)

let rng_uniform_time () =
  let r = Rng.create 1 in
  for _ = 1 to 100 do
    let v = Rng.uniform_time r ~lo:(Time.ms 1) ~hi:(Time.ms 2) in
    check_bool "in closed range" true (v >= Time.ms 1 && v <= Time.ms 2)
  done

(* --- Tap --- *)

let tap_subscription_order () =
  let tap = Tap.create () in
  let log = ref [] in
  List.iter
    (fun name -> Tap.subscribe tap (fun ev -> log := (name, ev) :: !log))
    [ "a"; "b"; "c" ];
  Tap.emit tap 1;
  Tap.emit tap 2;
  Alcotest.(check (list (pair string int)))
    "each event reaches subscribers in subscription order"
    [ ("a", 1); ("b", 1); ("c", 1); ("a", 2); ("b", 2); ("c", 2) ]
    (List.rev !log)

let tap_every_subscriber_sees_every_event () =
  let tap = Tap.create () in
  let first = ref [] and second = ref [] in
  Tap.subscribe tap (fun ev -> first := ev :: !first);
  Tap.subscribe tap (fun ev -> second := ev :: !second);
  List.iter (Tap.emit tap) [ 3; 1; 4; 1; 5 ];
  Alcotest.(check (list int)) "first" [ 3; 1; 4; 1; 5 ] (List.rev !first);
  Alcotest.(check (list int)) "second" [ 3; 1; 4; 1; 5 ] (List.rev !second)

(* A subscriber added while the scheduler runs (here from inside a
   dispatch-tap callback, i.e. mid-emit) sees only later dispatches. *)
let tap_late_subscriber () =
  let s = Sched.create () in
  List.iter (fun ms -> ignore (Sched.at s (Time.ms ms) ignore)) [ 1; 2; 3; 4 ];
  let early = ref [] and late = ref [] in
  Tap.subscribe (Sched.tap s) (fun at ->
      early := at :: !early;
      if at = Time.ms 2 then
        Tap.subscribe (Sched.tap s) (fun at -> late := at :: !late));
  Sched.run s;
  Alcotest.(check (list int)) "first subscriber saw every dispatch"
    [ Time.ms 1; Time.ms 2; Time.ms 3; Time.ms 4 ] (List.rev !early);
  Alcotest.(check (list int)) "late subscriber saw only later dispatches"
    [ Time.ms 3; Time.ms 4 ] (List.rev !late)

let tap_empty_emit () =
  let empty = Tap.create () and other = Tap.create () in
  let calls = ref 0 in
  Tap.subscribe other (fun () -> incr calls);
  check_int "no subscribers" 0 (Array.length empty.Tap.subs);
  Tap.emit empty ();
  check_int "emitting on an empty tap calls nothing" 0 !calls;
  Tap.emit other ();
  check_int "a subscribed tap still fires" 1 !calls

(* --- Int_table --- *)

let int_table_qcheck_vs_hashtbl =
  (* Random replace programs over a small key range (so keys collide
     and are rebound) agree with Stdlib.Hashtbl on the touched key after
     every step and on every key at the end, across several rehashes. *)
  QCheck.Test.make ~name:"int table agrees with Hashtbl" ~count:300
    QCheck.(list (pair (int_bound 200) small_nat))
    (fun ops ->
      let t = Engine.Int_table.create ~absent:(-1) () in
      let h = Hashtbl.create 8 in
      let agree k =
        Engine.Int_table.find t k
        = Option.value ~default:(-1) (Hashtbl.find_opt h k)
        && Engine.Int_table.mem t k = Hashtbl.mem h k
      in
      List.for_all
        (fun (key, v) ->
          Engine.Int_table.replace t key v;
          Hashtbl.replace h key v;
          agree key)
        ops
      && List.for_all agree (List.init 201 Fun.id))

let () =
  Alcotest.run "engine"
    [
      ( "time",
        [
          Alcotest.test_case "unit constructors" `Quick time_units;
          Alcotest.test_case "float round trip" `Quick time_float_roundtrip;
          Alcotest.test_case "scale" `Quick time_scale;
          Alcotest.test_case "tx_time exact and rounded up" `Quick time_tx_exact;
          Alcotest.test_case "pretty printing" `Quick time_pp;
        ] );
      ( "heap",
        [
          Alcotest.test_case "push/pop basic" `Quick heap_basic;
          Alcotest.test_case "FIFO tie-break" `Quick heap_fifo_ties;
          Alcotest.test_case "clear" `Quick heap_clear;
          Alcotest.test_case "capacity honoured" `Quick heap_capacity;
          Alcotest.test_case "compact drops and keeps order" `Quick
            heap_compact_basic;
          QCheck_alcotest.to_alcotest heap_qcheck_sorted;
          QCheck_alcotest.to_alcotest heap_qcheck_conserves;
          QCheck_alcotest.to_alcotest heap_qcheck_key_tie_order;
          QCheck_alcotest.to_alcotest heap_qcheck_compact_order;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "push/pop basic" `Quick wheel_basic;
          Alcotest.test_case "FIFO tie-break" `Quick wheel_fifo_ties;
          Alcotest.test_case "overdue push still ordered" `Quick
            wheel_overdue_push;
          Alcotest.test_case "cancel unlinks, stale handle rejected" `Quick
            wheel_cancel;
          Alcotest.test_case "negative key rejected" `Quick
            wheel_negative_key_rejected;
          Alcotest.test_case "overflow level migrates in order" `Quick
            wheel_overflow_level;
          Alcotest.test_case "cascades counted" `Quick wheel_cascades_counted;
          Alcotest.test_case "span boundary seamless" `Quick
            wheel_span_boundary;
          Alcotest.test_case "mixed wheel/overflow cancel vs heap" `Quick
            wheel_mixed_cancel_vs_heap;
          Alcotest.test_case "level edges vs heap" `Quick
            wheel_level_edges_vs_heap;
          QCheck_alcotest.to_alcotest wheel_qcheck_vs_heap;
          Alcotest.test_case "peek then push below the current slot" `Quick
            wheel_peek_then_push_below;
        ] );
      ( "sched",
        [
          Alcotest.test_case "events fire in time order" `Quick sched_ordering;
          Alcotest.test_case "same-time events are FIFO" `Quick
            sched_same_time_fifo;
          Alcotest.test_case "cancel prevents firing" `Quick sched_cancel;
          Alcotest.test_case "run ~until stops at horizon" `Quick sched_until;
          Alcotest.test_case "zero-delay nested events" `Quick
            sched_nested_scheduling;
          Alcotest.test_case "scheduling in the past rejected" `Quick
            sched_past_rejected;
          Alcotest.test_case "cancel from a callback" `Quick
            sched_cancel_from_callback;
          Alcotest.test_case "queue length" `Quick sched_queue_length;
          Alcotest.test_case "stats snapshot" `Quick sched_stats;
          Alcotest.test_case "mass cancellation compacts" `Quick
            sched_mass_cancel_compacts;
          Alcotest.test_case "lockstep shadow agrees" `Quick
            sched_lockstep_shadow;
          Alcotest.test_case "lockstep requires empty queue" `Quick
            sched_lockstep_requires_empty;
          QCheck_alcotest.to_alcotest sched_qcheck_cancel_order;
          QCheck_alcotest.to_alcotest sched_qcheck_program_order;
          Alcotest.test_case "call arguments and their range" `Quick
            sched_call_argument_range;
          Alcotest.test_case "a thousand timers and closures at once" `Quick
            sched_large_population;
        ] );
      ( "tap",
        [
          Alcotest.test_case "subscription order" `Quick
            tap_subscription_order;
          Alcotest.test_case "every subscriber sees every event" `Quick
            tap_every_subscriber_sees_every_event;
          Alcotest.test_case "late subscriber sees only later events" `Quick
            tap_late_subscriber;
          Alcotest.test_case "empty tap calls nothing" `Quick tap_empty_emit;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick rng_deterministic;
          Alcotest.test_case "bounds" `Quick rng_bounds;
          Alcotest.test_case "rough uniformity" `Quick rng_uniformity;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "split independence" `Quick rng_split_independent;
          Alcotest.test_case "uniform_time range" `Quick rng_uniform_time;
        ] );
      ( "table",
        [ QCheck_alcotest.to_alcotest int_table_qcheck_vs_hashtbl ] );
    ]
