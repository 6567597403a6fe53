(* The micro-benchmark table of the hot components, shared by
   bench/main.exe (which records it as `microbench_ns` in
   BENCH_results.json and gates on it) and bench/scratch.exe (which
   prints it alone).

   One estimator times every row: the minimum ns per run over N
   batches, with the batches taken round-robin across the rows.  The
   minimum is the batch that met the least interference on a loaded
   host.  Taking batches round-robin spreads each row's samples over
   the whole phase, so both sides of a same-run floor (olia vs cubic,
   wheel vs heap, fluid vs sim) meet the same slow phases of the host;
   timed row by row, one side could draw a quiet second and the other
   a busy one. *)

(* The rows the perf gate reads, each named once. *)
let heap_row = "heap push+pop 1k"
let wheel_row = "wheel push+pop 1k"
let cubic_row = "cubic 1k acks"
let olia_row = "olia 1k acks"
let sim_row = "paper sim 200ms (CUBIC)"
let fluid_row = "fluid equilibrium paper (CUBIC)"

(* Keys are microsecond-spaced, like the simulation's real timers
   (RTTs are milliseconds, events microseconds apart).  Keys packed
   into a nanosecond range land in a single wheel slot, which
   benchmarks the degenerate dense case instead of the structure; that
   case keeps its own row. *)
let us_key i = Engine.Time.us (i * 7919 mod 1000)

let wheel_push w key =
  for i = 0 to 999 do
    ignore (Engine.Wheel.push w ~key:(key i) ~tie:i i : int)
  done

let wheel_drain w =
  while not (Engine.Wheel.is_empty w) do
    ignore (Engine.Wheel.pop_exn w)
  done

(* 1k ACKs with a loss every 100th through one subflow of a
   three-subflow group: the per-ACK congestion-control law alone. *)
let cc_acks factory () =
  let cwnd = ref 10.0 and ssthresh = ref 1e9 in
  let now = ref 0.0 in
  let g = Tcp.Cc.group_create 3 in
  Array.iteri
    (fun i w ->
      g.Tcp.Cc.cwnds.(i) <- w;
      g.Tcp.Cc.srtts.(i) <- 0.01;
      g.Tcp.Cc.loss_intervals.(i) <- 100_000.0;
      Tcp.Cc.group_set_established g i true)
    [| 10.0; 20.0; 30.0 |];
  let group () =
    g.Tcp.Cc.cwnds.(0) <- !cwnd;
    g
  in
  let ctx =
    {
      Tcp.Cc.now_s = (fun () -> !now);
      mss = Packet.default_mss;
      get_cwnd = (fun () -> !cwnd);
      set_cwnd = (fun w -> cwnd := w);
      get_ssthresh = (fun () -> !ssthresh);
      set_ssthresh = (fun w -> ssthresh := w);
      srtt_s = (fun () -> 0.01);
      group;
      self_index = (fun () -> 0);
    }
  in
  let cc = factory ctx in
  for i = 1 to 1000 do
    now := float_of_int i *. 0.001;
    cc.Tcp.Cc.on_ack ~acked:Packet.default_mss;
    if i mod 100 = 0 then cc.Tcp.Cc.on_loss ()
  done

(* The fluid analogue of the paper sim: compile the paper topology into
   the ODE model and solve for the equilibrium, end to end.  Returns the
   field evaluations the solve spent, which the gate pins per
   controller. *)
let fluid_solve controller =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.paths topo in
  let m = Fluid.Model.compile topo ~paths ~controller () in
  (snd (Fluid.Equilibrium.solve m ())).Fluid.Equilibrium.iterations

let fluid_equilibrium controller () = ignore (fluid_solve controller : int)

let simplex =
  let a = [| [| 1.; 1.; 0. |]; [| 1.; 0.; 1. |]; [| 0.; 1.; 1. |] |] in
  let b = [| 40.; 60.; 80. |] in
  let c = [| 1.; 1.; 1. |] in
  fun () -> ignore (Lp.Simplex.solve ~c ~a ~b)

(* Insert/cancel and expiry cost against a standing population of
   pending timers (the regime where a heap's log n shows): [n] backdrop
   timers parked far in the future, then 1k operations per run. *)
let backdrop n =
  let w = Engine.Wheel.create () in
  let far = 1 lsl 41 in
  for i = 0 to n - 1 do
    ignore (Engine.Wheel.push w ~key:(far + (i * 104729)) ~tie:i i : int)
  done;
  w

(* The handle array is built once per row, not per run: at 1 000 slots
   it is above [Max_young_wosize], so each run would otherwise allocate
   it straight into the major heap. *)
let insert_cancel n =
  let handles = Array.make 1000 (-1) in
  fun w ->
    for i = 0 to 999 do
      handles.(i) <-
        Engine.Wheel.push w ~key:(i * 7919 mod 100_000) ~tie:(n + i) i
    done;
    for i = 0 to 999 do
      Engine.Wheel.cancel w handles.(i)
    done

(* Near-future inserts relative to the wheel's moving position, then
   drain them past the backdrop: steady-state expiry. *)
let expire _ w =
  let base = Engine.Wheel.now w + 1 in
  wheel_push w (fun i -> base + (i * 7919 mod 100_000));
  for _ = 0 to 999 do
    ignore (Engine.Wheel.pop_exn w)
  done

let rows =
  [
    (heap_row, fun () ->
        let h = Engine.Heap.create () in
        for i = 0 to 999 do
          Engine.Heap.push h ~key:(us_key i) ~tie:i i
        done;
        while not (Engine.Heap.is_empty h) do
          ignore (Engine.Heap.pop h)
        done);
    ("heap push+compact 1k", fun () ->
        let h = Engine.Heap.create () in
        for i = 0 to 999 do
          Engine.Heap.push h ~key:(i * 7919 mod 1000) ~tie:i i
        done;
        Engine.Heap.compact h ~keep:(fun v -> v land 7 = 0);
        while not (Engine.Heap.is_empty h) do
          ignore (Engine.Heap.pop h)
        done);
    (* Same keys, same drain as the heap row: the structural speedup of
       the timing wheel read off directly. *)
    (wheel_row, fun () ->
        let w = Engine.Wheel.create () in
        wheel_push w us_key;
        wheel_drain w);
    (* The same pushes without the drain: the difference from the row
       above is the cost of the pops. *)
    ("wheel push only 1k", fun () ->
        wheel_push (Engine.Wheel.create ()) us_key);
    (* Worst case: every key inside one granule, so the insertion walk
       gives up and the slot is sorted once when it becomes current
       (heapsort over the full slot).  Held to stay within the heap's
       ballpark, not to beat it. *)
    ("wheel push+pop 1k dense slot", fun () ->
        let w = Engine.Wheel.create () in
        wheel_push w (fun i -> i * 7919 mod 1000);
        wheel_drain w);
    (* The SACK hot loop: append a window of segments, SACK-mark every
       other one (binary search + flag flip), then cumulatively ACK the
       lot off the front. *)
    ("scoreboard mark/ack 1k segs", fun () ->
        let sb = Tcp.Scoreboard.create () in
        let mss = 1448 in
        for i = 0 to 999 do
          ignore
            (Tcp.Scoreboard.append sb ~seq:(i * mss) ~len:mss ~dss:None : int)
        done;
        for i = 0 to 499 do
          let lb = Tcp.Scoreboard.lower_bound sb (((2 * i) + 1) * mss) in
          ignore
            (Tcp.Scoreboard.mark_sacked sb (Tcp.Scoreboard.idx sb lb) : bool)
        done;
        while not (Tcp.Scoreboard.is_empty sb) do
          Tcp.Scoreboard.pop_front sb
        done);
    ("sched create", fun () -> ignore (Engine.Sched.create ()));
    ("sched 1k events", fun () ->
        let s = Engine.Sched.create () in
        for i = 1 to 1000 do
          ignore (Engine.Sched.at s (Engine.Time.us i) (fun () -> ()))
        done;
        Engine.Sched.run s);
    ("sched 1k anon events", fun () ->
        let s = Engine.Sched.create () in
        for i = 1 to 1000 do
          Engine.Sched.at_anon s (Engine.Time.us i) (fun () -> ())
        done;
        Engine.Sched.run s);
    (* The retransmit-timer pattern: almost everything scheduled is
       cancelled before it fires; compaction keeps the queue at the live
       population. *)
    ("sched 1k events, 90% cancelled", fun () ->
        let s = Engine.Sched.create () in
        let timers =
          List.init 1000 (fun i ->
              Engine.Sched.at s (Engine.Time.us (i + 1)) (fun () -> ()))
        in
        List.iteri
          (fun i tm -> if i mod 10 <> 0 then Engine.Sched.cancel tm)
          timers;
        Engine.Sched.run s);
    (* The RTO pattern: one timer re-armed to a later deadline on every
       ACK, then left to fire. *)
    ("sched 1k rearm", fun () ->
        let s = Engine.Sched.create () in
        let tm = Engine.Sched.idle_timer s (fun () -> ()) in
        for i = 1 to 1000 do
          Engine.Sched.rearm_after tm (Engine.Time.us i)
        done;
        Engine.Sched.run s);
    ("pool map 8 jobs (2 domains)", fun () ->
        ignore
          (Engine.Pool.map ~domains:2
             (fun i ->
               let acc = ref 0 in
               for j = 0 to 9_999 do acc := !acc + ((i + j) land 1023) done;
               !acc)
             [ 1; 2; 3; 4; 5; 6; 7; 8 ]));
    ("simplex paper LP", simplex);
    (cubic_row, cc_acks Tcp.Cc_cubic.factory);
    ("lia 1k acks", cc_acks Mptcp.Cc_lia.factory);
    (olia_row, cc_acks Mptcp.Cc_olia.factory);
    ("reassembly 1k shuffled", fun () ->
        let r = Mptcp.Reassembly.create () in
        for i = 0 to 999 do
          let j = i * 769 mod 1000 in
          Mptcp.Reassembly.insert r ~dseq:(j * 1448) ~len:1448
        done);
    (sim_row, fun () ->
        let topo = Core.Paper_net.topology () in
        let paths = Core.Paper_net.tagged_paths ~default:2 topo in
        let spec =
          Core.Scenario.make ~topo ~paths ~cc:Mptcp.Algorithm.Cubic
            ~duration:(Engine.Time.ms 200) ~sampling:(Engine.Time.ms 100) ()
        in
        ignore (Core.Scenario.run spec));
    (fluid_row, fluid_equilibrium Fluid.Controller.Cubic);
    ("fluid equilibrium paper (LIA)", fluid_equilibrium Fluid.Controller.Lia);
    ("fluid equilibrium paper (OLIA)", fluid_equilibrium Fluid.Controller.Olia);
  ]

(* The standing-population rows: (name, n, run against n pending). *)
let pending_rows =
  List.concat_map
    (fun (kind, f) ->
      List.map
        (fun n ->
          (Printf.sprintf "wheel %s 1k @%dk pending" kind (n / 1000), n, f n))
        [ 1_000; 10_000; 100_000 ])
    [ ("insert+cancel", insert_cancel); ("expire", expire) ]

(* The one time budget, the same for quick, full and --gate runs: at
   least [min_rounds] rounds, and rounds until [row_budget_s] per row
   has passed. *)
let row_budget_s = 0.15
let min_rounds = 15

(* Runs per batch, doubled until a batch lasts [batch_s], so the
   clock's microsecond resolution stays below 0.1 % of a sample.  The
   first call warms the row up. *)
let batch_s = 1e-3

(* Seconds taken by [n] back-to-back runs of [f]. *)
let batch f n =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  Unix.gettimeofday () -. t0

let batch_size f =
  f ();
  let rec grow n = if batch f n >= batch_s then n else grow (2 * n) in
  grow 1

(* Minimum ns per run of each thunk, over batches taken round-robin. *)
let round_robin fs =
  let deadline =
    Unix.gettimeofday () +. (row_budget_s *. float_of_int (Array.length fs))
  in
  let sizes = Array.map batch_size fs in
  let best = Array.make (Array.length fs) infinity in
  let rounds = ref 0 in
  while !rounds < min_rounds || Unix.gettimeofday () < deadline do
    Array.iteri
      (fun i f ->
        let per_run = batch f sizes.(i) /. float_of_int sizes.(i) in
        best.(i) <- Float.min best.(i) per_run)
      fs;
    incr rounds
  done;
  Array.map (fun s -> s *. 1e9) best

(* Times every row, prints the table and returns (name, ns per run), in
   table order.  [rows] share one round-robin.  Each of [pending_rows]
   then runs alone on its own backdrop, built before its timing starts
   and dead before the next one is built, so no more than one backdrop
   (up to 100k live cells) is ever on the heap, and never while another
   row is timed. *)
let run () =
  Gc.full_major ();
  let ns = round_robin (Array.of_list (List.map snd rows)) in
  let estimates =
    List.mapi (fun i (name, _) -> (name, ns.(i))) rows
    @ List.map
        (fun (name, n, f) ->
          Gc.full_major ();
          let w = backdrop n in
          (name, (round_robin [| (fun () -> f w) |]).(0)))
        pending_rows
  in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-32s %12.0f ns/run\n" name ns)
    estimates;
  (* The fluid engine's reason to exist: equilibria in microseconds
     where the packet sim takes milliseconds.  Both sides are measured
     in this same run; the ratio is reported, not gated, since a
     faster packet sim narrows it with the solver untouched. *)
  (match
     (List.assoc_opt sim_row estimates, List.assoc_opt fluid_row estimates)
   with
  | Some sim_ns, Some fluid_ns ->
    Printf.printf
      "  fluid speedup: paper equilibrium in %.0f ns vs %.0f ns packet sim \
       = %.0fx faster\n"
      fluid_ns sim_ns (sim_ns /. fluid_ns)
  | _ -> ());
  estimates
