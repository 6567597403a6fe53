type case = {
  n : int;  (* number of pairwise-overlapping paths (2-4) *)
  base_mbps : int;  (* bottleneck capacity ramp base (5-25 Mbps) *)
  step_mbps : int;  (* bottleneck capacity ramp step (1-6 Mbps) *)
  cc_idx : int;  (* index into [Mptcp.Algorithm.all] *)
  sched_idx : int;  (* 0 min-RTT, 1 round-robin, 2 redundant *)
  qdisc_idx : int;  (* 0 drop-tail, 1 RED, 2 RED+ECN, 3 CoDel *)
  limit_pkts : int;  (* per-link-direction buffer (4-32 packets) *)
  jitter_us : int;  (* uniform per-packet propagation jitter (0-300) *)
  delayed_ack : bool;
  buffer_pkts : int;  (* send buffer in MSS units; 0 = unlimited *)
  duration_ms : int;  (* simulated duration (200-500 ms) *)
  seed : int;
}

let cc_of c = List.nth Mptcp.Algorithm.all (c.cc_idx mod List.length Mptcp.Algorithm.all)

let scheduler_of c =
  match c.sched_idx mod 3 with
  | 0 -> Mptcp.Scheduler.Min_rtt
  | 1 -> Mptcp.Scheduler.Round_robin
  | _ -> Mptcp.Scheduler.Redundant

let qdisc_of c =
  match c.qdisc_idx mod 4 with
  | 0 -> Netsim.Qdisc.Drop_tail
  | 1 -> Netsim.Qdisc.Red Netsim.Qdisc.default_red
  | 2 -> Netsim.Qdisc.Red Netsim.Qdisc.default_red_ecn
  | _ -> Netsim.Qdisc.Codel Netsim.Qdisc.default_codel

let qdisc_name c =
  match c.qdisc_idx mod 4 with
  | 0 -> "droptail"
  | 1 -> "red"
  | 2 -> "red+ecn"
  | _ -> "codel"

let send_buffer c =
  if c.buffer_pkts <= 0 then None else Some (c.buffer_pkts * Packet.default_mss)

let to_string c =
  Printf.sprintf
    "{n=%d caps=%d+%d cc=%s sched=%s qdisc=%s limit=%d jitter=%dus \
     dack=%b buf=%s dur=%dms seed=%d}"
    c.n c.base_mbps c.step_mbps
    (Mptcp.Algorithm.name (cc_of c))
    (Mptcp.Scheduler.policy_name (scheduler_of c))
    (qdisc_name c) c.limit_pkts c.jitter_us c.delayed_ack
    (match send_buffer c with
    | None -> "inf"
    | Some b -> string_of_int b)
    c.duration_ms c.seed

let build_spec ?rto_cap ?(events_of = fun _ -> []) c =
  let topo, paths =
    Netgraph.Generate.pairwise_overlap ~n:c.n
      ~cap_bps:
        (Netgraph.Generate.spread_caps ~base_mbps:c.base_mbps
           ~step_mbps:c.step_mbps)
  in
  let tagged = Mptcp.Path_manager.tag_paths paths in
  let net_config =
    { Netsim.Net.qdisc = qdisc_of c; limit_pkts = c.limit_pkts;
      delay_jitter = Engine.Time.us c.jitter_us }
  in
  Core.Scenario.make ~topo ~paths:tagged ~cc:(cc_of c)
    ~scheduler:(scheduler_of c)
    ~duration:(Engine.Time.ms c.duration_ms)
    ~sampling:(Engine.Time.ms (max 20 (c.duration_ms / 5)))
    ~seed:c.seed ~net_config ~delayed_ack:c.delayed_ack
    ?send_buffer:(send_buffer c) ~audit:true ?rto_cap
    ~events:(events_of topo) ()

let to_spec c = build_spec c

let run_case c =
  let result = Core.Scenario.run (to_spec c) in
  match result.Core.Scenario.audit with
  | Some rep -> rep
  | None -> assert false (* to_spec sets audit = true *)

let arbitrary =
  let open QCheck in
  let build
      ( (n, base_mbps, step_mbps, cc_idx),
        (sched_idx, qdisc_idx, limit_pkts, jitter_us),
        (delayed_ack, buffer_pkts, duration_ms, seed) ) =
    {
      n; base_mbps; step_mbps; cc_idx; sched_idx; qdisc_idx; limit_pkts;
      jitter_us; delayed_ack; buffer_pkts; duration_ms; seed;
    }
  and strip c =
    ( (c.n, c.base_mbps, c.step_mbps, c.cc_idx),
      (c.sched_idx, c.qdisc_idx, c.limit_pkts, c.jitter_us),
      (c.delayed_ack, c.buffer_pkts, c.duration_ms, c.seed) )
  in
  set_print to_string
    (map ~rev:strip build
       (triple
          (quad (int_range 2 4) (int_range 5 25) (int_range 1 6)
             (int_range 0 (List.length Mptcp.Algorithm.all - 1)))
          (quad (int_range 0 2) (int_range 0 3) (int_range 4 32)
             (int_range 0 300))
          (quad bool (int_range 0 64) (int_range 200 500)
             (int_range 1 1000))))

let pool_test ?(count = 60) () =
  QCheck.Test.make ~count
    ~name:"fuzz: pooled packets are never double-released or resurrected"
    arbitrary
    (fun c ->
      (* [to_spec] sets [audit = true], which also switches the net's
         packet pool into debug mode: a double release raises [Failure]
         mid-run, and popping a freelist slot that holds a live record (a
         released packet resurrected behind the pool's back) does the
         same — so either bug aborts the run and fails the property with
         the offending case attached.  On top of that, the end-of-run
         counters must be coherent. *)
      let r = Core.Scenario.run (to_spec c) in
      let s = r.Core.Scenario.pool_stats in
      let fail fmt =
        QCheck.Test.fail_reportf ("case %s: " ^^ fmt) (to_string c)
      in
      if s.Packet.Pool.double_releases > 0 then
        fail "%d double releases" s.Packet.Pool.double_releases
      else if s.Packet.Pool.released > s.Packet.Pool.acquired then
        fail "released %d > acquired %d - a packet the pool never handed out"
          s.Packet.Pool.released s.Packet.Pool.acquired
      else if s.Packet.Pool.recycled > s.Packet.Pool.released then
        fail "recycled %d > released %d - freelist invented a record"
          s.Packet.Pool.recycled s.Packet.Pool.released
      else if s.Packet.Pool.acquired = 0 then
        fail "no pooled acquisitions - property is vacuous"
      else true)

let fluid_test ?(count = 100) () =
  QCheck.Test.make ~count
    ~name:"fuzz: fluid equilibria are LP-feasible on random topologies"
    arbitrary
    (fun c ->
      (* Same generator as the packet-level sweep, but the property is
         analytic: compile the scenario's fluid model, solve for the
         equilibrium, and require the resulting goodputs to sit inside
         the LP polytope — through the same
         Netgraph.Constraints.violations checker the audit uses.
         Algorithms without a fluid counterpart are skipped (the
         compile step reports them), never silently passed: the match
         is exhaustive over the compile result. *)
      match Validate.equilibrium (to_spec c) with
      | Error _ -> true (* BALIA / EWTCP / wVegas: no fluid model *)
      | Ok v ->
        if not v.Validate.diag.Fluid.Equilibrium.converged then
          QCheck.Test.fail_reportf "case %s: fluid solve did not converge@.%a"
            (to_string c) Validate.pp v
        else if not v.Validate.lp_feasible then
          QCheck.Test.fail_reportf
            "case %s: fluid equilibrium outside the LP polytope@.%a"
            (to_string c) Validate.pp v
        else true)

(* --- timing-wheel vs reference-heap equivalence --- *)

module Wq = Engine.Timer_queue.Of_wheel
module Hq = Engine.Timer_queue.Of_heap

(* A program is a list of (opcode, operand) pairs interpreted against
   both queue implementations in lockstep.  Keys are derived from the
   operand so that shrinking stays meaningful, and deliberately cover
   the wheel's awkward regions: overdue keys (below the last popped
   key), far-future keys several levels up, and beyond-span keys that
   land in the overflow heap. *)
let wheel_ops =
  QCheck.(
    list_of_size Gen.(int_range 1 300)
      (pair (int_range 0 5) (int_range 0 1_000_000)))

let wheel_test ?(count = 400) () =
  QCheck.Test.make ~count
    ~name:"fuzz: timing wheel and reference heap pop identically" wheel_ops
    (fun prog ->
      let w = Wq.create () and h = Hq.create () in
      let handles = ref [] and n_handles = ref 0 in
      let tie = ref 0 and clock = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let agree ctx =
        if Wq.length w <> Hq.length h then
          fail "%s: wheel length %d <> heap length %d" ctx (Wq.length w)
            (Hq.length h)
        else if
          Wq.length w > 0
          && (Wq.min_key_exn w <> Hq.min_key_exn h
             || Wq.min_tie_exn w <> Hq.min_tie_exn h)
        then
          fail "%s: wheel min (%d,%d) <> heap min (%d,%d)" ctx
            (Wq.min_key_exn w) (Wq.min_tie_exn w) (Hq.min_key_exn h)
            (Hq.min_tie_exn h)
      in
      let pop_both () =
        agree "pre-pop";
        if Wq.length w > 0 then begin
          clock := max !clock (Wq.min_key_exn w);
          let vw = Wq.pop_exn w and vh = Hq.pop_exn h in
          if vw <> vh then fail "pop: wheel value %d <> heap value %d" vw vh
        end
      in
      List.iter
        (fun (code, a) ->
          match code with
          | 0 | 1 ->
            (* Push: bucket the operand into key regimes. *)
            let key =
              match a mod 5 with
              | 0 -> !clock + (a / 5 mod 1_000)          (* near future *)
              | 1 -> max 0 (!clock - (a / 5 mod 1_000))  (* overdue *)
              | 2 -> !clock + (a / 5 * 1_000_000)        (* window edge, past it *)
              | 3 -> !clock + (1 lsl 52) + a             (* far overflow *)
              | _ -> a                                   (* anywhere *)
            in
            incr tie;
            let v = !tie in
            let hw = Wq.push w ~key ~tie:!tie v in
            let hh = Hq.push h ~key ~tie:!tie v in
            handles := (hw, hh) :: !handles;
            incr n_handles
          | 2 | 3 ->
            (* Cancel a random handle — possibly one already popped or
               already cancelled, exercising idempotence. *)
            if !n_handles > 0 then begin
              let hw, hh = List.nth !handles (a mod !n_handles) in
              Wq.cancel w hw;
              Hq.cancel h hh
            end
          | _ -> pop_both ())
        prog;
      (* Drain: the full residual pop streams must match. *)
      while Wq.length w > 0 || Hq.length h > 0 do
        pop_both ()
      done;
      true)

(* --- flat scoreboard vs reference model --- *)

(* Reference model: a plain list of (seq, len, sacked, lost) cells kept
   in append order — the same information the ring stores, maintained
   naively. *)
type sb_cell = {
  m_seq : int;
  m_len : int;
  mutable m_sacked : bool;
  mutable m_lost : bool;
}

let scoreboard_ops =
  QCheck.(
    list_of_size Gen.(int_range 1 300)
      (pair (int_range 0 7) (int_range 0 1_000_000)))

let scoreboard_test ?(count = 400) () =
  QCheck.Test.make ~count
    ~name:"fuzz: flat scoreboard matches reference model on random traces"
    scoreboard_ops
    (fun prog ->
      let sb = Tcp.Scoreboard.create () in
      let model = ref [] in (* newest first; reversed for logical order *)
      let n = ref 0 and next_seq = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let logical () = List.rev !model in
      let nth_cell i = List.nth (logical ()) i in
      let verify ctx =
        if Tcp.Scoreboard.length sb <> !n then
          fail "%s: length %d <> model %d" ctx (Tcp.Scoreboard.length sb) !n;
        if not (Tcp.Scoreboard.consistent sb) then
          fail "%s: consistency check failed" ctx;
        let sacked = ref 0 and pipe = ref 0 in
        List.iteri
          (fun i c ->
            let p = Tcp.Scoreboard.idx sb i in
            if
              Tcp.Scoreboard.seq_at sb p <> c.m_seq
              || Tcp.Scoreboard.len_at sb p <> c.m_len
              || Tcp.Scoreboard.sacked_at sb p <> c.m_sacked
              || Tcp.Scoreboard.lost_at sb p <> c.m_lost
            then
              fail "%s: segment %d is (%d,%d,%b,%b), model (%d,%d,%b,%b)" ctx
                i
                (Tcp.Scoreboard.seq_at sb p)
                (Tcp.Scoreboard.len_at sb p)
                (Tcp.Scoreboard.sacked_at sb p)
                (Tcp.Scoreboard.lost_at sb p)
                c.m_seq c.m_len c.m_sacked c.m_lost;
            if c.m_sacked then incr sacked;
            if (not c.m_sacked) && not c.m_lost then pipe := !pipe + c.m_len)
          (logical ());
        if Tcp.Scoreboard.sacked_count sb <> !sacked then
          fail "%s: sacked_count %d <> model %d" ctx
            (Tcp.Scoreboard.sacked_count sb)
            !sacked;
        if Tcp.Scoreboard.pipe_recount sb <> !pipe then
          fail "%s: pipe_recount %d <> model %d" ctx
            (Tcp.Scoreboard.pipe_recount sb)
            !pipe
      in
      List.iter
        (fun (code, a) ->
          (match code with
          | 0 | 1 | 2 ->
            let len = 1 + (a mod 1448) in
            ignore
              (Tcp.Scoreboard.append sb ~seq:!next_seq ~len ~dss:None : int);
            model :=
              { m_seq = !next_seq; m_len = len; m_sacked = false;
                m_lost = false }
              :: !model;
            next_seq := !next_seq + len;
            incr n
          | 3 ->
            if !n > 0 then begin
              Tcp.Scoreboard.pop_front sb;
              model := List.rev (List.tl (logical ()));
              decr n
            end
          | 4 ->
            if !n > 0 then begin
              let i = a mod !n in
              let c = nth_cell i in
              let was = c.m_sacked in
              c.m_sacked <- true;
              let transition =
                Tcp.Scoreboard.mark_sacked sb (Tcp.Scoreboard.idx sb i)
              in
              if transition <> not was then
                fail "mark_sacked transition %b, model %b" transition
                  (not was)
            end
          | 5 ->
            if !n > 0 then begin
              let i = a mod !n in
              (nth_cell i).m_lost <- true;
              Tcp.Scoreboard.mark_lost sb (Tcp.Scoreboard.idx sb i)
            end
          | 6 ->
            if !n > 0 then begin
              let i = a mod !n in
              (nth_cell i).m_lost <- false;
              Tcp.Scoreboard.clear_lost sb (Tcp.Scoreboard.idx sb i)
            end
          | _ ->
            (* Probe the searches against the model. *)
            if !n > 0 then begin
              let first = (nth_cell 0).m_seq in
              let x = first + (a mod (!next_seq - first + 20)) - 10 in
              let cells = logical () in
              let expect_lb =
                let rec go i = function
                  | [] -> !n
                  | c :: tl -> if c.m_seq >= x then i else go (i + 1) tl
                in
                go 0 cells
              in
              let lb = Tcp.Scoreboard.lower_bound sb x in
              if lb <> expect_lb then
                fail "lower_bound %d = %d, model %d" x lb expect_lb;
              let expect_find =
                List.exists (fun c -> c.m_seq = x) cells
              in
              let f = Tcp.Scoreboard.find sb x in
              if (f >= 0) <> expect_find then
                fail "find %d = %d, model %b" x f expect_find;
              if f >= 0 && Tcp.Scoreboard.seq_at sb f <> x then
                fail "find %d returned segment at %d" x
                  (Tcp.Scoreboard.seq_at sb f)
            end);
          verify "post-op")
        prog;
      true)

(* --- chunk-ownership ring vs Hashtbl model --- *)

(* The model is the structure the ring replaced: a [Hashtbl] from dseq
   to (len, owner), with the connection's drop rule (a chunk leaves once
   its dseq is below the rising ACK).  Programs mirror how the
   connection drives the ring: grants append at [next_dseq], the ACK
   trims the front, reinjection re-maps an existing chunk, a short
   failover grant splits a chunk (a mid-ring insert), a chunk whose key
   was already trimmed is re-granted (an insert below the front), and
   lookups, plus an ascending scan after every step, read it all back.
   Inserts that would overlap a held chunk are skipped, so
   {!Mptcp.Chunks.consistent} must hold after every step. *)
let chunks_ops =
  QCheck.(
    list_of_size Gen.(int_range 1 300)
      (pair (int_range 0 9) (int_range 0 1_000_000)))

let chunk_owners = 4

let chunks_test ?(count = 400) () =
  QCheck.Test.make ~count
    ~name:"fuzz: chunk-ownership ring matches Hashtbl model on random traces"
    chunks_ops
    (fun prog ->
      let module C = Mptcp.Chunks in
      let c = C.create () in
      let model : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
      let trimmed = ref [] in (* chunks the ACK dropped, for re-grants *)
      let next = ref 0 and ack = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let bindings () =
        List.sort compare
          (Hashtbl.fold (fun d (l, o) acc -> (d, l, o) :: acc) model [])
      in
      let scan () =
        List.init (C.length c) (fun i ->
            (C.dseq_at c i, C.len_at c i, C.owner_at c i))
      in
      let overlaps d l =
        Hashtbl.fold
          (fun d' (l', _) acc -> acc || (d < d' + l' && d' < d + l))
          model false
      in
      let append a =
        let len = 1 + (a mod 1448) and owner = a / 1448 mod chunk_owners in
        C.append c ~dseq:!next ~len ~owner;
        Hashtbl.replace model !next (len, owner);
        next := !next + len
      in
      let trim x =
        ack := max !ack (min !next x);
        C.trim_below c !ack;
        Hashtbl.filter_map_inplace
          (fun d (l, o) ->
            if d < !ack then begin
              trimmed := (d, l) :: !trimmed;
              None
            end
            else Some (l, o))
          model
      in
      let replace ~dseq ~len ~owner =
        C.replace c ~dseq ~len ~owner;
        Hashtbl.replace model dseq (len, owner)
      in
      let lookup x =
        let i = C.find c x in
        match Hashtbl.find_opt model x with
        | None -> if i >= 0 then fail "find %d = %d, model has no such key" x i
        | Some (l, o) ->
          if i < 0 then fail "find %d missed, model holds (%d,%d)" x l o
          else if C.dseq_at c i <> x || C.len_at c i <> l || C.owner_at c i <> o
          then
            fail "find %d -> (%d,%d,%d), model (%d,%d)" x (C.dseq_at c i)
              (C.len_at c i) (C.owner_at c i) l o
      in
      let verify ctx =
        if C.length c <> Hashtbl.length model then
          fail "%s: length %d <> model %d" ctx (C.length c)
            (Hashtbl.length model);
        if not (C.consistent c ~owners:chunk_owners ~limit:!next) then
          fail "%s: consistency check failed" ctx;
        if scan () <> bindings () then
          fail "%s: ascending scan differs from model" ctx
      in
      (* Prefix: append until the arrays grow, trim half, then fill
         every slot, so each case crosses growth and the wrap-around. *)
      let seed = match prog with (_, a) :: _ -> a | [] -> 0 in
      let k = ref 0 in
      let grown = 2 * C.capacity c in
      while C.capacity c < grown do
        append (seed + (7919 * !k));
        incr k
      done;
      trim (C.dseq_at c (C.length c / 2));
      while C.length c < C.capacity c do
        append (seed + (7919 * !k));
        incr k
      done;
      verify "prefix";
      List.iter
        (fun (code, a) ->
          let held = bindings () in
          let n = List.length held in
          (match code with
          | 0 | 1 | 2 -> append a
          | 3 ->
            (* the ACK rises by up to 4000 bytes, possibly mid-chunk *)
            trim (!ack + (a mod 4000))
          | 4 | 5 ->
            (* reinjection or failover re-grant: re-map a held chunk in
               place *)
            if n > 0 then begin
              let d, l, _ = List.nth held (a mod n) in
              replace ~dseq:d ~len:l ~owner:(a / n mod chunk_owners)
            end
          | 6 ->
            (* a short grant splits a pending chunk: the head keeps the
               key, the tail is inserted mid-ring *)
            if n > 0 then begin
              let d, l, o = List.nth held (a mod n) in
              if l >= 2 then begin
                let g = 1 + (a mod (l - 1)) in
                replace ~dseq:d ~len:g ~owner:(a / n mod chunk_owners);
                replace ~dseq:(d + g) ~len:(l - g) ~owner:o
              end
            end
          | 7 ->
            (* re-grant of a chunk the ACK already trimmed *)
            (match !trimmed with
            | [] -> ()
            | ts ->
              let d, l = List.nth ts (a mod List.length ts) in
              if not (overlaps d l) then
                replace ~dseq:d ~len:l ~owner:(a mod chunk_owners))
          | 8 ->
            (* lookups: a held key, and an arbitrary point near the ring *)
            if n > 0 then begin
              let d, _, _ = List.nth held (a mod n) in
              lookup d;
              lookup (d + 1 + (a mod 1500))
            end;
            lookup (!ack + (a mod (!next - !ack + 20)) - 10)
          | _ ->
            (* the ACK lands on a chunk boundary, as the data ACK does *)
            if n > 0 then
              let d, _, _ = List.nth held (a mod n) in
              trim d);
          (* the ascending scan, after every step *)
          verify "post-op")
        prog;
      true)

(* --- parallel-sweep determinism (wheel edition) --- *)

let determinism_test ?(count = 20) () =
  QCheck.Test.make ~count
    ~name:
      "fuzz: random scenario batches identical for jobs 1 and 4 (wheel \
       lockstep armed)"
    QCheck.(pair arbitrary arbitrary)
    (fun (c1, c2) ->
      (* Both runs are audited, so the scheduler replays every event
         through the heap shadow as well — parallel domains must still
         be bit-identical to the serial run. *)
      let specs = [ to_spec c1; to_spec c2 ] in
      let fingerprint jobs =
        Engine.Pool.map ~domains:jobs Core.Scenario.run specs
        |> List.map (fun r ->
               ( r.Core.Scenario.events_processed,
                 r.Core.Scenario.delivered_bytes,
                 Format.asprintf "%a" Core.Scenario.pp_summary r ))
      in
      let f1 = fingerprint 1 and f4 = fingerprint 4 in
      if f1 <> f4 then
        QCheck.Test.fail_reportf
          "cases %s / %s: jobs=1 and jobs=4 runs diverge" (to_string c1)
          (to_string c2)
      else true)

(* --- dynamic-events fuzzing --- *)

module E = Events.Event

(* A case plus a random timed-event script: link kills and repairs,
   capacity cuts and ramps, delay and loss changes, subflow churn and
   cross-traffic, materialised against the generated topology.  Event
   times land in the first three quarters of the run, capacity targets
   never exceed a link's declared rate (the static LP stays a valid
   bound) and loss stays below 30%.  [rto_sel] 0 means no failover
   cap, else rto_cap = 1 + rto_sel; [evs] holds 1-6 compact
   descriptors. *)
type ev = { kind : int; which : int; t_pct : int; mag : int }
type events_case = { base : case; rto_sel : int; evs : ev list }

let events_rto_cap ec = if ec.rto_sel = 0 then None else Some (1 + ec.rto_sel)

let ev_to_string e =
  Printf.sprintf "(k%d w%d t%d m%d)" e.kind e.which e.t_pct e.mag

let events_to_string ec =
  Printf.sprintf "%s rto_cap=%s events=[%s]" (to_string ec.base)
    (match events_rto_cap ec with
    | None -> "-"
    | Some c -> string_of_int c)
    (String.concat " " (List.map ev_to_string ec.evs))

(* Turn the compact descriptors into concrete, validate-clean events
   against the generated topology.  Fire times sit in [10%, 75%] of the
   run so dynamics always land while traffic flows; capacity targets
   stay in [25%, 100%] of the declared rate so the static LP remains a
   valid upper bound; loss tops out at 29%. *)
let materialise_events ec topo =
  let dur = Engine.Time.ms ec.base.duration_ms in
  let num_links = Netgraph.Topology.num_links topo in
  let num_nodes = Netgraph.Topology.num_nodes topo in
  List.mapi
    (fun i e ->
      let t_at =
        Engine.Time.scale dur ((10. +. float (e.t_pct mod 66)) /. 100.)
      in
      let link = e.which mod num_links in
      let cap = (Netgraph.Topology.link topo link).Netgraph.Topology.capacity_bps in
      let shrunk = max 1 (cap * (25 + (e.mag mod 76)) / 100) in
      let action =
        match e.kind mod 8 with
        | 0 -> E.Link_down { link }
        | 1 -> E.Link_up { link }
        | 2 -> E.Capacity_set { link; rate_bps = shrunk }
        | 3 ->
          E.Capacity_ramp
            {
              link;
              to_bps = shrunk;
              over = Engine.Time.ms (10 + (e.mag mod 50));
              steps = 2 + (e.mag mod 4);
            }
        | 4 -> E.Delay_set { link; delay = Engine.Time.us (100 + (e.mag mod 5000)) }
        | 5 -> E.Loss_set { link; loss = float_of_int (e.mag mod 30) /. 100. }
        | 6 ->
          let subflow = e.which mod ec.base.n in
          if e.mag land 1 = 0 then E.Subflow_close { subflow }
          else E.Subflow_add { subflow }
        | _ ->
          let src = e.which mod num_nodes in
          let dst = (src + 1 + (e.which / 7 mod (num_nodes - 1))) mod num_nodes in
          E.Traffic_start
            {
              src;
              dst;
              tag = 100 + i;
              rate_bps = max 1 (cap / 4);
              stop_at =
                Some (Engine.Time.add t_at (Engine.Time.ms (20 + (e.mag mod 100))));
            }
      in
      E.at action ~at:t_at)
    ec.evs

let to_events_spec ec =
  build_spec
    ?rto_cap:(events_rto_cap ec)
    ~events_of:(materialise_events ec) ec.base

let events_arbitrary =
  let open QCheck in
  let build (base, rto_sel, raw) =
    {
      base;
      rto_sel;
      evs =
        List.map (fun (kind, which, t_pct, mag) -> { kind; which; t_pct; mag }) raw;
    }
  and strip ec =
    ( ec.base,
      ec.rto_sel,
      List.map (fun e -> (e.kind, e.which, e.t_pct, e.mag)) ec.evs )
  in
  set_print events_to_string
    (map ~rev:strip build
       (triple arbitrary (int_range 0 3)
          (list_of_size
             Gen.(int_range 1 6)
             (quad (int_range 0 7) (int_range 0 10_000) (int_range 0 100)
                (int_range 0 10_000)))))

let events_test ?(count = 200) () =
  QCheck.Test.make ~count
    ~name:
      "fuzz: random timed events over random topologies stay violation-free"
    events_arbitrary
    (fun ec ->
      let r = Core.Scenario.run (to_events_spec ec) in
      let rep =
        match r.Core.Scenario.audit with
        | Some rep -> rep
        | None -> assert false
      in
      if rep.Audit.total_violations > 0 then
        QCheck.Test.fail_reportf "case %s@.%a" (events_to_string ec)
          Audit.pp_report rep
      else if rep.Audit.checks = 0 || rep.Audit.ledger.Audit.injected_pkts = 0
      then
        QCheck.Test.fail_reportf "case %s: no checks performed (%d injected)"
          (events_to_string ec) rep.Audit.ledger.Audit.injected_pkts
      else true)

let events_determinism_test ?(count = 12) () =
  QCheck.Test.make ~count
    ~name:"fuzz: dynamic-event batches identical for jobs 1 and 4"
    QCheck.(pair events_arbitrary events_arbitrary)
    (fun (e1, e2) ->
      let specs = [ to_events_spec e1; to_events_spec e2 ] in
      let fingerprint jobs =
        Engine.Pool.map ~domains:jobs Core.Scenario.run specs
        |> List.map (fun r ->
               ( r.Core.Scenario.events_processed,
                 r.Core.Scenario.delivered_bytes,
                 r.Core.Scenario.subflow_churn,
                 r.Core.Scenario.cross_traffic_bytes,
                 Format.asprintf "%a" Core.Scenario.pp_summary r ))
      in
      let f1 = fingerprint 1 and f4 = fingerprint 4 in
      if f1 <> f4 then
        QCheck.Test.fail_reportf
          "cases %s / %s: jobs=1 and jobs=4 dynamic runs diverge"
          (events_to_string e1) (events_to_string e2)
      else true)

(* --- hybrid fluid/packet fuzzing --- *)

(* One Background_start declaration riding the generated topology's
   first path. *)
type bg_mix = {
  bg_classes : int;  (* fluid background classes (1-30) *)
  bg_flows : int;  (* flows aggregated per class (1-8) *)
  bg_cc_sel : int;  (* 0 CBR, 1 Reno, 2 CUBIC, 3 LIA, 4 OLIA *)
  bg_mbps10 : int;  (* CBR per-flow rate in tenths of Mbps (0.1-3.0) *)
  bg_rtt_ms : int;  (* class base RTT (5-60 ms) *)
  bg_start_pct : int;  (* activation time as % of the run (0-50) *)
}

(* A case plus 1-3 background mixes: the hybrid fluid/packet
   co-simulation fuzzed end to end. *)
type hybrid_case = { hbase : case; mixes : bg_mix list }

let bg_cc m =
  match m.bg_cc_sel mod 5 with
  | 0 -> None (* constant bit-rate *)
  | 1 -> Some Mptcp.Algorithm.Reno
  | 2 -> Some Mptcp.Algorithm.Cubic
  | 3 -> Some Mptcp.Algorithm.Lia
  | _ -> Some Mptcp.Algorithm.Olia

let bg_to_string m =
  Printf.sprintf "(c%d f%d %s r%d t%d)" (1 + (m.bg_classes mod 30))
    (1 + (m.bg_flows mod 8))
    (match bg_cc m with
    | None -> Printf.sprintf "cbr%.1f" (float (1 + (m.bg_mbps10 mod 30)) /. 10.)
    | Some a -> Mptcp.Algorithm.name a)
    (5 + (m.bg_rtt_ms mod 56))
    (m.bg_start_pct mod 51)

let hybrid_to_string hc =
  Printf.sprintf "%s bg=[%s]" (to_string hc.hbase)
    (String.concat " " (List.map bg_to_string hc.mixes))

let to_hybrid_spec hc =
  (* Same topology construction as [build_spec], but the paths are
     needed here too: every generated path runs s -> d, and the
     background field rides the shortest of them, contending with the
     foreground subflows on whichever bottlenecks it crosses. *)
  let c = hc.hbase in
  let topo, paths =
    Netgraph.Generate.pairwise_overlap ~n:c.n
      ~cap_bps:
        (Netgraph.Generate.spread_caps ~base_mbps:c.base_mbps
           ~step_mbps:c.step_mbps)
  in
  let p0 = List.hd paths in
  let src = Netgraph.Path.src p0 and dst = Netgraph.Path.dst p0 in
  let dur = Engine.Time.ms c.duration_ms in
  let events =
    List.map
      (fun m ->
        let cc = bg_cc m in
        let rate_bps =
          match cc with
          | None -> (1 + (m.bg_mbps10 mod 30)) * 100_000
          | Some _ -> 0
        in
        E.at
          (E.Background_start
             {
               src;
               dst;
               classes = 1 + (m.bg_classes mod 30);
               flows = 1 + (m.bg_flows mod 8);
               cc;
               rate_bps;
               rtt = Engine.Time.ms (5 + (m.bg_rtt_ms mod 56));
             })
          ~at:(Engine.Time.scale dur (float (m.bg_start_pct mod 51) /. 100.)))
      hc.mixes
  in
  let tagged = Mptcp.Path_manager.tag_paths paths in
  let net_config =
    { Netsim.Net.qdisc = qdisc_of c; limit_pkts = c.limit_pkts;
      delay_jitter = Engine.Time.us c.jitter_us }
  in
  Core.Scenario.make ~topo ~paths:tagged ~cc:(cc_of c)
    ~scheduler:(scheduler_of c) ~duration:dur
    ~sampling:(Engine.Time.ms (max 20 (c.duration_ms / 5)))
    ~seed:c.seed ~net_config ~delayed_ack:c.delayed_ack
    ?send_buffer:(send_buffer c) ~audit:true ~events ()

let hybrid_arbitrary =
  let open QCheck in
  let build_mix (bg_classes, bg_flows, bg_cc_sel, (bg_mbps10, bg_rtt_ms, bg_start_pct)) =
    { bg_classes; bg_flows; bg_cc_sel; bg_mbps10; bg_rtt_ms; bg_start_pct }
  and strip_mix m =
    (m.bg_classes, m.bg_flows, m.bg_cc_sel, (m.bg_mbps10, m.bg_rtt_ms, m.bg_start_pct))
  in
  set_print hybrid_to_string
    (map
       ~rev:(fun hc -> (hc.hbase, List.map strip_mix hc.mixes))
       (fun (hbase, raw) -> { hbase; mixes = List.map build_mix raw })
       (pair arbitrary
          (list_of_size
             Gen.(int_range 1 3)
             (quad (int_range 0 29) (int_range 0 7) (int_range 0 4)
                (triple (int_range 0 29) (int_range 0 55) (int_range 0 50))))))

let hybrid_test ?(count = 40) () =
  QCheck.Test.make ~count
    ~name:
      "fuzz: hybrid fluid/packet runs stay audit-clean and jobs-deterministic"
    hybrid_arbitrary
    (fun hc ->
      (* The audit's capacity/occupancy/conservation invariants all run
         with the fluid field slowing the shared serializers, and its
         lp.feasibility check keeps the measured foreground rates inside
         the static LP polytope (background only removes capacity, so
         the LP stays a true upper bound).  The whole co-simulation must
         also stay bit-identical between serial and parallel sweeps. *)
      let spec = to_hybrid_spec hc in
      let fail fmt =
        QCheck.Test.fail_reportf ("case %s: " ^^ fmt) (hybrid_to_string hc)
      in
      let run jobs =
        match Engine.Pool.map ~domains:jobs Core.Scenario.run [ spec ] with
        | [ r ] -> r
        | _ -> assert false
      in
      let fingerprint r =
        ( r.Core.Scenario.events_processed,
          r.Core.Scenario.delivered_bytes,
          Format.asprintf "%a" Core.Scenario.pp_summary r )
      in
      let r = run 1 in
      let rep =
        match r.Core.Scenario.audit with
        | Some rep -> rep
        | None -> assert false
      in
      if rep.Audit.total_violations > 0 then
        QCheck.Test.fail_reportf "case %s@.%a" (hybrid_to_string hc)
          Audit.pp_report rep
      else begin
        (match r.Core.Scenario.background with
        | None -> fail "no background summary on a hybrid run"
        | Some s ->
          if s.Fluid.Background.Driver.ticks = 0 then
            fail "background driver never ticked"
          else if
            s.Fluid.Background.Driver.max_occupancy_pkts
            > float_of_int hc.hbase.limit_pkts +. 1e-9
          then
            fail "fluid occupancy %.2f above the %d-packet buffer"
              s.Fluid.Background.Driver.max_occupancy_pkts
              hc.hbase.limit_pkts
          else if
            s.Fluid.Background.Driver.goodput_mbps
            > s.Fluid.Background.Driver.offered_mbps +. 1e-9
          then
            fail "background goodput %.2f above offered %.2f"
              s.Fluid.Background.Driver.goodput_mbps
              s.Fluid.Background.Driver.offered_mbps
          else if fingerprint r <> fingerprint (run 4) then
            fail "jobs=1 and jobs=4 hybrid runs diverge"
          else ());
        true
      end)

let test ?(count = 120) () =
  QCheck.Test.make ~count
    ~name:"fuzz: random audited scenarios are violation-free" arbitrary
    (fun c ->
      let rep = run_case c in
      if rep.Audit.total_violations > 0 then
        QCheck.Test.fail_reportf "case %s@.%a" (to_string c) Audit.pp_report
          rep
      else if rep.Audit.checks = 0 || rep.Audit.ledger.Audit.injected_pkts = 0
      then
        (* a run that never evaluated anything would pass vacuously *)
        QCheck.Test.fail_reportf "case %s: no checks performed (%d injected)"
          (to_string c) rep.Audit.ledger.Audit.injected_pkts
      else true)

(* --- daemon protocol robustness --- *)

(* Deterministic garbage: a tiny LCG so cases shrink and replay without
   a shared RNG. *)
let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

let garbage_bytes n seed =
  let b = Bytes.create n in
  let s = ref (lcg (seed + 7)) in
  for i = 0 to n - 1 do
    s := lcg !s;
    Bytes.set b i (Char.chr (!s land 0xff))
  done;
  Bytes.to_string b

let write_raw fd s =
  (* the server may already have dropped the connection: that is a
     legal answer to garbage, not a test failure *)
  try
    let rec go off =
      if off < String.length s then
        go (off + Unix.write_substring fd s off (String.length s - off))
    in
    go 0
  with Unix.Unix_error _ -> ()

let frame_header n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.to_string b

let daemon_garbage_kinds = 7

(* Send one garbage transmission on a fresh connection.  Kinds 1 and
   3-6 are framed well enough that the server owes a typed error reply;
   kinds 0 and 2 break the framing itself, where dropping the
   connection is the only sound answer. *)
let send_daemon_garbage ~socket i kind =
  let fd = Daemon.Protocol.connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let expect_reply =
        match kind with 1 | 3 | 4 | 5 | 6 -> true | _ -> false
      in
      (match kind with
      | 0 ->
        (* raw bytes, no framing at all *)
        write_raw fd (garbage_bytes (8 + i) i)
      | 1 ->
        (* oversized declared length *)
        write_raw fd (frame_header (Daemon.Protocol.max_frame + 1 + i))
      | 2 ->
        (* truncated: declare more than we send, then hang up *)
        write_raw fd (frame_header (128 + i) ^ garbage_bytes 64 i)
      | 3 ->
        (* complete frame, unbalanced sexp *)
        Daemon.Protocol.write_frame fd "(mptcp-daemon (status"
      | 4 ->
        (* well-formed sexp, unknown request form *)
        Daemon.Protocol.write_frame fd
          (Printf.sprintf "(mptcp-daemon %d (frobnicate 3))"
             Daemon.Protocol.version)
      | 5 ->
        (* a valid request with one bit flipped *)
        let s = Bytes.of_string (Daemon.Protocol.render_request Daemon.Protocol.Status) in
        let pos = (i * 13) mod Bytes.length s in
        Bytes.set s pos
          (Char.chr (Char.code (Bytes.get s pos) lxor (1 lsl (i mod 8))));
        Daemon.Protocol.write_frame fd (Bytes.to_string s)
      | 6 ->
        (* structurally valid frame from a future protocol version *)
        Daemon.Protocol.write_frame fd
          (Printf.sprintf "(mptcp-daemon %d (status))"
             (Daemon.Protocol.version + 1))
      | _ -> assert false);
      if expect_reply then
        match Daemon.Protocol.read_frame fd with
        | Daemon.Protocol.Frame s -> (
          match Daemon.Protocol.parse_response s with
          | Daemon.Protocol.Error _ -> ()
          | _ ->
            QCheck.Test.fail_reportf
              "garbage kind %d got a non-error reply" kind
          | exception Events.Sexp.Parse_error msg ->
            QCheck.Test.fail_reportf
              "garbage kind %d got an unreadable reply: %s" kind msg)
        | _ ->
          QCheck.Test.fail_reportf "garbage kind %d got no reply frame" kind)

let daemon_seq = ref 0

let daemon_test ?(count = 12) () =
  QCheck.Test.make ~count
    ~name:"fuzz: the daemon survives protocol garbage and still drains"
    (QCheck.list_of_size
       QCheck.Gen.(int_range 1 8)
       (QCheck.int_bound (daemon_garbage_kinds - 1)))
    (fun kinds ->
      incr daemon_seq;
      (* relative paths: dune sandboxes the test cwd, and a short
         relative socket path dodges the 108-byte sockaddr_un limit *)
      let tag = Printf.sprintf "%d_%d" (Unix.getpid ()) !daemon_seq in
      let socket = Printf.sprintf "_dfz_%s.sock" tag in
      let conf =
        {
          (Daemon.default_conf ~socket_path:socket
             ~store_dir:(Printf.sprintf "_dfz_store_%s" tag))
          with
          Daemon.jobs = Some 1;
          log = false;
        }
      in
      let t = Daemon.start conf in
      let server = Thread.create Daemon.serve t in
      Fun.protect
        ~finally:(fun () ->
          (try ignore (Daemon.handle t Daemon.Protocol.Drain)
           with _ -> ());
          Thread.join server)
        (fun () ->
          List.iteri
            (fun i kind ->
              send_daemon_garbage ~socket i kind;
              (* the daemon must still answer a well-formed request on a
                 fresh connection after every piece of garbage *)
              match Daemon.Protocol.call_once ~socket Daemon.Protocol.Status with
              | Daemon.Protocol.Status_reply s ->
                if s.Daemon.Protocol.pid <> Unix.getpid () then
                  QCheck.Test.fail_report "status reply from a foreign pid"
              | _ ->
                QCheck.Test.fail_reportf
                  "no status reply after garbage kind %d" kind)
            kinds);
      if Sys.file_exists socket then
        QCheck.Test.fail_reportf "socket %s still present after drain" socket;
      true)
