(* Tests for the MPTCP layer: data-sequence reassembly, the
   chunk-ownership ring's consistency check, the coupled
   congestion-control laws (LIA alpha against hand-computed values, OLIA
   alpha sets, BALIA/EWTCP gains), schedulers, the path manager, and
   end-to-end connections over the simulator. *)

let ms = Engine.Time.ms
let mb = Netgraph.Topology.mbps
let mss = Packet.default_mss

(* --- Reassembly --- *)

let reassembly_in_order () =
  let r = Mptcp.Reassembly.create () in
  Mptcp.Reassembly.insert r ~dseq:0 ~len:100;
  Mptcp.Reassembly.insert r ~dseq:100 ~len:100;
  Alcotest.(check int) "next" 200 (Mptcp.Reassembly.next_expected r);
  Alcotest.(check int) "no gaps" 0 (Mptcp.Reassembly.gap_count r)

let reassembly_gap () =
  let r = Mptcp.Reassembly.create () in
  Mptcp.Reassembly.insert r ~dseq:100 ~len:100;
  Alcotest.(check int) "stuck at 0" 0 (Mptcp.Reassembly.next_expected r);
  Alcotest.(check int) "one gap" 1 (Mptcp.Reassembly.gap_count r);
  Alcotest.(check int) "buffered" 100 (Mptcp.Reassembly.buffered_bytes r);
  Mptcp.Reassembly.insert r ~dseq:0 ~len:100;
  Alcotest.(check int) "drained" 200 (Mptcp.Reassembly.next_expected r);
  Alcotest.(check int) "buffer empty" 0 (Mptcp.Reassembly.buffered_bytes r)

let reassembly_duplicates_and_overlap () =
  let r = Mptcp.Reassembly.create () in
  Mptcp.Reassembly.insert r ~dseq:0 ~len:100;
  Mptcp.Reassembly.insert r ~dseq:0 ~len:100;   (* exact duplicate *)
  Mptcp.Reassembly.insert r ~dseq:50 ~len:100;  (* overlaps delivered data *)
  Alcotest.(check int) "overlap extends" 150 (Mptcp.Reassembly.next_expected r);
  Mptcp.Reassembly.insert r ~dseq:300 ~len:50;
  Mptcp.Reassembly.insert r ~dseq:250 ~len:100; (* merges with the range *)
  Alcotest.(check int) "single merged gap" 1 (Mptcp.Reassembly.gap_count r);
  Alcotest.(check int) "buffered merged" 100
    (Mptcp.Reassembly.buffered_bytes r);
  Mptcp.Reassembly.insert r ~dseq:150 ~len:100;
  Alcotest.(check int) "all drained" 350 (Mptcp.Reassembly.next_expected r)

let reassembly_validation () =
  let r = Mptcp.Reassembly.create () in
  Alcotest.check_raises "zero len"
    (Invalid_argument "Reassembly.insert: len must be positive") (fun () ->
      Mptcp.Reassembly.insert r ~dseq:0 ~len:0)

let reassembly_boundaries () =
  (* The documented edge cases: len <= 0 and dseq < 0 are rejected
     before any state changes. *)
  let r = Mptcp.Reassembly.create () in
  Alcotest.check_raises "negative len"
    (Invalid_argument "Reassembly.insert: len must be positive") (fun () ->
      Mptcp.Reassembly.insert r ~dseq:0 ~len:(-5));
  Alcotest.check_raises "negative dseq"
    (Invalid_argument "Reassembly.insert: negative dseq") (fun () ->
      Mptcp.Reassembly.insert r ~dseq:(-1) ~len:10);
  Alcotest.(check int) "rejected inserts leave no trace" 0
    (Mptcp.Reassembly.next_expected r + Mptcp.Reassembly.buffered_bytes r
    + Mptcp.Reassembly.gap_count r)

let qcheck_reassembly_distinct_bytes =
  (* The audit subsystem's reassembly ledger, as a standalone property:
     after any insert sequence — permuted, duplicated, overlapping —
     delivered + buffered equals the number of distinct bytes ever
     inserted. *)
  let module S = Set.Make (Int) in
  QCheck.Test.make ~name:"delivered + buffered = distinct bytes inserted"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (pair (int_bound 300) (1 -- 25)))
    (fun inserts ->
      let r = Mptcp.Reassembly.create () in
      let seen = ref S.empty in
      List.for_all
        (fun (dseq, len) ->
          Mptcp.Reassembly.insert r ~dseq ~len;
          for i = dseq to dseq + len - 1 do
            seen := S.add i !seen
          done;
          Mptcp.Reassembly.delivered_bytes r
          + Mptcp.Reassembly.buffered_bytes r
          = S.cardinal !seen)
        inserts)

let qcheck_reassembly_any_order =
  QCheck.Test.make
    ~name:"reassembly completes under any interleaving with duplicates"
    ~count:300
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(5 -- 40) (int_bound 19)))
    (fun (_, chunks) ->
      let n = 20 in
      let r = Mptcp.Reassembly.create () in
      (* Insert the hinted chunks (with duplicates), then every chunk to
         guarantee completeness. *)
      List.iter
        (fun i -> Mptcp.Reassembly.insert r ~dseq:(i * 10) ~len:10)
        chunks;
      for i = 0 to n - 1 do
        Mptcp.Reassembly.insert r ~dseq:(i * 10) ~len:10
      done;
      Mptcp.Reassembly.next_expected r = n * 10
      && Mptcp.Reassembly.gap_count r = 0)

let qcheck_reassembly_monotone =
  QCheck.Test.make ~name:"next_expected is monotone" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (pair (int_bound 500) (1 -- 30)))
    (fun inserts ->
      let r = Mptcp.Reassembly.create () in
      let prev = ref 0 in
      List.for_all
        (fun (dseq, len) ->
          Mptcp.Reassembly.insert r ~dseq ~len;
          let next = Mptcp.Reassembly.next_expected r in
          let ok = next >= !prev in
          prev := next;
          ok)
        inserts)

let qcheck_reassembly_oracle =
  (* Reference model: a plain byte set.  next_expected must equal the
     first missing byte, buffered_bytes the count of received bytes
     beyond it — after every insert. *)
  QCheck.Test.make ~name:"reassembly agrees with a byte-set oracle" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 120) (1 -- 15)))
    (fun inserts ->
      let r = Mptcp.Reassembly.create () in
      let horizon = 200 in
      let received = Array.make horizon false in
      List.for_all
        (fun (dseq, len) ->
          let len = min len (horizon - dseq) in
          if len <= 0 then true
          else begin
            Mptcp.Reassembly.insert r ~dseq ~len;
            for i = dseq to dseq + len - 1 do
              received.(i) <- true
            done;
            let next = ref 0 in
            while !next < horizon && received.(!next) do incr next done;
            let buffered = ref 0 in
            for i = !next to horizon - 1 do
              if received.(i) then incr buffered
            done;
            Mptcp.Reassembly.next_expected r = !next
            && Mptcp.Reassembly.buffered_bytes r = !buffered
          end)
        inserts)

(* --- coupled congestion control units --- *)

type fake_sub = { mutable cwnd : float; mutable ssthresh : float }

(* One slot's worth of state for a hand-built coupled-CC group. *)
let sibling ~cwnd ~rtt_s ?(loss_bytes = 0) ?(established = true) () =
  (cwnd, rtt_s, loss_bytes, established)

let group_of sibs =
  let g = Tcp.Cc.group_create (Array.length sibs) in
  Array.iteri
    (fun i (cwnd, rtt_s, loss_bytes, established) ->
      g.Tcp.Cc.cwnds.(i) <- cwnd;
      g.Tcp.Cc.srtts.(i) <- rtt_s;
      g.Tcp.Cc.loss_intervals.(i) <- float_of_int loss_bytes;
      Tcp.Cc.group_set_established g i established)
    sibs;
  g

let coupled_ctx sub ~rtt_s ~siblings ~self_index =
  let g = group_of siblings in
  {
    Tcp.Cc.now_s = (fun () -> 0.0);
    mss;
    get_cwnd = (fun () -> sub.cwnd);
    set_cwnd = (fun w -> sub.cwnd <- Float.max 1.0 w);
    get_ssthresh = (fun () -> sub.ssthresh);
    set_ssthresh = (fun w -> sub.ssthresh <- Float.max 2.0 w);
    srtt_s = (fun () -> rtt_s);
    group = (fun () -> g);
    self_index = (fun () -> self_index);
  }

let lia_single_path_is_reno () =
  (* With one subflow, alpha = w * (w/r^2) / (w/r)^2 = 1, so the increase
     min(1/w, 1/w) equals Reno's. *)
  let sub = { cwnd = 10.0; ssthresh = 5.0 } in
  let sibs = [| sibling ~cwnd:10.0 ~rtt_s:0.1 () |] in
  let cc = Mptcp.Cc_lia.factory (coupled_ctx sub ~rtt_s:0.1 ~siblings:sibs ~self_index:0) in
  cc.Tcp.Cc.on_ack ~acked:mss;
  Alcotest.(check (float 1e-9)) "reno-equivalent" 10.1 sub.cwnd

let lia_alpha_hand_computed () =
  (* Two equal-RTT paths, windows 10 and 30:
     alpha = 40 * (30/r^2) / (40/r)^2 = 40*30/1600 = 0.75
     increase on path 0 (w=10) = min(0.75/40, 1/10) = 0.01875 MSS/ack. *)
  let sub = { cwnd = 10.0; ssthresh = 5.0 } in
  let sibs =
    [| sibling ~cwnd:10.0 ~rtt_s:0.1 (); sibling ~cwnd:30.0 ~rtt_s:0.1 () |]
  in
  let cc = Mptcp.Cc_lia.factory (coupled_ctx sub ~rtt_s:0.1 ~siblings:sibs ~self_index:0) in
  cc.Tcp.Cc.on_ack ~acked:mss;
  Alcotest.(check (float 1e-9)) "coupled increase" (10.0 +. 0.01875) sub.cwnd

let lia_less_aggressive_than_reno () =
  (* Coupling caps the per-path increase at 1/w, and typically below. *)
  let sub = { cwnd = 20.0; ssthresh = 5.0 } in
  let sibs =
    [| sibling ~cwnd:20.0 ~rtt_s:0.1 (); sibling ~cwnd:20.0 ~rtt_s:0.1 () |]
  in
  let cc = Mptcp.Cc_lia.factory (coupled_ctx sub ~rtt_s:0.1 ~siblings:sibs ~self_index:0) in
  cc.Tcp.Cc.on_ack ~acked:mss;
  let inc = sub.cwnd -. 20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "increase %.5f < reno's %.5f" inc (1.0 /. 20.0))
    true (inc < 1.0 /. 20.0)

let lia_loss_halves () =
  let sub = { cwnd = 20.0; ssthresh = 100.0 } in
  let sibs = [| sibling ~cwnd:20.0 ~rtt_s:0.1 () |] in
  let cc = Mptcp.Cc_lia.factory (coupled_ctx sub ~rtt_s:0.1 ~siblings:sibs ~self_index:0) in
  cc.Tcp.Cc.on_loss ();
  Alcotest.(check (float 1e-9)) "halved" 10.0 sub.cwnd

let olia_moves_window_to_best_path () =
  (* Path 0: small window but excellent loss history (best, not max):
     alpha_0 = +1/(n |B\M|) = 1/2.  Path 1: max window, alpha = -1/2n. *)
  let sibs =
    [|
      sibling ~cwnd:5.0 ~rtt_s:0.1 ~loss_bytes:1_000_000 ();
      sibling ~cwnd:50.0 ~rtt_s:0.1 ~loss_bytes:10_000 ();
    |]
  in
  (* On the best-but-small path the increase must exceed the pure coupled
     term; on the max path the alpha term drags the increase negative. *)
  let sub0 = { cwnd = 5.0; ssthresh = 2.0 } in
  let cc0 = Mptcp.Cc_olia.factory (coupled_ctx sub0 ~rtt_s:0.1 ~siblings:sibs ~self_index:0) in
  cc0.Tcp.Cc.on_ack ~acked:mss;
  let coupled_term = 5.0 /. (0.1 *. 0.1) /. ((55.0 /. 0.1) ** 2.0) in
  Alcotest.(check bool) "boosted above coupled term" true
    (sub0.cwnd -. 5.0 > coupled_term);
  let sub1 = { cwnd = 50.0; ssthresh = 2.0 } in
  let cc1 = Mptcp.Cc_olia.factory (coupled_ctx sub1 ~rtt_s:0.1 ~siblings:sibs ~self_index:1) in
  cc1.Tcp.Cc.on_ack ~acked:mss;
  (* alpha_1 = -1/(2*1): the negative term must slow this path well below
     its own coupled increase (it may or may not go strictly negative,
     depending on the window sizes). *)
  let coupled_term_1 = 50.0 /. (0.1 *. 0.1) /. ((55.0 /. 0.1) ** 2.0) in
  let inc_1 = sub1.cwnd -. 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "max-window path dampened (%.4f < %.4f - 0.005)" inc_1
       coupled_term_1)
    true
    (inc_1 < coupled_term_1 -. 0.005)

let olia_neutral_when_best_is_max () =
  (* If the best path already has the max window, B \ M is empty and all
     alphas are 0: pure coupled increase everywhere. *)
  let sibs =
    [|
      sibling ~cwnd:50.0 ~rtt_s:0.1 ~loss_bytes:1_000_000 ();
      sibling ~cwnd:5.0 ~rtt_s:0.1 ~loss_bytes:10_000 ();
    |]
  in
  let sub = { cwnd = 5.0; ssthresh = 2.0 } in
  let cc = Mptcp.Cc_olia.factory (coupled_ctx sub ~rtt_s:0.1 ~siblings:sibs ~self_index:1) in
  cc.Tcp.Cc.on_ack ~acked:mss;
  let coupled_term = 5.0 /. (0.1 *. 0.1) /. ((55.0 /. 0.1) ** 2.0) in
  Alcotest.(check (float 1e-9)) "pure coupled term" (5.0 +. coupled_term)
    sub.cwnd

let balia_increase_bounded () =
  let sub = { cwnd = 10.0; ssthresh = 5.0 } in
  let sibs =
    [| sibling ~cwnd:10.0 ~rtt_s:0.1 (); sibling ~cwnd:10.0 ~rtt_s:0.1 () |]
  in
  let cc = Mptcp.Cc_balia.factory (coupled_ctx sub ~rtt_s:0.1 ~siblings:sibs ~self_index:0) in
  cc.Tcp.Cc.on_ack ~acked:mss;
  let inc = sub.cwnd -. 10.0 in
  Alcotest.(check bool) "positive" true (inc > 0.0);
  Alcotest.(check bool) "bounded by 1/w" true (inc <= 1.0 /. 10.0 +. 1e-12)

let balia_loss_scales_with_alpha () =
  (* Equal rates: alpha = 1, decrease = w/2. *)
  let sub = { cwnd = 20.0; ssthresh = 100.0 } in
  let sibs =
    [| sibling ~cwnd:20.0 ~rtt_s:0.1 (); sibling ~cwnd:20.0 ~rtt_s:0.1 () |]
  in
  let cc = Mptcp.Cc_balia.factory (coupled_ctx sub ~rtt_s:0.1 ~siblings:sibs ~self_index:0) in
  cc.Tcp.Cc.on_loss ();
  Alcotest.(check (float 1e-9)) "w/2 at alpha 1" 10.0 sub.cwnd;
  (* This path much slower than the best: alpha = 4 capped at 1.5 ->
     decrease w * 0.75. *)
  let sub2 = { cwnd = 20.0; ssthresh = 100.0 } in
  let sibs2 =
    [| sibling ~cwnd:20.0 ~rtt_s:0.1 (); sibling ~cwnd:80.0 ~rtt_s:0.1 () |]
  in
  let cc2 = Mptcp.Cc_balia.factory (coupled_ctx sub2 ~rtt_s:0.1 ~siblings:sibs2 ~self_index:0) in
  cc2.Tcp.Cc.on_loss ();
  Alcotest.(check (float 1e-9)) "capped decrease" 5.0 sub2.cwnd

let ewtcp_gain () =
  (* Four subflows: gain 1/2, so +0.5/w per MSS acked. *)
  let sub = { cwnd = 10.0; ssthresh = 5.0 } in
  let sibs = Array.init 4 (fun _ -> sibling ~cwnd:10.0 ~rtt_s:0.1 ()) in
  let cc = Mptcp.Cc_ewtcp.factory (coupled_ctx sub ~rtt_s:0.1 ~siblings:sibs ~self_index:0) in
  cc.Tcp.Cc.on_ack ~acked:mss;
  Alcotest.(check (float 1e-9)) "1/sqrt(4) gain" (10.0 +. 0.05) sub.cwnd

let wvegas_backs_off_on_delay () =
  (* With rtt well above base, the backlog exceeds the quota and the
     window shrinks; with rtt = base it grows. *)
  let now = ref 0.0 in
  let run rtt_s =
    let sub = { cwnd = 20.0; ssthresh = 5.0 } in
    let sibs = [| sibling ~cwnd:20.0 ~rtt_s () |] in
    let ctx = { (coupled_ctx sub ~rtt_s ~siblings:sibs ~self_index:0) with
                Tcp.Cc.now_s = (fun () -> !now) } in
    let cc = Mptcp.Cc_wvegas.factory ctx in
    (* First ack learns base rtt; adjustments happen once per rtt. *)
    now := 0.0;
    cc.Tcp.Cc.on_ack ~acked:mss;
    now := 1.0;
    cc.Tcp.Cc.on_ack ~acked:mss;
    sub.cwnd
  in
  Alcotest.(check bool) "grows when un-queued" true (run 0.01 > 20.0);
  (* Simulate a congested path: base is learnt low, then rtt doubles.
     The window is large enough that the backlog clearly exceeds the
     quota's alpha+2 dead zone (diff = w/2 > 12). *)
  let sub = { cwnd = 30.0; ssthresh = 5.0 } in
  let rtt = ref 0.01 in
  let group () = group_of [| sibling ~cwnd:sub.cwnd ~rtt_s:!rtt () |] in
  let ctx =
    { (coupled_ctx sub ~rtt_s:0.01
         ~siblings:[| sibling ~cwnd:sub.cwnd ~rtt_s:0.01 () |] ~self_index:0)
      with
      Tcp.Cc.now_s = (fun () -> !now);
      srtt_s = (fun () -> !rtt);
      group } in
  let cc = Mptcp.Cc_wvegas.factory ctx in
  now := 0.0;
  cc.Tcp.Cc.on_ack ~acked:mss; (* learn base = 0.01 *)
  rtt := 0.02;
  now := 1.0;
  cc.Tcp.Cc.on_ack ~acked:mss;
  now := 2.0;
  cc.Tcp.Cc.on_ack ~acked:mss;
  (* diff = w * (1 - 0.01/0.02) ~ w/2 packets >> quota: two adjustment
     rounds under queueing shrink the window below where it started. *)
  Alcotest.(check bool)
    (Printf.sprintf "shrinks under queueing (%.1f)" sub.cwnd)
    true (sub.cwnd < 30.0)

let algorithm_registry () =
  List.iter
    (fun a ->
      match Mptcp.Algorithm.of_string (Mptcp.Algorithm.name a) with
      | Some b ->
        Alcotest.(check string) "round trip" (Mptcp.Algorithm.name a)
          (Mptcp.Algorithm.name b)
      | None -> Alcotest.fail "name round trip failed")
    Mptcp.Algorithm.all;
  Alcotest.(check bool) "unknown rejected" true
    (Mptcp.Algorithm.of_string "bbr" = None);
  Alcotest.(check bool) "cubic uncoupled" false
    (Mptcp.Algorithm.coupled Mptcp.Algorithm.Cubic);
  Alcotest.(check bool) "olia coupled" true
    (Mptcp.Algorithm.coupled Mptcp.Algorithm.Olia)

(* --- Scheduler decisions --- *)

type cand = { index : int; srtt_s : float; space : int }

let cand ~index ~srtt_s ~space = { index; srtt_s; space }

(* [Scheduler.decide] reads subflow [i] through accessors; these read
   position [i] of a candidate array. *)
let decide policy ~cursor ~requester cands =
  Mptcp.Scheduler.decide policy ~cursor ~requester ~count:(Array.length cands)
    ~srtt_ns:(fun c i -> Engine.Time.of_float_s c.(i).srtt_s)
    ~window_space:(fun c i -> c.(i).space)
    cands

let scheduler_minrtt () =
  let cursor = ref 0 in
  let cands = [| cand ~index:0 ~srtt_s:0.05 ~space:1000;
                 cand ~index:1 ~srtt_s:0.01 ~space:1000 |] in
  (match decide Mptcp.Scheduler.Min_rtt ~cursor ~requester:1 cands with
  | Mptcp.Scheduler.Grant -> ()
  | _ -> Alcotest.fail "lowest RTT requester must be granted");
  (match decide Mptcp.Scheduler.Min_rtt ~cursor ~requester:0 cands with
  | Mptcp.Scheduler.Defer (Some 1) -> ()
  | _ -> Alcotest.fail "higher-RTT requester defers to subflow 1");
  (* When the faster path has no window space, the slower one gets it. *)
  let cands2 = [| cand ~index:0 ~srtt_s:0.05 ~space:1000;
                  cand ~index:1 ~srtt_s:0.01 ~space:0 |] in
  match decide Mptcp.Scheduler.Min_rtt ~cursor ~requester:0 cands2 with
  | Mptcp.Scheduler.Grant -> ()
  | _ -> Alcotest.fail "fallback to the only subflow with space"

let scheduler_round_robin () =
  let cursor = ref 0 in
  let cands = Array.init 3 (fun i -> cand ~index:i ~srtt_s:0.01 ~space:1000) in
  (match decide Mptcp.Scheduler.Round_robin ~cursor ~requester:0 cands with
  | Mptcp.Scheduler.Grant -> ()
  | _ -> Alcotest.fail "cursor 0 grants requester 0");
  Alcotest.(check int) "cursor advanced" 1 !cursor;
  (match decide Mptcp.Scheduler.Round_robin ~cursor ~requester:0 cands with
  | Mptcp.Scheduler.Defer (Some 1) -> ()
  | _ -> Alcotest.fail "requester 0 must defer to 1");
  (* Skips subflows without space. *)
  cands.(1) <- cand ~index:1 ~srtt_s:0.01 ~space:0;
  match decide Mptcp.Scheduler.Round_robin ~cursor ~requester:2 cands with
  | Mptcp.Scheduler.Grant -> Alcotest.(check int) "cursor wrapped" 0 !cursor
  | _ -> Alcotest.fail "cursor must skip the stalled subflow"

let scheduler_redundant_grants_all () =
  let cursor = ref 0 in
  let cands = [| cand ~index:0 ~srtt_s:0.05 ~space:0 |] in
  match decide Mptcp.Scheduler.Redundant ~cursor ~requester:0 cands with
  | Mptcp.Scheduler.Grant -> ()
  | _ -> Alcotest.fail "redundant always grants"

(* Every spelling a flag or a file may use names the same policy, and
   the canonical name (which canonical spec hashes embed) round-trips. *)
let scheduler_names () =
  let check name expected =
    Alcotest.(check (option string))
      name (Some expected)
      (Option.map Mptcp.Scheduler.policy_name
         (Mptcp.Scheduler.policy_of_string name))
  in
  List.iter
    (fun (name, expected) -> check name expected)
    [ ("min-rtt", "minrtt"); ("min_rtt", "minrtt"); ("MinRTT", "minrtt");
      ("round-robin", "roundrobin"); ("round_robin", "roundrobin");
      ("rr", "roundrobin"); ("redundant", "redundant") ];
  List.iter
    (fun p ->
      let name = Mptcp.Scheduler.policy_name p in
      check name name)
    Mptcp.Scheduler.[ Min_rtt; Round_robin; Redundant ];
  Alcotest.(check bool)
    "unknown name" true
    (Mptcp.Scheduler.policy_of_string "min-rtt-ish" = None)

(* --- Path manager --- *)

let path_manager_tags () =
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.paths topo in
  let tagged = Mptcp.Path_manager.tag_paths paths in
  Alcotest.(check (list int)) "tags 1..3" [ 1; 2; 3 ] (List.map fst tagged);
  let reordered = Mptcp.Path_manager.with_default tagged ~default_tag:3 in
  Alcotest.(check (list int)) "default first" [ 3; 1; 2 ]
    (List.map fst reordered);
  Alcotest.(check bool) "missing default raises" true
    (try ignore (Mptcp.Path_manager.with_default tagged ~default_tag:9); false
     with Not_found -> true)

let path_manager_fullmesh () =
  (* A dual-homed pair: phone has wifi + lte access, server has two
     uplinks, each access network reaching exactly one uplink.  Fullmesh
     must find exactly the two disjoint paths, shortest first. *)
  let b = Netgraph.Topology.builder () in
  let phone = Netgraph.Topology.add_node b "phone" in
  let wifi = Netgraph.Topology.add_node b "wifi" in
  let lte = Netgraph.Topology.add_node b "lte" in
  let server = Netgraph.Topology.add_node b "server" in
  let link u v d =
    ignore (Netgraph.Topology.add_link b ~u ~v ~capacity_bps:(mb 10) ~delay:d)
  in
  link phone wifi (ms 3);
  link phone lte (ms 25);
  link wifi server (ms 5);
  link lte server (ms 5);
  let topo = Netgraph.Topology.build b in
  let mesh = Mptcp.Path_manager.fullmesh topo ~src:phone ~dst:server in
  Alcotest.(check int) "two subflows" 2 (List.length mesh);
  (match mesh with
  | (_, first) :: _ ->
    (* The wifi path (8 ms) is the default, not the lte one (30 ms). *)
    Alcotest.(check bool) "default via wifi" true
      (Netgraph.Path.mem_link first 0)
  | [] -> Alcotest.fail "no paths");
  let ps = List.map snd mesh in
  match ps with
  | [ p; q ] -> Alcotest.(check bool) "disjoint" true (Netgraph.Path.disjoint p q)
  | _ -> Alcotest.fail "expected two paths"

let path_manager_ndiffports () =
  let topo = Core.Paper_net.topology () in
  let s = Netgraph.Topology.node_id topo "s" in
  let d = Netgraph.Topology.node_id topo "d" in
  let tagged = Mptcp.Path_manager.ndiffports topo ~src:s ~dst:d ~subflows:3 () in
  Alcotest.(check int) "three subflows" 3 (List.length tagged);
  (* First = default = shortest by delay = the 3-hop path. *)
  match tagged with
  | (_, p) :: _ -> Alcotest.(check int) "default is shortest" 3
                     (Netgraph.Path.hop_count p)
  | [] -> Alcotest.fail "no paths"

(* --- end-to-end connections --- *)

let diamond () =
  let b = Netgraph.Topology.builder () in
  let a = Netgraph.Topology.add_node b "a" in
  let up = Netgraph.Topology.add_node b "up" in
  let down = Netgraph.Topology.add_node b "down" in
  let z = Netgraph.Topology.add_node b "z" in
  let link u v mbps =
    ignore
      (Netgraph.Topology.add_link b ~u ~v ~capacity_bps:(mb mbps)
         ~delay:(ms 2))
  in
  link a up 20;
  link up z 20;
  link a down 20;
  link down z 20;
  (Netgraph.Topology.build b, a, z)

let run_conn ?(cc = Mptcp.Algorithm.Lia) ?(seconds = 8) ?config topo a z paths =
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 3) topo in
  let src = Tcp.Endpoint.create net ~node:a in
  let dst = Tcp.Endpoint.create net ~node:z in
  let conn =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths ~cc ?config ()
  in
  Engine.Sched.run ~until:(Engine.Time.s seconds) sched;
  (conn, sched)

let connection_aggregates_disjoint_paths () =
  let topo, a, z = diamond () in
  let paths =
    Mptcp.Path_manager.tag_paths
      [
        Netgraph.Path.of_names topo [ "a"; "up"; "z" ];
        Netgraph.Path.of_names topo [ "a"; "down"; "z" ];
      ]
  in
  let conn, sched = run_conn topo a z paths in
  let mbps =
    Mptcp.Connection.total_throughput_bps conn ~now:(Engine.Sched.now sched)
    /. 1e6
  in
  (* Two disjoint 20 Mbps paths: the aggregate must clearly exceed one
     path and approach 40 Mbps of goodput (~38.6 max). *)
  Alcotest.(check bool)
    (Printf.sprintf "aggregate %.1f Mbps > 30" mbps)
    true (mbps > 30.0);
  (* Both subflows carried real traffic. *)
  Alcotest.(check bool) "subflow 0 active" true
    (Mptcp.Connection.subflow_rx_bytes conn 0 > 1_000_000);
  Alcotest.(check bool) "subflow 1 active" true
    (Mptcp.Connection.subflow_rx_bytes conn 1 > 1_000_000);
  (* In-order delivery kept up: reassembly is not holding megabytes. *)
  Alcotest.(check bool) "reassembly bounded" true
    (Mptcp.Connection.reassembly_buffered conn < 2_000_000)

let connection_data_ack_consistent () =
  let topo, a, z = diamond () in
  let paths =
    Mptcp.Path_manager.tag_paths
      [
        Netgraph.Path.of_names topo [ "a"; "up"; "z" ];
        Netgraph.Path.of_names topo [ "a"; "down"; "z" ];
      ]
  in
  let conn, _ = run_conn topo a z paths in
  Alcotest.(check int) "data_ack = delivered" (Mptcp.Connection.delivered_bytes conn)
    (Mptcp.Connection.data_ack conn);
  (* Subflow payloads together cover the delivered stream. *)
  let rx01 =
    Mptcp.Connection.subflow_rx_bytes conn 0
    + Mptcp.Connection.subflow_rx_bytes conn 1
  in
  Alcotest.(check bool) "subflow bytes >= delivered" true
    (rx01 >= Mptcp.Connection.delivered_bytes conn)

let connection_bounded_transfer () =
  let topo, a, z = diamond () in
  let paths =
    Mptcp.Path_manager.tag_paths
      [
        Netgraph.Path.of_names topo [ "a"; "up"; "z" ];
        Netgraph.Path.of_names topo [ "a"; "down"; "z" ];
      ]
  in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 3) topo in
  let src = Tcp.Endpoint.create net ~node:a in
  let dst = Tcp.Endpoint.create net ~node:z in
  let conn =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
      ~cc:Mptcp.Algorithm.Lia ~total_bytes:2_000_000 ()
  in
  Engine.Sched.run ~until:(Engine.Time.s 10) sched;
  Alcotest.(check int) "exactly the requested bytes" 2_000_000
    (Mptcp.Connection.delivered_bytes conn);
  Alcotest.(check bool) "completion recorded" true
    (Mptcp.Connection.completed_at conn <> None)

let redundant_scheduler_duplicates () =
  let topo, a, z = diamond () in
  let paths =
    Mptcp.Path_manager.tag_paths
      [
        Netgraph.Path.of_names topo [ "a"; "up"; "z" ];
        Netgraph.Path.of_names topo [ "a"; "down"; "z" ];
      ]
  in
  let config =
    { Mptcp.Connection.default_config with
      Mptcp.Connection.scheduler = Mptcp.Scheduler.Redundant }
  in
  let conn, _ = run_conn ~seconds:4 ~config topo a z paths in
  let delivered = Mptcp.Connection.delivered_bytes conn in
  let rx01 =
    Mptcp.Connection.subflow_rx_bytes conn 0
    + Mptcp.Connection.subflow_rx_bytes conn 1
  in
  (* Every byte travels on both paths: subflow payload is about twice the
     delivered stream. *)
  Alcotest.(check bool)
    (Printf.sprintf "duplication factor %.2f ~ 2"
       (float_of_int rx01 /. float_of_int delivered))
    true
    (float_of_int rx01 > 1.7 *. float_of_int delivered);
  Alcotest.(check bool) "still delivers" true (delivered > 1_000_000)

let shared_bottleneck_do_no_harm () =
  (* LIA's design goal: an MPTCP connection whose subflows share one
     bottleneck should take about one TCP's share, not two.  Run MPTCP
     (2 subflows on the same 20 Mbps link) against one plain TCP. *)
  let b = Netgraph.Topology.builder () in
  let a = Netgraph.Topology.add_node b "a" in
  let c = Netgraph.Topology.add_node b "c" in
  let z = Netgraph.Topology.add_node b "z" in
  ignore (Netgraph.Topology.add_link b ~u:a ~v:c ~capacity_bps:(mb 20) ~delay:(ms 5));
  ignore (Netgraph.Topology.add_link b ~u:c ~v:z ~capacity_bps:(mb 100) ~delay:(ms 1));
  let topo = Netgraph.Topology.build b in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 5) topo in
  let path = Netgraph.Path.of_names topo [ "a"; "c"; "z" ] in
  (* Same physical route under three tags: two MPTCP subflows + 1 TCP. *)
  let paths = Mptcp.Path_manager.tag_paths [ path; path ] in
  Netsim.Net.install_path net ~tag:7 path;
  let src = Tcp.Endpoint.create net ~node:a in
  let dst = Tcp.Endpoint.create net ~node:z in
  let mconn =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
      ~cc:Mptcp.Algorithm.Lia ()
  in
  let tcp = Tcp.Flow.start ~src ~dst ~tag:7 ~conn:2 ~cc:Tcp.Cc_reno.factory () in
  Engine.Sched.run ~until:(Engine.Time.s 15) sched;
  let m = float_of_int (Mptcp.Connection.delivered_bytes mconn) in
  let t = float_of_int (Tcp.Flow.bytes_delivered tcp) in
  let ratio = m /. t in
  (* Uncoupled would give ~2.0; LIA must stay nearer parity.  The band is
     deliberately wide: the point is the order of magnitude, not the
     decimals. *)
  Alcotest.(check bool)
    (Printf.sprintf "LIA takes %.2fx one TCP (expect < 1.8)" ratio)
    true (ratio < 1.8);
  Alcotest.(check bool) "and is not starved" true (ratio > 0.4)

let uncoupled_grabs_more_than_lia () =
  (* Contrast to the previous test: per-subflow Reno (uncoupled) on the
     same shared bottleneck takes more than LIA does. *)
  let share cc =
    let b = Netgraph.Topology.builder () in
    let a = Netgraph.Topology.add_node b "a" in
    let c = Netgraph.Topology.add_node b "c" in
    let z = Netgraph.Topology.add_node b "z" in
    ignore (Netgraph.Topology.add_link b ~u:a ~v:c ~capacity_bps:(mb 20) ~delay:(ms 5));
    ignore (Netgraph.Topology.add_link b ~u:c ~v:z ~capacity_bps:(mb 100) ~delay:(ms 1));
    let topo = Netgraph.Topology.build b in
    let sched = Engine.Sched.create () in
    let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 5) topo in
    let path = Netgraph.Path.of_names topo [ "a"; "c"; "z" ] in
    let paths = Mptcp.Path_manager.tag_paths [ path; path ] in
    Netsim.Net.install_path net ~tag:7 path;
    let src = Tcp.Endpoint.create net ~node:a in
    let dst = Tcp.Endpoint.create net ~node:z in
    let mconn = Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths ~cc () in
    let tcp = Tcp.Flow.start ~src ~dst ~tag:7 ~conn:2 ~cc:Tcp.Cc_reno.factory () in
    Engine.Sched.run ~until:(Engine.Time.s 15) sched;
    float_of_int (Mptcp.Connection.delivered_bytes mconn)
    /. float_of_int (Tcp.Flow.bytes_delivered tcp)
  in
  let reno_ratio = share Mptcp.Algorithm.Reno in
  let lia_ratio = share Mptcp.Algorithm.Lia in
  Alcotest.(check bool)
    (Printf.sprintf "uncoupled %.2f > coupled %.2f" reno_ratio lia_ratio)
    true (reno_ratio > lia_ratio)

let wvegas_nearly_lossless_end_to_end () =
  let topo, a, z = diamond () in
  let paths =
    Mptcp.Path_manager.tag_paths
      [
        Netgraph.Path.of_names topo [ "a"; "up"; "z" ];
        Netgraph.Path.of_names topo [ "a"; "down"; "z" ];
      ]
  in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 3) topo in
  let src = Tcp.Endpoint.create net ~node:a in
  let dst = Tcp.Endpoint.create net ~node:z in
  let conn =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
      ~cc:Mptcp.Algorithm.Wvegas ()
  in
  Engine.Sched.run ~until:(Engine.Time.s 10) sched;
  let mbps =
    Mptcp.Connection.total_throughput_bps conn ~now:(Engine.Sched.now sched)
    /. 1e6
  in
  Alcotest.(check bool)
    (Printf.sprintf "delay-based still fills the paths (%.1f Mbps)" mbps)
    true (mbps > 28.0);
  Alcotest.(check bool)
    (Printf.sprintf "with almost no losses (%d drops)" (Netsim.Net.total_drops net))
    true
    (Netsim.Net.total_drops net < 100)

let failover_shifts_traffic () =
  (* Cut one of two disjoint paths mid-transfer: the aggregate must keep
     flowing on the survivor, and resume on both after repair. *)
  let b = Netgraph.Topology.builder () in
  let a = Netgraph.Topology.add_node b "a" in
  let up = Netgraph.Topology.add_node b "up" in
  let down = Netgraph.Topology.add_node b "down" in
  let z = Netgraph.Topology.add_node b "z" in
  let link u v =
    Netgraph.Topology.add_link b ~u ~v ~capacity_bps:(mb 20)
      ~delay:(Engine.Time.ms 2)
  in
  let _ = link a up in
  let up_z = link up z in
  let _ = link a down in
  let _ = link down z in
  let topo = Netgraph.Topology.build b in
  let paths =
    Mptcp.Path_manager.tag_paths
      [
        Netgraph.Path.of_names topo [ "a"; "up"; "z" ];
        Netgraph.Path.of_names topo [ "a"; "down"; "z" ];
      ]
  in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 3) topo in
  let src = Tcp.Endpoint.create net ~node:a in
  let dst = Tcp.Endpoint.create net ~node:z in
  let capture = Measure.Capture.attach net ~node:z ~conn:1 () in
  let _conn =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
      ~cc:Mptcp.Algorithm.Lia ()
  in
  ignore
    (Engine.Sched.at sched (Engine.Time.s 4) (fun () ->
         Netsim.Net.set_link_up net ~link:up_z false));
  ignore
    (Engine.Sched.at sched (Engine.Time.s 8) (fun () ->
         Netsim.Net.set_link_up net ~link:up_z true));
  Engine.Sched.run ~until:(Engine.Time.s 12) sched;
  let per_tag, total =
    Measure.Sampler.per_tag capture ~window:(Engine.Time.ms 250)
      ~until:(Engine.Time.s 12)
  in
  let s1 = List.assoc 1 per_tag and s2 = List.assoc 2 per_tag in
  Alcotest.(check (float 0.01)) "cut path silent during the outage" 0.0
    (Measure.Series.mean_between s1 ~from_s:5.0 ~to_s:8.0);
  Alcotest.(check bool) "survivor carries on" true
    (Measure.Series.mean_between s2 ~from_s:5.0 ~to_s:8.0 > 15.0);
  Alcotest.(check bool) "total never collapses for long" true
    (Measure.Series.mean_between total ~from_s:5.0 ~to_s:8.0 > 15.0);
  Alcotest.(check bool) "cut path resumes after repair" true
    (Measure.Series.mean_between s1 ~from_s:10.0 ~to_s:12.0 > 5.0)

let scheduler_hol_blocking () =
  (* Asymmetric RTTs + a small connection-level send buffer: chunks
     mapped onto the slow path stall the data-sequence window (head-of-
     line blocking), so the min-RTT scheduler must clearly beat blind
     round-robin in goodput.  This is what the default scheduler is
     for. *)
  let run policy =
    let b = Netgraph.Topology.builder () in
    let a = Netgraph.Topology.add_node b "a" in
    let fast = Netgraph.Topology.add_node b "fast" in
    let slow = Netgraph.Topology.add_node b "slow" in
    let z = Netgraph.Topology.add_node b "z" in
    let link u v delay =
      ignore
        (Netgraph.Topology.add_link b ~u ~v ~capacity_bps:(mb 20) ~delay)
    in
    link a fast (ms 2);
    link fast z (ms 2);
    link a slow (ms 50);
    link slow z (ms 50);
    let topo = Netgraph.Topology.build b in
    let paths =
      Mptcp.Path_manager.tag_paths
        [
          Netgraph.Path.of_names topo [ "a"; "fast"; "z" ];
          Netgraph.Path.of_names topo [ "a"; "slow"; "z" ];
        ]
    in
    let sched = Engine.Sched.create () in
    let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 3) topo in
    let src = Tcp.Endpoint.create net ~node:a in
    let dst = Tcp.Endpoint.create net ~node:z in
    let config =
      { Mptcp.Connection.default_config with
        Mptcp.Connection.scheduler = policy;
        send_buffer = Some 65_536 }
    in
    let conn =
      Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
        ~cc:Mptcp.Algorithm.Lia ~config ()
    in
    Engine.Sched.run ~until:(Engine.Time.s 10) sched;
    float_of_int (Mptcp.Connection.delivered_bytes conn) *. 8.0 /. 10.0 /. 1e6
  in
  let minrtt = run Mptcp.Scheduler.Min_rtt in
  let rr = run Mptcp.Scheduler.Round_robin in
  Alcotest.(check bool)
    (Printf.sprintf "min-RTT %.1f Mbps beats round-robin %.1f Mbps" minrtt rr)
    true
    (minrtt > 1.5 *. rr);
  Alcotest.(check bool) "round robin is HoL-bound" true (rr < 15.0)

let reinjection_clears_hol () =
  (* Same asymmetric-path, small-buffer setup as the HoL test: with
     opportunistic reinjection the blocking chunks are re-sent on the
     fast path, so even the naive round-robin scheduler recovers most of
     the goodput. *)
  let run reinjection =
    let b = Netgraph.Topology.builder () in
    let a = Netgraph.Topology.add_node b "a" in
    let fast = Netgraph.Topology.add_node b "fast" in
    let slow = Netgraph.Topology.add_node b "slow" in
    let z = Netgraph.Topology.add_node b "z" in
    let link u v delay =
      ignore
        (Netgraph.Topology.add_link b ~u ~v ~capacity_bps:(mb 20) ~delay)
    in
    link a fast (ms 2);
    link fast z (ms 2);
    link a slow (ms 50);
    link slow z (ms 50);
    let topo = Netgraph.Topology.build b in
    let paths =
      Mptcp.Path_manager.tag_paths
        [
          Netgraph.Path.of_names topo [ "a"; "fast"; "z" ];
          Netgraph.Path.of_names topo [ "a"; "slow"; "z" ];
        ]
    in
    let sched = Engine.Sched.create () in
    let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 3) topo in
    let src = Tcp.Endpoint.create net ~node:a in
    let dst = Tcp.Endpoint.create net ~node:z in
    let config =
      { Mptcp.Connection.default_config with
        Mptcp.Connection.scheduler = Mptcp.Scheduler.Round_robin;
        send_buffer = Some 65_536;
        reinjection }
    in
    let conn =
      Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
        ~cc:Mptcp.Algorithm.Lia ~config ()
    in
    Engine.Sched.run ~until:(Engine.Time.s 10) sched;
    ( float_of_int (Mptcp.Connection.delivered_bytes conn) *. 8.0 /. 10.0
      /. 1e6,
      Mptcp.Connection.reinjections conn )
  in
  let plain, r0 = run false in
  let boosted, r1 = run true in
  Alcotest.(check int) "no reinjection when off" 0 r0;
  Alcotest.(check bool)
    (Printf.sprintf "reinjection used (%d times)" r1)
    true (r1 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "goodput recovers (%.1f -> %.1f Mbps)" plain boosted)
    true
    (boosted > 1.5 *. plain)

let two_connections_share () =
  (* Two MPTCP connections with the same three tagged paths must share
     the 90 Mbps optimum roughly evenly (same demux network, distinct
     connection ids). *)
  let topo = Core.Paper_net.topology () in
  let paths = Core.Paper_net.tagged_paths ~default:2 topo in
  let sched = Engine.Sched.create () in
  let rng = Engine.Rng.create 1 in
  let net =
    Netsim.Net.create ~sched ~rng
      ~config:{ Netsim.Net.qdisc = Netsim.Qdisc.Drop_tail; limit_pkts = 16;
        delay_jitter = Engine.Time.zero }
      topo
  in
  let s_node = Netgraph.Topology.node_id topo "s" in
  let d_node = Netgraph.Topology.node_id topo "d" in
  let src = Tcp.Endpoint.create net ~node:s_node in
  let dst = Tcp.Endpoint.create net ~node:d_node in
  let conns =
    List.map
      (fun id ->
        Mptcp.Connection.establish ~net ~src ~dst ~conn:id ~paths
          ~cc:Mptcp.Algorithm.Cubic ~rng:(Engine.Rng.split rng)
          ~config:
            { Mptcp.Connection.default_config with
              Mptcp.Connection.start_jitter = Engine.Time.ms 2 }
          ())
      [ 1; 2 ]
  in
  Engine.Sched.run ~until:(Engine.Time.s 15) sched;
  let rates =
    List.map
      (fun c ->
        Mptcp.Connection.total_throughput_bps c ~now:(Engine.Sched.now sched)
        /. 1e6)
      conns
  in
  let total = List.fold_left ( +. ) 0.0 rates in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate near the optimum (%.1f)" total)
    true
    (total > 70.0 && total < 92.0);
  let jain = Measure.Converge.jain_fairness (Array.of_list rates) in
  Alcotest.(check bool)
    (Printf.sprintf "roughly fair (jain %.3f)" jain)
    true (jain > 0.85)

let join_delay_respected () =
  let topo, a, z = diamond () in
  let paths =
    Mptcp.Path_manager.tag_paths
      [
        Netgraph.Path.of_names topo [ "a"; "up"; "z" ];
        Netgraph.Path.of_names topo [ "a"; "down"; "z" ];
      ]
  in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 3) topo in
  let src = Tcp.Endpoint.create net ~node:a in
  let dst = Tcp.Endpoint.create net ~node:z in
  let conn =
    Mptcp.Connection.establish ~net ~src ~dst ~conn:1 ~paths
      ~cc:Mptcp.Algorithm.Lia ()
  in
  let join = Mptcp.Connection.join_delay in
  Alcotest.(check int) "join delay is 10 ms" (Engine.Time.ms 10) join;
  Engine.Sched.run ~until:(Engine.Time.sub join (Engine.Time.us 1)) sched;
  Alcotest.(check bool) "default subflow sending" true
    ((Tcp.Sender.stats (Mptcp.Connection.subflow_sender conn 0))
       .Tcp.Sender.segments_sent > 0);
  Alcotest.(check int) "second subflow still quiet" 0
    (Tcp.Sender.stats (Mptcp.Connection.subflow_sender conn 1))
      .Tcp.Sender.segments_sent;
  Engine.Sched.run ~until:join sched;
  Alcotest.(check bool) "second subflow joined" true
    ((Tcp.Sender.stats (Mptcp.Connection.subflow_sender conn 1))
       .Tcp.Sender.segments_sent > 0)

(* --- Chunk-ownership ring --- *)

(* The audit's [mptcp.chunk-owners] oracle must reject each bad shape it
   names: the equivalence fuzz only ever builds sound rings, so it
   cannot show the check fires. *)
let chunks_consistent_flags () =
  let sound () =
    let c = Mptcp.Chunks.create () in
    Mptcp.Chunks.append c ~dseq:0 ~len:100 ~owner:0;
    Mptcp.Chunks.append c ~dseq:100 ~len:100 ~owner:2;
    c
  in
  let ok c ~limit = Mptcp.Chunks.consistent c ~owners:3 ~limit in
  Alcotest.(check bool) "sound" true (ok (sound ()) ~limit:200);
  Alcotest.(check bool) "end past limit" false (ok (sound ()) ~limit:199);
  let c = sound () in
  Mptcp.Chunks.replace c ~dseq:50 ~len:10 ~owner:1;
  Alcotest.(check bool) "overlap" false (ok c ~limit:200);
  let c = sound () in
  Mptcp.Chunks.replace c ~dseq:100 ~len:100 ~owner:3;
  Alcotest.(check bool) "owner out of range" false (ok c ~limit:200);
  Alcotest.check_raises "append below the last chunk"
    (Invalid_argument "Chunks.append: dseq not above the last chunk")
    (fun () -> Mptcp.Chunks.append (sound ()) ~dseq:100 ~len:1 ~owner:0)

let () =
  Alcotest.run "mptcp"
    [
      ( "reassembly",
        [
          Alcotest.test_case "in order" `Quick reassembly_in_order;
          Alcotest.test_case "gap then fill" `Quick reassembly_gap;
          Alcotest.test_case "duplicates and overlaps" `Quick
            reassembly_duplicates_and_overlap;
          Alcotest.test_case "validation" `Quick reassembly_validation;
          Alcotest.test_case "boundary cases" `Quick reassembly_boundaries;
          QCheck_alcotest.to_alcotest qcheck_reassembly_distinct_bytes;
          QCheck_alcotest.to_alcotest qcheck_reassembly_any_order;
          QCheck_alcotest.to_alcotest qcheck_reassembly_monotone;
          QCheck_alcotest.to_alcotest qcheck_reassembly_oracle;
        ] );
      ( "chunks",
        [
          Alcotest.test_case "consistent flags bad rings" `Quick
            chunks_consistent_flags;
        ] );
      ( "coupled-cc",
        [
          Alcotest.test_case "LIA on one path is Reno" `Quick
            lia_single_path_is_reno;
          Alcotest.test_case "LIA alpha hand-computed" `Quick
            lia_alpha_hand_computed;
          Alcotest.test_case "LIA less aggressive than Reno" `Quick
            lia_less_aggressive_than_reno;
          Alcotest.test_case "LIA halves on loss" `Quick lia_loss_halves;
          Alcotest.test_case "OLIA shifts window to best path" `Quick
            olia_moves_window_to_best_path;
          Alcotest.test_case "OLIA neutral when best is max" `Quick
            olia_neutral_when_best_is_max;
          Alcotest.test_case "BALIA increase bounded" `Quick
            balia_increase_bounded;
          Alcotest.test_case "BALIA loss response" `Quick
            balia_loss_scales_with_alpha;
          Alcotest.test_case "EWTCP gain" `Quick ewtcp_gain;
          Alcotest.test_case "wVegas delay response" `Quick
            wvegas_backs_off_on_delay;
          Alcotest.test_case "algorithm registry" `Quick algorithm_registry;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "min-RTT" `Quick scheduler_minrtt;
          Alcotest.test_case "round robin" `Quick scheduler_round_robin;
          Alcotest.test_case "redundant" `Quick scheduler_redundant_grants_all;
          Alcotest.test_case "dashed and underscored names" `Quick
            scheduler_names;
        ] );
      ( "path-manager",
        [
          Alcotest.test_case "tagging and default selection" `Quick
            path_manager_tags;
          Alcotest.test_case "ndiffports via Yen" `Quick path_manager_ndiffports;
          Alcotest.test_case "fullmesh on a dual-homed pair" `Quick
            path_manager_fullmesh;
        ] );
      ( "connection",
        [
          Alcotest.test_case "aggregates disjoint paths" `Quick
            connection_aggregates_disjoint_paths;
          Alcotest.test_case "data ack consistency" `Quick
            connection_data_ack_consistent;
          Alcotest.test_case "bounded transfer completes" `Quick
            connection_bounded_transfer;
          Alcotest.test_case "redundant scheduler duplicates" `Quick
            redundant_scheduler_duplicates;
          Alcotest.test_case "LIA does no harm at a shared bottleneck" `Quick
            shared_bottleneck_do_no_harm;
          Alcotest.test_case "uncoupled grabs more than LIA" `Quick
            uncoupled_grabs_more_than_lia;
          Alcotest.test_case "join delay respected" `Quick join_delay_respected;
          Alcotest.test_case "wVegas end-to-end, nearly lossless" `Quick
            wvegas_nearly_lossless_end_to_end;
          Alcotest.test_case "failover to the surviving path" `Quick
            failover_shifts_traffic;
          Alcotest.test_case "min-RTT avoids HoL blocking" `Quick
            scheduler_hol_blocking;
          Alcotest.test_case "two connections share fairly" `Quick
            two_connections_share;
          Alcotest.test_case "reinjection clears HoL blocking" `Quick
            reinjection_clears_hol;
        ] );
    ]
