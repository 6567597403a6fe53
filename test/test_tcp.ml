(* Tests for the TCP substrate.

   Three layers of testing:
   - unit tests of the RTT estimator and congestion-control laws against
     hand-computed values;
   - a "wire harness" that captures the sender's segments and feeds it
     hand-crafted ACKs, pinning down the loss-recovery state machine
     (fast retransmit, SACK recovery, RTO with backoff, Karn);
   - end-to-end runs over the simulated network (throughput reaches the
     bottleneck; competing flows share it). *)

let ms = Engine.Time.ms
let mb = Netgraph.Topology.mbps
let mss = Packet.default_mss

(* --- Rtt --- *)

let rtt_first_sample () =
  let r = Tcp.Rtt.create () in
  Alcotest.(check bool) "no srtt yet" true (Tcp.Rtt.srtt r = None);
  Alcotest.(check int) "initial rto 1s" (Engine.Time.s 1) (Tcp.Rtt.rto r);
  Tcp.Rtt.sample r (ms 100);
  Alcotest.(check (option int)) "srtt = first sample" (Some (ms 100))
    (Tcp.Rtt.srtt r);
  Alcotest.(check int) "rttvar = r/2" (ms 50) (Tcp.Rtt.rttvar r);
  (* rto = srtt + 4 var = 300 ms *)
  Alcotest.(check int) "rto" (ms 300) (Tcp.Rtt.rto r)

let rtt_smoothing () =
  let r = Tcp.Rtt.create () in
  Tcp.Rtt.sample r (ms 100);
  Tcp.Rtt.sample r (ms 200);
  (* srtt = 7/8*100 + 1/8*200 = 112.5 ms;
     rttvar = 3/4*50 + 1/4*|100-200| = 62.5 ms *)
  Alcotest.(check (option int)) "srtt" (Some (ms 100 + (ms 100 / 8)))
    (Tcp.Rtt.srtt r);
  Alcotest.(check int) "rttvar" (ms 50 + (ms 50 / 4)) (Tcp.Rtt.rttvar r)

let rtt_min_rto () =
  let r = Tcp.Rtt.create () in
  Tcp.Rtt.sample r (ms 1);
  (* 1 + 4 * 0.5 = 3 ms, clamped to the 200 ms floor. *)
  Alcotest.(check int) "min rto enforced" (ms 200) (Tcp.Rtt.rto r)

let rtt_backoff () =
  let r = Tcp.Rtt.create () in
  Tcp.Rtt.sample r (ms 100);
  let base = Tcp.Rtt.rto r in
  Tcp.Rtt.backoff r;
  Alcotest.(check int) "doubled" (2 * base) (Tcp.Rtt.rto r);
  Tcp.Rtt.backoff r;
  Alcotest.(check int) "doubled again" (4 * base) (Tcp.Rtt.rto r);
  Tcp.Rtt.sample r (ms 100);
  (* The new sample clears the backoff factor and also tightens rttvar:
     var = 3/4 * 50 + 1/4 * 0 = 37.5 ms, so rto = 100 + 150 = 250 ms. *)
  Alcotest.(check int) "sample resets backoff" (ms 250) (Tcp.Rtt.rto r)

let rtt_max_cap () =
  let r = Tcp.Rtt.create ~max_rto:(Engine.Time.s 4) () in
  Tcp.Rtt.sample r (Engine.Time.s 1);
  for _ = 1 to 10 do Tcp.Rtt.backoff r done;
  Alcotest.(check int) "capped" (Engine.Time.s 4) (Tcp.Rtt.rto r)

(* --- congestion-control unit harness --- *)

type fake_sub = { mutable cwnd : float; mutable ssthresh : float }

let fake_ctx ?(rtt_s = 0.1) ?(now = ref 0.0) sub =
  (* A private 1-slot group tracking this subflow, re-synced on read —
     the single-path view a plain TCP controller sees. *)
  let own = Tcp.Cc.group_create 1 in
  let group () =
    own.Tcp.Cc.cwnds.(0) <- sub.cwnd;
    own.Tcp.Cc.srtts.(0) <- rtt_s;
    Tcp.Cc.group_set_established own 0 true;
    own
  in
  {
    Tcp.Cc.now_s = (fun () -> !now);
    mss;
    get_cwnd = (fun () -> sub.cwnd);
    set_cwnd = (fun w -> sub.cwnd <- Float.max 1.0 w);
    get_ssthresh = (fun () -> sub.ssthresh);
    set_ssthresh = (fun w -> sub.ssthresh <- Float.max 2.0 w);
    srtt_s = (fun () -> rtt_s);
    group;
    self_index = (fun () -> 0);
  }

let reno_slow_start () =
  let sub = { cwnd = 1.0; ssthresh = 64.0 } in
  let cc = Tcp.Cc_reno.factory (fake_ctx sub) in
  (* One MSS acked per segment: cwnd + 1 per ACK — doubling per RTT. *)
  cc.Tcp.Cc.on_ack ~acked:mss;
  Alcotest.(check (float 1e-9)) "after 1 ack" 2.0 sub.cwnd;
  cc.Tcp.Cc.on_ack ~acked:mss;
  cc.Tcp.Cc.on_ack ~acked:mss;
  Alcotest.(check (float 1e-9)) "after 3 acks" 4.0 sub.cwnd

let reno_slow_start_capped () =
  let sub = { cwnd = 9.5; ssthresh = 10.0 } in
  let cc = Tcp.Cc_reno.factory (fake_ctx sub) in
  cc.Tcp.Cc.on_ack ~acked:mss;
  Alcotest.(check (float 1e-9)) "capped at ssthresh" 10.0 sub.cwnd

let reno_congestion_avoidance () =
  let sub = { cwnd = 10.0; ssthresh = 5.0 } in
  let cc = Tcp.Cc_reno.factory (fake_ctx sub) in
  cc.Tcp.Cc.on_ack ~acked:mss;
  Alcotest.(check (float 1e-9)) "+1/cwnd" 10.1 sub.cwnd;
  (* A full window of ACKs adds ~1 MSS. *)
  let sub2 = { cwnd = 10.0; ssthresh = 5.0 } in
  let cc2 = Tcp.Cc_reno.factory (fake_ctx sub2) in
  for _ = 1 to 10 do cc2.Tcp.Cc.on_ack ~acked:mss done;
  Alcotest.(check bool) "about +1 per RTT" true
    (sub2.cwnd > 10.95 && sub2.cwnd < 11.05)

let reno_loss_halves () =
  let sub = { cwnd = 20.0; ssthresh = 100.0 } in
  let cc = Tcp.Cc_reno.factory (fake_ctx sub) in
  cc.Tcp.Cc.on_loss ();
  Alcotest.(check (float 1e-9)) "cwnd" 10.0 sub.cwnd;
  Alcotest.(check (float 1e-9)) "ssthresh" 10.0 sub.ssthresh;
  (* Floor at 2 MSS. *)
  let sub2 = { cwnd = 2.5; ssthresh = 100.0 } in
  let cc2 = Tcp.Cc_reno.factory (fake_ctx sub2) in
  cc2.Tcp.Cc.on_loss ();
  Alcotest.(check (float 1e-9)) "floor" 2.0 sub2.cwnd

let reno_rto_collapses () =
  let sub = { cwnd = 20.0; ssthresh = 100.0 } in
  let cc = Tcp.Cc_reno.factory (fake_ctx sub) in
  cc.Tcp.Cc.on_rto ();
  Alcotest.(check (float 1e-9)) "cwnd 1" 1.0 sub.cwnd;
  Alcotest.(check (float 1e-9)) "ssthresh half" 10.0 sub.ssthresh

let cubic_decrease () =
  let sub = { cwnd = 100.0; ssthresh = 1e9 } in
  let cc = Tcp.Cc_cubic.factory (fake_ctx sub) in
  cc.Tcp.Cc.on_loss ();
  Alcotest.(check (float 1e-6)) "beta = 0.7" 70.0 sub.cwnd

let cubic_regrows_toward_wmax () =
  let now = ref 0.0 in
  let sub = { cwnd = 100.0; ssthresh = 1e9 } in
  let ctx = fake_ctx ~now sub in
  let cc = Tcp.Cc_cubic.factory ctx in
  cc.Tcp.Cc.on_loss ();
  (* ssthresh is now 70, so we are in congestion avoidance. *)
  let prev = ref sub.cwnd in
  let monotone = ref true in
  for i = 1 to 2000 do
    now := float_of_int i *. 0.01;
    cc.Tcp.Cc.on_ack ~acked:mss;
    if sub.cwnd < !prev then monotone := false;
    prev := sub.cwnd
  done;
  Alcotest.(check bool) "grows monotonically" true !monotone;
  Alcotest.(check bool)
    (Printf.sprintf "passes w_max eventually (%.1f)" sub.cwnd)
    true (sub.cwnd > 100.0)

let cubic_concave_then_convex () =
  (* Drive a continuous ACK clock after a loss and compare window growth
     per fixed wall-time slice: CUBIC must grow fast initially, flatten
     in a plateau around w_max (t = K), then accelerate again. *)
  let now = ref 0.0 in
  let sub = { cwnd = 100.0; ssthresh = 1e9 } in
  let cc = Tcp.Cc_cubic.factory (fake_ctx ~now sub) in
  cc.Tcp.Cc.on_loss ();
  let snapshots = ref [] in
  let steps = 1200 in
  for i = 1 to steps do
    now := float_of_int i *. 0.01;
    cc.Tcp.Cc.on_ack ~acked:mss;
    if i mod 300 = 0 then snapshots := sub.cwnd :: !snapshots
  done;
  match List.rev !snapshots with
  | [ w3; w6; w9; w12 ] ->
    let g1 = w3 -. 70.0 and g2 = w6 -. w3 and g3 = w9 -. w6 in
    let g4 = w12 -. w9 in
    (* K = cbrt(30 / 0.4) ~ 4.2 s: the 3-6 s window straddles the
       plateau, so it must grow the least; the tail is convex. *)
    Alcotest.(check bool)
      (Printf.sprintf "concave: %.2f > %.2f" g1 g2)
      true (g1 > g2);
    Alcotest.(check bool)
      (Printf.sprintf "convex tail: %.2f > %.2f" g4 g3)
      true (g4 > g3)
  | _ -> Alcotest.fail "expected four snapshots"

(* --- wire harness: drive the sender by hand --- *)

type harness = {
  sched : Engine.Sched.t;
  sender : Tcp.Sender.t;
  mutable sent : Packet.t list; (* newest first *)
}

(* The hand-driven harness feeds ACKs without SACK blocks unless a test
   adds them ([ack_sack]): three duplicate ACKs alone start recovery. *)
let make_harness ?(config = Tcp.Sender.default_config) () =
  let sched = Engine.Sched.create () in
  let h = ref None in
  let ids = ref 0 in
  let sender =
    Tcp.Sender.create ~sched ~config ~conn:1 ~subflow:0 ~src:0 ~dst:1 ~tag:1
      ~fresh_id:(fun () -> incr ids; !ids)
      ~transmit:(fun p ->
        match !h with Some h -> h.sent <- p :: h.sent | None -> ())
      ~source:(fun ~max_len -> Some { Tcp.Sender.dss = None; len = max_len })
      ~cc:Tcp.Cc_reno.factory ()
  in
  let harness = { sched; sender; sent = [] } in
  h := Some harness;
  harness

let ack h ?(advance = ms 10) value =
  Engine.Sched.run ~until:(Engine.Time.add (Engine.Sched.now h.sched) advance)
    h.sched;
  Tcp.Sender.handle_ack h.sender
    {
      Packet.conn = 1; subflow = 0; kind = Packet.Ack; seq = 0; payload = 0;
      ack = value; sack = []; ece = false; dss = None; data_ack = 0;
    }

let seqs h =
  List.rev_map (fun p -> (Packet.tcp_exn p).Packet.seq) h.sent

let initial_window () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  Alcotest.(check int) "IW10 segments" 10 (List.length h.sent);
  Alcotest.(check (list int)) "sequential seqs"
    (List.init 10 (fun i -> i * mss))
    (seqs h);
  Alcotest.(check int) "in flight" (10 * mss)
    (Tcp.Sender.in_flight_bytes h.sender)

let ack_advances_and_grows () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  let before = List.length h.sent in
  ack h mss;
  (* Slow start: one ACK of one MSS grows cwnd by 1, freeing 2 slots. *)
  Alcotest.(check int) "two new segments" (before + 2) (List.length h.sent);
  Alcotest.(check (float 0.001)) "cwnd 11" 11.0 (Tcp.Sender.cwnd h.sender);
  Alcotest.(check int) "bytes acked" mss
    (Tcp.Sender.stats h.sender).Tcp.Sender.bytes_acked

let rtt_sampled_from_ack () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  ack h ~advance:(ms 42) mss;
  Alcotest.(check (option int)) "srtt from the wire" (Some (ms 42))
    (Tcp.Sender.srtt h.sender)

let fast_retransmit_on_3_dupacks () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  ack h mss;
  (* duplicate ACKs at the same level *)
  h.sent <- [];
  ack h mss;
  ack h mss;
  Alcotest.(check int) "no retransmit before 3" 0 (List.length h.sent);
  Alcotest.(check bool) "not yet recovering" false
    (Tcp.Sender.in_recovery h.sender);
  ack h mss;
  Alcotest.(check bool) "in recovery" true (Tcp.Sender.in_recovery h.sender);
  (* The first retransmission is the lost segment (seq = mss). *)
  (match List.rev h.sent with
  | p :: _ -> Alcotest.(check int) "retransmits snd_una" mss
                (Packet.tcp_exn p).Packet.seq
  | [] -> Alcotest.fail "expected a retransmission");
  Alcotest.(check int) "fast recovery counted" 1
    (Tcp.Sender.stats h.sender).Tcp.Sender.fast_recoveries;
  Alcotest.(check (float 0.01)) "window halved" 5.5 (Tcp.Sender.ssthresh h.sender)

let rto_fires_and_backs_off () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  (* No ACKs at all: initial RTO (1 s) must fire. *)
  h.sent <- [];
  Engine.Sched.run ~until:(Engine.Time.s 1) h.sched;
  Alcotest.(check int) "one timeout" 1
    (Tcp.Sender.stats h.sender).Tcp.Sender.timeouts;
  (* Go-back-N from snd_una with cwnd collapsed to 1. *)
  (match List.rev h.sent with
  | p :: _ -> Alcotest.(check int) "first segment resent" 0
                (Packet.tcp_exn p).Packet.seq
  | [] -> Alcotest.fail "expected an RTO retransmission");
  Alcotest.(check (float 0.001)) "cwnd 1" 1.0 (Tcp.Sender.cwnd h.sender);
  (* Second RTO after a doubled interval. *)
  Engine.Sched.run ~until:(Engine.Time.s 3) h.sched;
  Alcotest.(check int) "backoff doubled -> second timeout by 3 s" 2
    (Tcp.Sender.stats h.sender).Tcp.Sender.timeouts

let karn_no_sample_from_retx () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  Engine.Sched.run ~until:(Engine.Time.s 1) h.sched; (* RTO, segment resent *)
  ack h ~advance:(ms 5) mss;
  (* The only segment fully acked was retransmitted: Karn forbids the
     sample. *)
  Alcotest.(check (option int)) "no RTT sample" None (Tcp.Sender.srtt h.sender)

let source_refusal_stops_sending () =
  let sched = Engine.Sched.create () in
  let budget = ref 3 in
  let sent = ref 0 in
  let sender =
    Tcp.Sender.create ~sched ~config:Tcp.Sender.default_config ~conn:1
      ~subflow:0 ~src:0 ~dst:1 ~tag:1
      ~fresh_id:(fun () -> 0)
      ~transmit:(fun _ -> incr sent)
      ~source:(fun ~max_len ->
        if !budget = 0 then None
        else begin
          decr budget;
          Some { Tcp.Sender.dss = None; len = max_len }
        end)
      ~cc:Tcp.Cc_reno.factory ()
  in
  Tcp.Sender.kick sender;
  Alcotest.(check int) "only what the source grants" 3 !sent;
  budget := 2;
  Tcp.Sender.kick sender;
  Alcotest.(check int) "kick resumes" 5 !sent

(* --- SACK recovery --- *)

let ack_sack h ?(advance = ms 10) ~sack value =
  Engine.Sched.run ~until:(Engine.Time.add (Engine.Sched.now h.sched) advance)
    h.sched;
  Tcp.Sender.handle_ack h.sender
    {
      Packet.conn = 1; subflow = 0; kind = Packet.Ack; seq = 0; payload = 0;
      ack = value; sack; ece = false; dss = None; data_ack = 0;
    }

let sack_triggers_recovery_early () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  h.sent <- [];
  (* One duplicate ACK whose SACK blocks already cover three segments is
     dup-ACK-equivalent (RFC 6675): recovery starts at once and the first
     hole (seq 0) is retransmitted. *)
  ack_sack h ~sack:[ (mss, 4 * mss) ] 0;
  Alcotest.(check bool) "in recovery" true (Tcp.Sender.in_recovery h.sender);
  (match List.rev h.sent with
  | p :: _ ->
    Alcotest.(check int) "hole at 0 retransmitted" 0
      (Packet.tcp_exn p).Packet.seq
  | [] -> Alcotest.fail "expected a retransmission");
  Alcotest.(check int) "counted" 1
    (Tcp.Sender.stats h.sender).Tcp.Sender.fast_recoveries

let sack_pipe_releases_new_data () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender; (* segments 0..9 *)
  ack_sack h ~sack:[ (mss, 4 * mss) ] 0; (* recovery, cwnd 5 *)
  h.sent <- [];
  (* More SACKed data shrinks the pipe below cwnd: new data must flow
     even though the cumulative ACK is stuck. *)
  ack_sack h ~sack:[ (mss, 9 * mss) ] 0;
  Alcotest.(check bool) "new data sent" true (List.length h.sent >= 1);
  List.iter
    (fun p ->
      Alcotest.(check bool) "beyond old snd_max" true
        ((Packet.tcp_exn p).Packet.seq >= 10 * mss))
    h.sent

let sack_no_hole_re_retransmit () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  ack_sack h ~sack:[ (mss, 4 * mss) ] 0;
  h.sent <- [];
  (* The same SACK information again: the hole was already retransmitted
     in this recovery, so nothing (and certainly not seq 0) is resent. *)
  ack_sack h ~sack:[ (mss, 4 * mss) ] 0;
  List.iter
    (fun p ->
      Alcotest.(check bool) "no duplicate hole retransmit" true
        ((Packet.tcp_exn p).Packet.seq <> 0))
    h.sent

let sack_full_ack_exits () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  ack_sack h ~sack:[ (mss, 4 * mss) ] 0;
  ack_sack h ~sack:[] (11 * mss);
  Alcotest.(check bool) "recovered" false (Tcp.Sender.in_recovery h.sender)

let sack_partial_ack_stays_in_recovery () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender; (* 0..9 *)
  (* Segments 0 and 5 are missing: both are holes, resent at once. *)
  ack_sack h ~sack:[ (6 * mss, 10 * mss); (mss, 5 * mss) ] 0;
  let resent = List.filteri (fun i _ -> i >= 10) (seqs h) in
  Alcotest.(check bool) "both holes resent" true
    (List.mem 0 resent && List.mem (5 * mss) resent);
  h.sent <- [];
  (* The resent segment 0 fills the first hole: a partial ACK, below the
     recovery point (10 segments), so recovery goes on and the hole at 5,
     already resent, is not resent again. *)
  ack_sack h ~sack:[ (6 * mss, 10 * mss) ] (5 * mss);
  Alcotest.(check bool) "still recovering" true
    (Tcp.Sender.in_recovery h.sender);
  Alcotest.(check bool) "hole 5 not resent again" false
    (List.mem (5 * mss) (seqs h));
  ack_sack h ~sack:[] (10 * mss);
  Alcotest.(check bool) "full ACK exits" false
    (Tcp.Sender.in_recovery h.sender)

let sack_rto_skips_sacked () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender; (* 0..9 *)
  (* Receiver holds 1..8; segments 0 and 9 are missing. *)
  ack_sack h ~sack:[ (mss, 9 * mss) ] 0;
  h.sent <- [];
  (* Silence until the retransmission timer fires. *)
  Engine.Sched.run ~until:(Engine.Time.s 3) h.sched;
  Alcotest.(check bool) "timed out" true
    ((Tcp.Sender.stats h.sender).Tcp.Sender.timeouts >= 1);
  let resent =
    List.sort_uniq compare
      (List.map (fun p -> (Packet.tcp_exn p).Packet.seq) h.sent)
  in
  List.iter
    (fun seq ->
      Alcotest.(check bool)
        (Printf.sprintf "only the true holes resent (got seq %d)" seq)
        true
        (seq = 0 || seq = 9 * mss))
    resent;
  Alcotest.(check bool) "hole 0 resent" true (List.mem 0 resent)

(* Fuzz: the sender must preserve its invariants under ANY sequence of
   ACKs, duplicate ACKs, SACK blocks and timer advances the network
   could produce. *)
type fuzz_op = FAck of int | FDup | FSack of int * int | FTick of int

let gen_fuzz_ops =
  QCheck.Gen.(
    list_size (1 -- 60)
      (frequency
         [ (4, map (fun k -> FAck k) (1 -- 8));
           (3, return FDup);
           (2, map2 (fun a b -> FSack (a, b)) (0 -- 30) (1 -- 6));
           (2, map (fun t -> FTick t) (1 -- 400)) ]))

let qcheck_sender_fuzz name =
  QCheck.Test.make ~name ~count:300 (QCheck.make gen_fuzz_ops) (fun ops ->
      let h = make_harness () in
      Tcp.Sender.kick h.sender;
      let una = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | FAck k ->
            (* Cumulative ACK within the sent range. *)
            let target = !una + (k * mss) in
            let sent_hi =
              List.fold_left
                (fun acc p ->
                  let tcp = Packet.tcp_exn p in
                  max acc (tcp.Packet.seq + tcp.Packet.payload))
                0 h.sent
            in
            let a = min target sent_hi in
            if a > !una then begin
              una := a;
              ack h a
            end
            else ack h !una
          | FDup -> ack h !una
          | FSack (start_seg, len_segs) ->
            let s = !una + (start_seg * mss) in
            let e = s + (len_segs * mss) in
            ack_sack h ~sack:[ (s, e) ] !una
          | FTick t ->
            Engine.Sched.run
              ~until:(Engine.Time.add (Engine.Sched.now h.sched)
                        (Engine.Time.ms t))
              h.sched);
          let inflight = Tcp.Sender.in_flight_bytes h.sender in
          if Tcp.Sender.cwnd h.sender < 1.0 || inflight < 0 then ok := false)
        ops;
      !ok)

(* --- receiver --- *)

let make_receiver () =
  let sched = Engine.Sched.create () in
  let acks = ref [] in
  let sacks = ref [] in
  let delivered = ref [] in
  let r =
    Tcp.Receiver.create ~sched ~conn:1 ~subflow:0 ~addr:1 ~peer:0 ~tag:1
      ~fresh_id:(fun () -> 0)
      ~transmit:(fun p ->
        let tcp = Packet.tcp_exn p in
        acks := tcp.Packet.ack :: !acks;
        sacks := tcp.Packet.sack :: !sacks)
      ~on_deliver:(fun ~seq ~len ~dss:_ -> delivered := (seq, len) :: !delivered)
      ~data_ack:(fun () -> 0)
      ()
  in
  (r, acks, sacks, delivered)

let data_packet ~seq ~len =
  Packet.make_tcp ~id:0 ~src:0 ~dst:1 ~tag:1 ~born:0
    {
      Packet.conn = 1; subflow = 0; kind = Packet.Data; seq; payload = len;
      ack = 0; sack = []; ece = false; dss = None; data_ack = 0;
    }

(* --- ECN --- *)

let ecn_config = { Tcp.Sender.default_config with Tcp.Sender.ecn = true }

let ece_ack ?(ece = true) value =
  {
    Packet.conn = 1; subflow = 0; kind = Packet.Ack; seq = 0; payload = 0;
    ack = value; sack = []; ece; dss = None; data_ack = 0;
  }

let ecn_sender_marks_packets () =
  let h = make_harness ~config:ecn_config () in
  Tcp.Sender.kick h.sender;
  List.iter
    (fun p ->
      Alcotest.(check bool) "data is ECT" true (p.Packet.ecn = Packet.Ect))
    h.sent;
  let h2 = make_harness () in
  Tcp.Sender.kick h2.sender;
  List.iter
    (fun p ->
      Alcotest.(check bool) "default is Not-ECT" true
        (p.Packet.ecn = Packet.Not_ect))
    h2.sent

let ecn_echo_halves_once_per_window () =
  let h = make_harness ~config:ecn_config () in
  Tcp.Sender.kick h.sender;
  let before = Tcp.Sender.cwnd h.sender in
  Tcp.Sender.handle_ack h.sender (ece_ack mss);
  let after1 = Tcp.Sender.cwnd h.sender in
  Alcotest.(check bool)
    (Printf.sprintf "first ECE halves (%.1f -> %.1f)" before after1)
    true
    (after1 < before);
  (* A second ECE within the same window must NOT halve again. *)
  Tcp.Sender.handle_ack h.sender (ece_ack (2 * mss));
  Alcotest.(check (float 0.6)) "no double reaction" after1
    (Tcp.Sender.cwnd h.sender)

let ecn_ignored_when_disabled () =
  let h = make_harness () in
  Tcp.Sender.kick h.sender;
  let before = Tcp.Sender.cwnd h.sender in
  Tcp.Sender.handle_ack h.sender (ece_ack mss);
  Alcotest.(check bool) "grows despite stray ECE" true
    (Tcp.Sender.cwnd h.sender >= before)

let ecn_receiver_echoes_ce () =
  let eces = ref [] in
  let sched = Engine.Sched.create () in
  let r2 =
    Tcp.Receiver.create ~sched ~conn:1 ~subflow:0 ~addr:1 ~peer:0 ~tag:1
      ~fresh_id:(fun () -> 0)
      ~transmit:(fun p -> eces := (Packet.tcp_exn p).Packet.ece :: !eces)
      ~on_deliver:(fun ~seq:_ ~len:_ ~dss:_ -> ())
      ~data_ack:(fun () -> 0)
      ()
  in
  let marked = data_packet ~seq:0 ~len:mss in
  marked.Packet.ecn <- Packet.Ce;
  Tcp.Receiver.handle_data r2 marked;
  Tcp.Receiver.handle_data r2 (data_packet ~seq:mss ~len:mss);
  Alcotest.(check (list bool)) "CE echoed exactly once" [ true; false ]
    (List.rev !eces)

let receiver_in_order () =
  let r, acks, _, delivered = make_receiver () in
  Tcp.Receiver.handle_data r (data_packet ~seq:0 ~len:mss);
  Tcp.Receiver.handle_data r (data_packet ~seq:mss ~len:mss);
  Alcotest.(check int) "rcv_nxt" (2 * mss) (Tcp.Receiver.rcv_nxt r);
  Alcotest.(check (list int)) "cumulative acks" [ mss; 2 * mss ]
    (List.rev !acks);
  Alcotest.(check int) "both delivered" 2 (List.length !delivered)

let receiver_out_of_order () =
  let r, acks, _, delivered = make_receiver () in
  Tcp.Receiver.handle_data r (data_packet ~seq:mss ~len:mss);
  Alcotest.(check (list int)) "dup ack at 0" [ 0 ] (List.rev !acks);
  Alcotest.(check int) "nothing delivered" 0 (List.length !delivered);
  Alcotest.(check int) "buffered" 1 (Tcp.Receiver.out_of_order r);
  Tcp.Receiver.handle_data r (data_packet ~seq:0 ~len:mss);
  Alcotest.(check int) "gap filled" (2 * mss) (Tcp.Receiver.rcv_nxt r);
  Alcotest.(check (list (pair int int))) "in-order delivery"
    [ (0, mss); (mss, mss) ]
    (List.rev !delivered)

let receiver_duplicate () =
  let r, acks, _, _ = make_receiver () in
  Tcp.Receiver.handle_data r (data_packet ~seq:0 ~len:mss);
  Tcp.Receiver.handle_data r (data_packet ~seq:0 ~len:mss);
  Alcotest.(check int) "duplicate counted" 1 (Tcp.Receiver.duplicates r);
  Alcotest.(check (list int)) "dup re-acked" [ mss; mss ] (List.rev !acks)

let receiver_sack_blocks () =
  let r, _, sacks, _ = make_receiver () in
  Tcp.Receiver.handle_data r (data_packet ~seq:mss ~len:mss);
  Alcotest.(check (list (pair int int))) "first gap advertised"
    [ (mss, 2 * mss) ] (List.hd !sacks);
  Tcp.Receiver.handle_data r (data_packet ~seq:(3 * mss) ~len:mss);
  (* Newest block first (RFC 2018). *)
  Alcotest.(check (list (pair int int))) "newest first"
    [ (3 * mss, 4 * mss); (mss, 2 * mss) ] (List.hd !sacks);
  Tcp.Receiver.handle_data r (data_packet ~seq:(2 * mss) ~len:mss);
  Alcotest.(check (list (pair int int))) "blocks merge"
    [ (mss, 4 * mss) ] (List.hd !sacks);
  Tcp.Receiver.handle_data r (data_packet ~seq:0 ~len:mss);
  Alcotest.(check (list (pair int int))) "no blocks once contiguous" []
    (List.hd !sacks)

let receiver_sack_capped_at_three () =
  let r, _, sacks, _ = make_receiver () in
  (* Five separate gaps. *)
  List.iter
    (fun i -> Tcp.Receiver.handle_data r (data_packet ~seq:(2 * i * mss) ~len:mss))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "at most 3 blocks" 3 (List.length (List.hd !sacks))

let make_delack_receiver () =
  let sched = Engine.Sched.create () in
  let acks = ref [] in
  let r =
    Tcp.Receiver.create ~sched ~conn:1 ~subflow:0 ~addr:1 ~peer:0 ~tag:1
      ~fresh_id:(fun () -> 0)
      ~transmit:(fun p -> acks := (Packet.tcp_exn p).Packet.ack :: !acks)
      ~on_deliver:(fun ~seq:_ ~len:_ ~dss:_ -> ())
      ~data_ack:(fun () -> 0)
      ~delayed_ack:true ()
  in
  (sched, r, acks)

let delack_every_second_segment () =
  let _, r, acks = make_delack_receiver () in
  Tcp.Receiver.handle_data r (data_packet ~seq:0 ~len:mss);
  Alcotest.(check int) "first segment unacknowledged" 0 (List.length !acks);
  Tcp.Receiver.handle_data r (data_packet ~seq:mss ~len:mss);
  Alcotest.(check (list int)) "one ack for two segments" [ 2 * mss ] !acks;
  Alcotest.(check int) "counter" 1 (Tcp.Receiver.acks_sent r)

let delack_timer_fires () =
  let sched, r, acks = make_delack_receiver () in
  Tcp.Receiver.handle_data r (data_packet ~seq:0 ~len:mss);
  Engine.Sched.run ~until:(ms 100) sched;
  Alcotest.(check (list int)) "acked by the 40 ms timer" [ mss ] !acks

let delack_immediate_on_gap () =
  let _, r, acks = make_delack_receiver () in
  (* Out of order: the duplicate ACK must not be delayed. *)
  Tcp.Receiver.handle_data r (data_packet ~seq:mss ~len:mss);
  Alcotest.(check (list int)) "immediate dup ack" [ 0 ] !acks;
  (* Filling the gap must also be acknowledged at once. *)
  Tcp.Receiver.handle_data r (data_packet ~seq:0 ~len:mss);
  Alcotest.(check (list int)) "immediate on fill" [ 2 * mss; 0 ] !acks

let qcheck_receiver_permutation =
  QCheck.Test.make ~name:"receiver delivers in order under any arrival order"
    ~count:200
    QCheck.(list_of_size Gen.(2 -- 12) (int_bound 11))
    (fun order_hint ->
      (* Build a random permutation of 12 segments from the hint. *)
      let n = 12 in
      let order =
        List.sort_uniq compare order_hint
        @ List.filter
            (fun i -> not (List.mem i order_hint))
            (List.init n (fun i -> i))
      in
      let r, _, _, delivered = make_receiver () in
      List.iter
        (fun i -> Tcp.Receiver.handle_data r (data_packet ~seq:(i * mss) ~len:mss))
        order;
      let got = List.rev !delivered in
      Tcp.Receiver.rcv_nxt r = n * mss
      && got = List.init n (fun i -> (i * mss, mss)))

(* The receiver's out-of-order store against a model kept here: the
   map-based store it replaced (seq -> len, dss; a later segment at the
   same seq replaces the earlier one; drain delivers whole segments
   whose seq has been reached; the newest arrival's SACK block goes
   first).  Arrivals are random segments of 1-3 units at unit-aligned
   seqs, with and without DSS, so duplicates, overlaps and same-seq
   replacements all occur.  After every segment the ACK's SACK list
   and cumulative ACK must match the model's, and so must the whole
   delivery sequence. *)
module Ooo_model = struct
  module Imap = Map.Make (Int)

  type t = {
    mutable rcv_nxt : int;
    mutable ooo : (int * Packet.dss option) Imap.t;
    mutable last_sacked : int;
    mutable delivered : (int * int * Packet.dss option) list;
  }

  let create () =
    { rcv_nxt = 0; ooo = Imap.empty; last_sacked = -1; delivered = [] }

  let sack_blocks t =
    let ranges =
      Imap.fold
        (fun seq (len, _) acc ->
          match acc with
          | (s, e) :: rest when seq <= e -> (s, max e (seq + len)) :: rest
          | _ -> (seq, seq + len) :: acc)
        t.ooo []
      |> List.rev
    in
    let newest, others =
      List.partition (fun (s, e) -> s <= t.last_sacked && t.last_sacked < e)
        ranges
    in
    List.filteri (fun i _ -> i < Packet.max_sack_blocks) (newest @ others)

  let deliver t seq len dss =
    t.delivered <- (seq, len, dss) :: t.delivered;
    t.rcv_nxt <- seq + len

  let rec drain t =
    match Imap.min_binding_opt t.ooo with
    | Some (seq, (len, dss)) when seq <= t.rcv_nxt ->
      t.ooo <- Imap.remove seq t.ooo;
      if seq + len > t.rcv_nxt then deliver t seq len dss;
      drain t
    | Some _ | None -> ()

  (* The (ack, sack) of the ACK the segment triggers. *)
  let handle t ~seq ~len ~dss =
    if seq = t.rcv_nxt then begin
      deliver t seq len dss;
      drain t
    end
    else if seq > t.rcv_nxt then begin
      t.ooo <- Imap.add seq (len, dss) t.ooo;
      t.last_sacked <- seq
    end;
    (t.rcv_nxt, sack_blocks t)
end

let qcheck_receiver_vs_map_model =
  let unit = 100 in
  QCheck.Test.make ~name:"receiver out-of-order store matches a map model"
    ~count:500
    QCheck.(
      list_of_size Gen.(1 -- 60)
        (triple (int_bound 24) (int_range 1 3) (int_bound 5)))
    (fun arrivals ->
      let delivered = ref [] and last_ack = ref (0, []) in
      let r =
        Tcp.Receiver.create ~sched:(Engine.Sched.create ()) ~conn:1 ~subflow:0
          ~addr:1 ~peer:0 ~tag:1 ~fresh_id:(fun () -> 0)
          ~transmit:(fun p ->
            let tcp = Packet.tcp_exn p in
            last_ack := (tcp.Packet.ack, tcp.Packet.sack))
          ~on_deliver:(fun ~seq ~len ~dss ->
            delivered := (seq, len, dss) :: !delivered)
          ~data_ack:(fun () -> 0) ()
      in
      let m = Ooo_model.create () in
      List.for_all
        (fun (k, units, d) ->
          let seq = k * unit and len = units * unit in
          let dss =
            if d = 0 then None else Some { Packet.dseq = d * 1000; dlen = len }
          in
          Tcp.Receiver.handle_data r
            (Packet.make_tcp ~id:0 ~src:0 ~dst:1 ~tag:1 ~born:0
               {
                 Packet.conn = 1; subflow = 0; kind = Packet.Data; seq;
                 payload = len; ack = 0; sack = []; ece = false; dss;
                 data_ack = 0;
               });
          !last_ack = Ooo_model.handle m ~seq ~len ~dss
          && Tcp.Receiver.out_of_order r = Ooo_model.Imap.cardinal m.ooo)
        arrivals
      && !delivered = m.delivered)

(* --- end-to-end over the simulated network --- *)

let dumbbell ?(bottleneck = 40) () =
  let b = Netgraph.Topology.builder () in
  let a1 = Netgraph.Topology.add_node b "a1" in
  let a2 = Netgraph.Topology.add_node b "a2" in
  let l = Netgraph.Topology.add_node b "l" in
  let r = Netgraph.Topology.add_node b "r" in
  let z1 = Netgraph.Topology.add_node b "z1" in
  let z2 = Netgraph.Topology.add_node b "z2" in
  let link u v mbps =
    ignore
      (Netgraph.Topology.add_link b ~u ~v ~capacity_bps:(mb mbps)
         ~delay:(ms 2))
  in
  link a1 l 100;
  link a2 l 100;
  link l r bottleneck;
  link r z1 100;
  link r z2 100;
  (Netgraph.Topology.build b, a1, a2, z1, z2)

let delack_halves_ack_traffic () =
  (* End-to-end: delayed ACKs roughly halve the number of ACK packets
     without collapsing throughput. *)
  let run delayed_ack =
    let topo, a1, _, z1, _ = dumbbell () in
    let sched = Engine.Sched.create () in
    let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 2) topo in
    Netsim.Net.install_path net ~tag:1
      (Netgraph.Path.of_names topo [ "a1"; "l"; "r"; "z1" ]);
    let src = Tcp.Endpoint.create net ~node:a1 in
    let dst = Tcp.Endpoint.create net ~node:z1 in
    let flow = Tcp.Flow.start ~src ~dst ~tag:1 ~conn:1 ~delayed_ack () in
    (* Count ACK packets arriving back at the sender. *)
    let acks = ref 0 in
    Engine.Tap.subscribe (Netsim.Net.arrival_tap net ~node:a1) (fun p ->
        match p.Packet.body with
        | Packet.Tcp { kind = Packet.Ack; _ } -> incr acks
        | _ -> ());
    Engine.Sched.run ~until:(Engine.Time.s 4) sched;
    (!acks, Tcp.Flow.bytes_delivered flow)
  in
  let acks_per_seg, bytes_per_seg = run false in
  let acks_del, bytes_del = run true in
  Alcotest.(check bool)
    (Printf.sprintf "ack count drops (%d -> %d)" acks_per_seg acks_del)
    true
    (float_of_int acks_del < 0.7 *. float_of_int acks_per_seg);
  Alcotest.(check bool)
    (Printf.sprintf "throughput keeps up (%d vs %d bytes)" bytes_del
       bytes_per_seg)
    true
    (float_of_int bytes_del > 0.7 *. float_of_int bytes_per_seg)

let endpoint_counts_unmatched () =
  (* A TCP packet whose (conn, subflow) has no registered handler is a
     demux fault: counted, and handed to no handler. *)
  let topo, a1, _, z1, _ = dumbbell () in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 2) topo in
  Netsim.Net.install_path net ~tag:1
    (Netgraph.Path.of_names topo [ "a1"; "l"; "r"; "z1" ]);
  let dst = Tcp.Endpoint.create net ~node:z1 in
  let handled = ref 0 in
  Tcp.Endpoint.register dst ~conn:1 ~subflow:0 (fun _ -> incr handled);
  let send ~id ~conn ~subflow =
    Netsim.Net.inject net ~at:a1
      (Packet.make_tcp ~id ~src:a1 ~dst:z1 ~tag:1 ~born:0
         { Packet.conn; subflow; kind = Packet.Data; seq = 0; payload = 100;
           ack = 0; sack = []; ece = false; dss = None; data_ack = 0 })
  in
  send ~id:1 ~conn:1 ~subflow:0;
  send ~id:2 ~conn:1 ~subflow:1;
  send ~id:3 ~conn:2 ~subflow:0;
  Engine.Sched.run sched;
  Alcotest.(check int) "registered pair handled once" 1 !handled;
  Alcotest.(check int) "unregistered pairs counted" 2
    (Tcp.Endpoint.unmatched dst)

let ecn_end_to_end_fewer_drops () =
  (* CUBIC through an ECN-enabled RED bottleneck: throughput comparable,
     but congestion is signalled by marks, not drops. *)
  let run qdisc ecn =
    let topo, a1, _, z1, _ = dumbbell ~bottleneck:20 () in
    let sched = Engine.Sched.create () in
    let config = { Netsim.Net.qdisc; limit_pkts = 30;
                   delay_jitter = Engine.Time.zero } in
    let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 2) ~config topo in
    Netsim.Net.install_path net ~tag:1
      (Netgraph.Path.of_names topo [ "a1"; "l"; "r"; "z1" ]);
    let src = Tcp.Endpoint.create net ~node:a1 in
    let dst = Tcp.Endpoint.create net ~node:z1 in
    let sender_config = { Tcp.Sender.default_config with Tcp.Sender.ecn } in
    let flow = Tcp.Flow.start ~src ~dst ~tag:1 ~conn:1 ~config:sender_config () in
    Engine.Sched.run ~until:(Engine.Time.s 6) sched;
    let marked =
      Array.fold_left
        (fun acc (l : Netgraph.Topology.link) ->
          let st d = Netsim.Linkq.stats (Netsim.Net.linkq net ~link:l.Netgraph.Topology.id ~dir:d) in
          acc + (st Netsim.Net.Fwd).Netsim.Linkq.marked
          + (st Netsim.Net.Rev).Netsim.Linkq.marked)
        0
        (Netgraph.Topology.links topo)
    in
    (Tcp.Flow.bytes_delivered flow, Netsim.Net.total_drops net, marked)
  in
  let red = Netsim.Qdisc.Red Netsim.Qdisc.default_red in
  let red_ecn = Netsim.Qdisc.Red Netsim.Qdisc.default_red_ecn in
  let bytes_plain, drops_plain, marked_plain = run red false in
  let bytes_ecn, drops_ecn, marked_ecn = run red_ecn true in
  Alcotest.(check int) "no marks without ECN" 0 marked_plain;
  Alcotest.(check bool)
    (Printf.sprintf "ECN shifts congestion to marks (%d drops -> %d, %d marks)"
       drops_plain drops_ecn marked_ecn)
    true
    (marked_ecn > 0 && drops_ecn < drops_plain);
  Alcotest.(check bool)
    (Printf.sprintf "throughput holds (%.1f vs %.1f MB)"
       (float_of_int bytes_ecn /. 1e6)
       (float_of_int bytes_plain /. 1e6))
    true
    (float_of_int bytes_ecn > 0.7 *. float_of_int bytes_plain)

let single_flow_fills_bottleneck () =
  let topo, a1, _, z1, _ = dumbbell () in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 2) topo in
  Netsim.Net.install_path net ~tag:1
    (Netgraph.Path.of_names topo [ "a1"; "l"; "r"; "z1" ]);
  let src = Tcp.Endpoint.create net ~node:a1 in
  let dst = Tcp.Endpoint.create net ~node:z1 in
  let flow = Tcp.Flow.start ~src ~dst ~tag:1 ~conn:1 () in
  Engine.Sched.run ~until:(Engine.Time.s 6) sched;
  (* Steady goodput over the last 2 s must be near 40 Mbps * 1448/1500. *)
  let at4 = Tcp.Flow.bytes_delivered flow in
  Engine.Sched.run ~until:(Engine.Time.s 8) sched;
  let tail_mbps =
    float_of_int ((Tcp.Flow.bytes_delivered flow - at4) * 8) /. 2.0 /. 1e6
  in
  Alcotest.(check bool)
    (Printf.sprintf "tail goodput %.1f in [34, 38.6]" tail_mbps)
    true
    (tail_mbps > 34.0 && tail_mbps <= 38.7)

let two_flows_share_fairly () =
  let topo, a1, a2, z1, z2 = dumbbell () in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 2) topo in
  Netsim.Net.install_path net ~tag:1
    (Netgraph.Path.of_names topo [ "a1"; "l"; "r"; "z1" ]);
  Netsim.Net.install_path net ~tag:2
    (Netgraph.Path.of_names topo [ "a2"; "l"; "r"; "z2" ]);
  let s1 = Tcp.Endpoint.create net ~node:a1 in
  let s2 = Tcp.Endpoint.create net ~node:a2 in
  let d1 = Tcp.Endpoint.create net ~node:z1 in
  let d2 = Tcp.Endpoint.create net ~node:z2 in
  let f1 = Tcp.Flow.start ~src:s1 ~dst:d1 ~tag:1 ~conn:1 () in
  let f2 = Tcp.Flow.start ~src:s2 ~dst:d2 ~tag:2 ~conn:2 () in
  Engine.Sched.run ~until:(Engine.Time.s 10) sched;
  let b1 = float_of_int (Tcp.Flow.bytes_delivered f1) in
  let b2 = float_of_int (Tcp.Flow.bytes_delivered f2) in
  let jain = Measure.Converge.jain_fairness [| b1; b2 |] in
  Alcotest.(check bool)
    (Printf.sprintf "fair share (jain %.3f)" jain)
    true (jain > 0.9);
  let total_mbps = (b1 +. b2) *. 8.0 /. 10.0 /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "bottleneck used (%.1f Mbps)" total_mbps)
    true (total_mbps > 30.0)

let bounded_transfer_completes () =
  let topo, a1, _, z1, _ = dumbbell () in
  let sched = Engine.Sched.create () in
  let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 2) topo in
  Netsim.Net.install_path net ~tag:1
    (Netgraph.Path.of_names topo [ "a1"; "l"; "r"; "z1" ]);
  let src = Tcp.Endpoint.create net ~node:a1 in
  let dst = Tcp.Endpoint.create net ~node:z1 in
  let flow = Tcp.Flow.start ~src ~dst ~tag:1 ~conn:1 ~total_bytes:500_000 () in
  Engine.Sched.run ~until:(Engine.Time.s 5) sched;
  Alcotest.(check int) "exact bytes delivered" 500_000
    (Tcp.Flow.bytes_delivered flow);
  match Tcp.Flow.completed_at flow with
  | Some t ->
    (* The raw transfer is ~0.1 s at 40 Mbps, but the initial slow-start
       overshoot costs a multi-RTT recovery, so allow a couple of
       seconds. *)
    Alcotest.(check bool) "finished within 3 s" true (t < Engine.Time.s 3)
  | None -> Alcotest.fail "transfer never completed"

let reno_vs_cubic_throughput () =
  (* Both should fill the pipe; CUBIC should not be slower in steady
     state on this short-RTT path. *)
  let run cc =
    let topo, a1, _, z1, _ = dumbbell () in
    let sched = Engine.Sched.create () in
    let net = Netsim.Net.create ~sched ~rng:(Engine.Rng.create 2) topo in
    Netsim.Net.install_path net ~tag:1
      (Netgraph.Path.of_names topo [ "a1"; "l"; "r"; "z1" ]);
    let src = Tcp.Endpoint.create net ~node:a1 in
    let dst = Tcp.Endpoint.create net ~node:z1 in
    let flow = Tcp.Flow.start ~src ~dst ~tag:1 ~conn:1 ~cc () in
    Engine.Sched.run ~until:(Engine.Time.s 8) sched;
    float_of_int (Tcp.Flow.bytes_delivered flow)
  in
  let reno = run Tcp.Cc_reno.factory in
  let cubic = run Tcp.Cc_cubic.factory in
  Alcotest.(check bool)
    (Printf.sprintf "both near capacity (reno %.1f MB, cubic %.1f MB)"
       (reno /. 1e6) (cubic /. 1e6))
    true
    (reno > 25e6 && cubic > 25e6)

(* --- Scoreboard edge cases --- *)

module Sb = Tcp.Scoreboard

let sb_append sb ~seq ~len = ignore (Sb.append sb ~seq ~len ~dss:None : int)

(* Cumulative ACK lands in the middle of a partially-SACKed range: the
   front drop must take the SACKed segment's flag out of the O(1)
   counter while leaving the later SACK standing. *)
let scoreboard_front_drop_partial_sack () =
  let sb = Sb.create () in
  for i = 0 to 4 do
    sb_append sb ~seq:(i * 100) ~len:100
  done;
  ignore (Sb.mark_sacked sb (Sb.idx sb 1) : bool);
  ignore (Sb.mark_sacked sb (Sb.idx sb 3) : bool);
  Sb.mark_lost sb (Sb.idx sb 0);
  Alcotest.(check int) "sacked before" 2 (Sb.sacked_count sb);
  Alcotest.(check int) "pipe before" 200 (Sb.pipe_recount sb);
  (* ACK to 200: segment 0 (lost) and segment 1 (SACKed) leave the ring *)
  Sb.pop_front sb;
  Sb.pop_front sb;
  Alcotest.(check int) "length" 3 (Sb.length sb);
  Alcotest.(check int) "sacked after" 1 (Sb.sacked_count sb);
  Alcotest.(check int) "front seq" 200 (Sb.seq_at sb (Sb.idx sb 0));
  Alcotest.(check bool) "surviving SACK kept" true
    (Sb.sacked_at sb (Sb.idx sb 1));
  Alcotest.(check int) "pipe after" 200 (Sb.pipe_recount sb);
  Alcotest.(check bool) "consistent" true (Sb.consistent sb)

(* Fill the ring to its initial capacity, drain the front, refill: the
   tail wraps around the physical end while the searches and the
   consistency recount keep working; one more append then grows and
   re-bases a wrapped ring. *)
let scoreboard_wraparound () =
  let sb = Sb.create () in
  let next = ref 0 in
  let append_one () =
    sb_append sb ~seq:!next ~len:10;
    next := !next + 10
  in
  for _ = 1 to 64 do
    append_one ()
  done;
  for _ = 1 to 40 do
    Sb.pop_front sb
  done;
  for _ = 1 to 40 do
    append_one ()
  done;
  (* 64 live segments, physically wrapped *)
  Alcotest.(check int) "length at capacity" 64 (Sb.length sb);
  Alcotest.(check bool) "consistent wrapped" true (Sb.consistent sb);
  Alcotest.(check int) "front" 400 (Sb.seq_at sb (Sb.idx sb 0));
  Alcotest.(check int) "back" 1030 (Sb.seq_at sb (Sb.idx sb 63));
  Alcotest.(check int) "lower_bound across the seam" 30
    (Sb.lower_bound sb 700);
  let f = Sb.find sb 900 in
  Alcotest.(check bool) "find lands" true (f >= 0);
  Alcotest.(check int) "find exact" 900 (Sb.seq_at sb f);
  (* growth re-bases the wrapped ring *)
  append_one ();
  Alcotest.(check int) "length after growth" 65 (Sb.length sb);
  Alcotest.(check bool) "consistent after growth" true (Sb.consistent sb);
  Alcotest.(check int) "front preserved" 400 (Sb.seq_at sb (Sb.idx sb 0));
  Alcotest.(check int) "back preserved" 1040 (Sb.seq_at sb (Sb.idx sb 64));
  Alcotest.(check int) "end_seq" 1050 (Sb.end_seq sb)

(* A popped slot's physical cell is reused by a later append once the
   tail wraps to it: none of the old segment's state (SACK, loss, retx
   count, timestamps) may leak into the new occupant. *)
let scoreboard_pop_then_reuse () =
  let sb = Sb.create () in
  for i = 0 to 63 do
    sb_append sb ~seq:(i * 10) ~len:10
  done;
  (* decorate physical slot 0 heavily, then free it *)
  let p0 = Sb.idx sb 0 in
  ignore (Sb.mark_sacked sb p0 : bool);
  Sb.mark_lost sb p0;
  Sb.incr_retx sb p0;
  Sb.incr_retx sb p0;
  Sb.set_sent_at sb p0 (Engine.Time.ms 123);
  Sb.set_epoch sb p0 7;
  Sb.pop_front sb;
  (* tail is at capacity, so this append wraps into the freed cell *)
  sb_append sb ~seq:640 ~len:10;
  let fresh = Sb.idx sb 63 in
  Alcotest.(check int) "reused cell holds the new segment" 640
    (Sb.seq_at sb fresh);
  Alcotest.(check bool) "no stale SACK" false (Sb.sacked_at sb fresh);
  Alcotest.(check bool) "no stale loss" false (Sb.lost_at sb fresh);
  Alcotest.(check int) "no stale retx count" 0 (Sb.retx_at sb fresh);
  Alcotest.(check bool) "no stale send time" true
    (Sb.sent_at sb fresh = Engine.Time.zero);
  Alcotest.(check int) "sacked counter clean" 0 (Sb.sacked_count sb);
  Alcotest.(check bool) "consistent" true (Sb.consistent sb)

let () =
  Alcotest.run "tcp"
    [
      ( "rtt",
        [
          Alcotest.test_case "first sample" `Quick rtt_first_sample;
          Alcotest.test_case "RFC 6298 smoothing" `Quick rtt_smoothing;
          Alcotest.test_case "200 ms floor" `Quick rtt_min_rto;
          Alcotest.test_case "exponential backoff" `Quick rtt_backoff;
          Alcotest.test_case "max cap" `Quick rtt_max_cap;
        ] );
      ( "cc-unit",
        [
          Alcotest.test_case "reno slow start" `Quick reno_slow_start;
          Alcotest.test_case "slow start capped at ssthresh" `Quick
            reno_slow_start_capped;
          Alcotest.test_case "reno congestion avoidance" `Quick
            reno_congestion_avoidance;
          Alcotest.test_case "reno halves on loss" `Quick reno_loss_halves;
          Alcotest.test_case "reno collapses on RTO" `Quick reno_rto_collapses;
          Alcotest.test_case "cubic beta decrease" `Quick cubic_decrease;
          Alcotest.test_case "cubic regrows past w_max" `Quick
            cubic_regrows_toward_wmax;
          Alcotest.test_case "cubic concave then convex" `Quick
            cubic_concave_then_convex;
        ] );
      ( "sender",
        [
          Alcotest.test_case "initial window" `Quick initial_window;
          Alcotest.test_case "ACK advances and grows" `Quick
            ack_advances_and_grows;
          Alcotest.test_case "RTT sampled" `Quick rtt_sampled_from_ack;
          Alcotest.test_case "fast retransmit at 3 dupacks" `Quick
            fast_retransmit_on_3_dupacks;
          Alcotest.test_case "RTO fires and backs off" `Quick
            rto_fires_and_backs_off;
          Alcotest.test_case "Karn: no sample from retransmits" `Quick
            karn_no_sample_from_retx;
          Alcotest.test_case "source refusal pauses the sender" `Quick
            source_refusal_stops_sending;
        ] );
      ( "sack",
        [
          Alcotest.test_case "dup-ACK-equivalent entry" `Quick
            sack_triggers_recovery_early;
          Alcotest.test_case "pipe releases new data" `Quick
            sack_pipe_releases_new_data;
          Alcotest.test_case "holes retransmitted once per recovery" `Quick
            sack_no_hole_re_retransmit;
          Alcotest.test_case "full ACK exits recovery" `Quick
            sack_full_ack_exits;
          Alcotest.test_case "partial ACK stays in recovery" `Quick
            sack_partial_ack_stays_in_recovery;
          Alcotest.test_case "RTO resends only true holes" `Quick
            sack_rto_skips_sacked;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest
            (qcheck_sender_fuzz "sender survives arbitrary SACK streams");
        ] );
      ( "ecn",
        [
          Alcotest.test_case "sender marks data ECT" `Quick
            ecn_sender_marks_packets;
          Alcotest.test_case "ECE halves once per window" `Quick
            ecn_echo_halves_once_per_window;
          Alcotest.test_case "ignored when disabled" `Quick
            ecn_ignored_when_disabled;
          Alcotest.test_case "receiver echoes CE once" `Quick
            ecn_receiver_echoes_ce;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "unregistered pair counted, not handled" `Quick
            endpoint_counts_unmatched;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "in-order" `Quick receiver_in_order;
          Alcotest.test_case "SACK block generation" `Quick
            receiver_sack_blocks;
          Alcotest.test_case "SACK blocks capped at 3" `Quick
            receiver_sack_capped_at_three;
          Alcotest.test_case "out-of-order buffered" `Quick
            receiver_out_of_order;
          Alcotest.test_case "duplicates re-acked" `Quick receiver_duplicate;
          QCheck_alcotest.to_alcotest qcheck_receiver_permutation;
          Alcotest.test_case "delayed ACK: every 2nd segment" `Quick
            delack_every_second_segment;
          Alcotest.test_case "delayed ACK: 40 ms timer" `Quick
            delack_timer_fires;
          Alcotest.test_case "delayed ACK: immediate on gap" `Quick
            delack_immediate_on_gap;
          QCheck_alcotest.to_alcotest qcheck_receiver_vs_map_model;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "single flow fills the bottleneck" `Quick
            single_flow_fills_bottleneck;
          Alcotest.test_case "two flows share fairly" `Quick
            two_flows_share_fairly;
          Alcotest.test_case "bounded transfer completes" `Quick
            bounded_transfer_completes;
          Alcotest.test_case "reno and cubic both fill the pipe" `Quick
            reno_vs_cubic_throughput;
          Alcotest.test_case "delayed ACK halves ACK traffic" `Quick
            delack_halves_ack_traffic;
          Alcotest.test_case "ECN: marks replace drops" `Quick
            ecn_end_to_end_fewer_drops;
        ] );
      ( "scoreboard",
        [
          Alcotest.test_case "front drop of partially-SACKed range" `Quick
            scoreboard_front_drop_partial_sack;
          Alcotest.test_case "ring wraparound at capacity" `Quick
            scoreboard_wraparound;
          Alcotest.test_case "freed slot reused clean" `Quick
            scoreboard_pop_then_reuse;
        ] );
    ]
