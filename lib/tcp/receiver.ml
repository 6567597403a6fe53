type t = {
  sched : Engine.Sched.t;
  conn : int;
  subflow : int;
  addr : Packet.addr;
  peer : Packet.addr;
  tag : Packet.tag;
  fresh_id : unit -> int;
  transmit : Packet.t -> unit;
  pool : Packet.Pool.t option;
  on_deliver : seq:int -> len:int -> dss:Packet.dss option -> unit;
  data_ack : unit -> int;
  delayed_ack : bool;
  mutable pending_segs : int; (* in-order segments not yet acknowledged *)
  ack_timer : Engine.Sched.timer; (* delayed ACK, one handle for life *)
  mutable acks_sent : int;
  mutable rcv_nxt : int;
  (* Out-of-order segments, sorted by seq, at indices [ooo_lo, ooo_hi)
     of parallel int arrays: seq, len and the DSS as two ints plus a
     flag.  At most one segment per seq (a later arrival replaces an
     earlier one), so they sort as a map would. *)
  mutable o_seq : int array;
  mutable o_len : int array;
  mutable o_dseq : int array;
  mutable o_dlen : int array;
  mutable o_has_dss : bool array;
  mutable ooo_lo : int;
  mutable ooo_hi : int;
  mutable last_sacked : int; (* start of the block holding the newest arrival *)
  mutable ce_pending : bool; (* echo Congestion Experienced on the next ACK *)
  mutable duplicates : int;
  mutable delivered : int; (* segments handed to [on_deliver] *)
  (* The out-of-order store merged into byte ranges (segments that
     overlap or touch share one), ascending at indices [0, r_n): kept as
     segments are buffered, replaced and drained, so an ACK's SACK
     blocks cost O(ranges), not a merge of the whole store. *)
  mutable r_start : int array;
  mutable r_end : int array;
  mutable r_n : int;
  tap : event Engine.Tap.t;
}

and event = Delivered of { seq : int; len : int }

(* Delayed-ACK timeout, the Linux quick-ack ballpark. *)
let ack_delay = Engine.Time.ms 40

(* Room for one more range at the top. *)
let grow_ranges t =
  let cap = 2 * Array.length t.r_start in
  let widen a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.r_n; b in
  t.r_start <- widen t.r_start;
  t.r_end <- widen t.r_end

(* Merge [s, e) into the ranges: it joins every range it overlaps or
   touches, else it becomes a range of its own.  Segments mostly extend
   the highest range, so the search runs down from the top. *)
let add_range t s e =
  let lo = ref t.r_n in
  while !lo > 0 && t.r_end.(!lo - 1) >= s do
    decr lo
  done;
  let lo = !lo in
  let hi = ref lo in
  while !hi < t.r_n && t.r_start.(!hi) <= e do
    incr hi
  done;
  let hi = !hi in
  if lo = hi then begin
    if t.r_n = Array.length t.r_start then grow_ranges t;
    Array.blit t.r_start lo t.r_start (lo + 1) (t.r_n - lo);
    Array.blit t.r_end lo t.r_end (lo + 1) (t.r_n - lo);
    t.r_start.(lo) <- s;
    t.r_end.(lo) <- e;
    t.r_n <- t.r_n + 1
  end
  else begin
    t.r_start.(lo) <- Int.min s t.r_start.(lo);
    t.r_end.(lo) <- Int.max e t.r_end.(hi - 1);
    let gone = hi - lo - 1 in
    if gone > 0 then begin
      Array.blit t.r_start hi t.r_start (lo + 1) (t.r_n - hi);
      Array.blit t.r_end hi t.r_end (lo + 1) (t.r_n - hi);
      t.r_n <- t.r_n - gone
    end
  end

(* Rebuild the ranges from the store, adding the segments in seq
   order.  Only a same-seq replacement by a shorter segment needs it,
   since that can shrink a range or split it. *)
let rebuild_ranges t =
  t.r_n <- 0;
  for i = t.ooo_lo to t.ooo_hi - 1 do
    add_range t t.o_seq.(i) (t.o_seq.(i) + t.o_len.(i))
  done

(* Up to [Packet.max_sack_blocks] ranges, the one holding the newest
   arrival first (RFC 2018 section 4), then the rest in order.  The
   common case — no out-of-order data — returns the shared empty list;
   otherwise only the (bounded) result list is allocated. *)
let sack_blocks t =
  if t.r_n = 0 then []
  else begin
    let newest = ref (-1) in
    for i = 0 to t.r_n - 1 do
      if t.r_start.(i) <= t.last_sacked && t.last_sacked < t.r_end.(i) then
        newest := i
    done;
    let blocks = ref [] and count = ref 0 in
    let add i =
      if !count < Packet.max_sack_blocks then begin
        blocks := (t.r_start.(i), t.r_end.(i)) :: !blocks;
        incr count
      end
    in
    if !newest >= 0 then add !newest;
    for i = 0 to t.r_n - 1 do
      if i <> !newest then add i
    done;
    List.rev !blocks
  end

let send_ack_now t =
  t.pending_segs <- 0;
  let ece = t.ce_pending in
  t.ce_pending <- false;
  Engine.Sched.cancel t.ack_timer;
  t.acks_sent <- t.acks_sent + 1;
  let p =
    Packet.Pool.acquire_tcp ?pool:t.pool ~id:(t.fresh_id ()) ~src:t.addr
      ~dst:t.peer ~tag:t.tag ~born:(Engine.Sched.now t.sched) ~conn:t.conn
      ~subflow:t.subflow ~kind:Packet.Ack ~seq:0 ~payload:0 ~ack:t.rcv_nxt
      ~sack:(sack_blocks t) ~ece ~dss:None ~data_ack:(t.data_ack ()) ()
  in
  t.transmit p

let create ~sched ~conn ~subflow ~addr ~peer ~tag ~fresh_id ~transmit ?pool
    ~on_deliver ~data_ack ?(delayed_ack = false) () =
  let fire_ack = ref ignore in
  let t =
    { sched; conn; subflow; addr; peer; tag; fresh_id; transmit; pool;
      on_deliver; data_ack; delayed_ack; pending_segs = 0;
      ack_timer = Engine.Sched.idle_timer sched (fun () -> !fire_ack ());
      acks_sent = 0; rcv_nxt = 0;
      o_seq = [||]; o_len = [||]; o_dseq = [||]; o_dlen = [||];
      o_has_dss = [||]; ooo_lo = 0; ooo_hi = 0;
      last_sacked = -1; ce_pending = false; duplicates = 0; delivered = 0;
      r_start = Array.make 4 0; r_end = Array.make 4 0; r_n = 0;
      tap = Engine.Tap.create () }
  in
  fire_ack := (fun () -> if t.pending_segs > 0 then send_ack_now t);
  t

(* Delayed-ACK policy: an immediate ACK for anything out of the ordinary
   (gap, duplicate), otherwise at most one unacknowledged segment. *)
let ack_for_in_order t =
  if not t.delayed_ack then send_ack_now t
  else begin
    t.pending_segs <- t.pending_segs + 1;
    if t.pending_segs >= 2 then send_ack_now t
    else if not (Engine.Sched.pending t.ack_timer) then
      Engine.Sched.rearm_after t.ack_timer ack_delay
  end

(* Room for one more segment at [ooo_hi]: slide the live range down to
   index 0 when drained segments left space at the front, else double
   the arrays. *)
let make_room t =
  let n = t.ooo_hi - t.ooo_lo and cap = Array.length t.o_seq in
  if t.ooo_lo > 0 then begin
    let slide a = Array.blit a t.ooo_lo a 0 n in
    slide t.o_seq; slide t.o_len; slide t.o_dseq; slide t.o_dlen;
    Array.blit t.o_has_dss t.ooo_lo t.o_has_dss 0 n
  end
  else begin
    let cap = max 16 (2 * cap) in
    let widen a = let b = Array.make cap 0 in Array.blit a 0 b 0 n; b in
    t.o_seq <- widen t.o_seq;
    t.o_len <- widen t.o_len;
    t.o_dseq <- widen t.o_dseq;
    t.o_dlen <- widen t.o_dlen;
    let b = Array.make cap false in
    Array.blit t.o_has_dss 0 b 0 n;
    t.o_has_dss <- b
  end;
  t.ooo_lo <- 0;
  t.ooo_hi <- n

(* Buffer an out-of-order segment in seq order: a binary search finds
   its place, and a segment already at [seq] is replaced.  The ranges
   follow: the new segment joins them, unless it replaced a longer one,
   which can leave a gap. *)
let buffer t ~seq ~len ~dss =
  if t.ooo_hi = Array.length t.o_seq then make_room t;
  let a = ref t.ooo_lo and b = ref t.ooo_hi in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if t.o_seq.(mid) < seq then a := mid + 1 else b := mid
  done;
  let i = !a in
  let shrunk = i < t.ooo_hi && t.o_seq.(i) = seq && t.o_len.(i) > len in
  if i = t.ooo_hi then t.ooo_hi <- i + 1 (* the commonest: above all *)
  else if t.o_seq.(i) <> seq then begin
    let shift a = Array.blit a i a (i + 1) (t.ooo_hi - i) in
    shift t.o_seq; shift t.o_len; shift t.o_dseq; shift t.o_dlen;
    Array.blit t.o_has_dss i t.o_has_dss (i + 1) (t.ooo_hi - i);
    t.ooo_hi <- t.ooo_hi + 1
  end;
  t.o_seq.(i) <- seq;
  t.o_len.(i) <- len;
  if shrunk then rebuild_ranges t else add_range t seq (seq + len);
  match dss with
  | Some { Packet.dseq; dlen } ->
    t.o_dseq.(i) <- dseq;
    t.o_dlen.(i) <- dlen;
    t.o_has_dss.(i) <- true
  | None -> t.o_has_dss.(i) <- false

(* Deliver the buffered segments that [rcv_nxt] has reached, lowest seq
   first, each whole with its original (seq, len, dss); one that lies
   wholly below [rcv_nxt] is dropped.  [rcv_nxt] ends at the highest
   end delivered, so a drain takes whole ranges: every one that starts
   at or below the new [rcv_nxt], and no other. *)
let rec drain_segments t =
  let i = t.ooo_lo in
  if i < t.ooo_hi && t.o_seq.(i) <= t.rcv_nxt then begin
    let seq = t.o_seq.(i) and len = t.o_len.(i) in
    t.ooo_lo <- i + 1;
    if t.ooo_lo = t.ooo_hi then begin
      t.ooo_lo <- 0;
      t.ooo_hi <- 0
    end;
    if seq + len > t.rcv_nxt then begin
      let dss =
        if t.o_has_dss.(i) then
          Some { Packet.dseq = t.o_dseq.(i); dlen = t.o_dlen.(i) }
        else None
      in
      t.on_deliver ~seq ~len ~dss;
      t.rcv_nxt <- seq + len;
      t.delivered <- t.delivered + 1;
      if Array.length t.tap.Engine.Tap.subs > 0 then
        Engine.Tap.emit t.tap (Delivered { seq; len })
    end;
    drain_segments t
  end

let drain t =
  drain_segments t;
  let k = ref 0 in
  while !k < t.r_n && t.r_start.(!k) <= t.rcv_nxt do
    incr k
  done;
  let k = !k in
  if k > 0 then begin
    Array.blit t.r_start k t.r_start 0 (t.r_n - k);
    Array.blit t.r_end k t.r_end 0 (t.r_n - k);
    t.r_n <- t.r_n - k
  end

let handle_data t p =
  let tcp = Packet.tcp_exn p in
  if p.Packet.ecn = Packet.Ce then t.ce_pending <- true;
  let seq = tcp.Packet.seq and len = tcp.Packet.payload in
  if len > 0 then
    if seq = t.rcv_nxt then begin
      t.on_deliver ~seq ~len ~dss:tcp.Packet.dss;
      t.rcv_nxt <- seq + len;
      t.delivered <- t.delivered + 1;
      if Array.length t.tap.Engine.Tap.subs > 0 then
        Engine.Tap.emit t.tap (Delivered { seq; len });
      let had_gap = t.ooo_lo < t.ooo_hi in
      drain t;
      (* Filling a gap must be acknowledged at once so the sender exits
         recovery promptly. *)
      if had_gap then send_ack_now t else ack_for_in_order t
    end
    else if seq > t.rcv_nxt then begin
      buffer t ~seq ~len ~dss:tcp.Packet.dss;
      t.last_sacked <- seq;
      send_ack_now t
    end
    else begin
      t.duplicates <- t.duplicates + 1;
      send_ack_now t
    end
  else send_ack_now t

let acks_sent t = t.acks_sent
let rcv_nxt t = t.rcv_nxt
let tap t = t.tap
let out_of_order t = t.ooo_hi - t.ooo_lo
let duplicates t = t.duplicates
let delivered t = t.delivered
