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
  mutable ack_timer : Engine.Sched.timer option;
  mutable ack_thunk : unit -> unit;
      (* delayed-ACK fire action, built once on first arm rather than a
         fresh closure per armed timer *)
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
  (* scratch for sack_blocks: merged ranges as parallel arrays, reused
     across calls so range merging allocates nothing *)
  mutable scratch_s : int array;
  mutable scratch_e : int array;
  mutable scratch_n : int;
  tap : event Engine.Tap.t;
}

and event = Delivered of { seq : int; len : int }

(* Not-yet-built sentinel for the cached delayed-ACK thunk.  A
   module-level closure has one stable identity; [ignore] does not — it
   is the primitive [%ignore], eta-expanded to a distinct closure at
   every use site, so [t.ack_thunk == ignore] would never be true and
   the timer would fire the sentinel no-op forever. *)
let unarmed () = ()

(* Delayed-ACK timeout, the Linux quick-ack ballpark. *)
let ack_delay = Engine.Time.ms 40

let create ~sched ~conn ~subflow ~addr ~peer ~tag ~fresh_id ~transmit ?pool
    ~on_deliver ~data_ack ?(delayed_ack = false) () =
  { sched; conn; subflow; addr; peer; tag; fresh_id; transmit; pool;
    on_deliver; data_ack; delayed_ack; pending_segs = 0;
    ack_timer = None; ack_thunk = unarmed; acks_sent = 0; rcv_nxt = 0;
    o_seq = [||]; o_len = [||]; o_dseq = [||]; o_dlen = [||];
    o_has_dss = [||]; ooo_lo = 0; ooo_hi = 0;
    last_sacked = -1; ce_pending = false; duplicates = 0; delivered = 0;
    scratch_s = Array.make 16 0; scratch_e = Array.make 16 0; scratch_n = 0;
    tap = Engine.Tap.create () }

let scratch_push t s e =
  if t.scratch_n = Array.length t.scratch_s then begin
    let cap = 2 * t.scratch_n in
    let ns = Array.make cap 0 and ne = Array.make cap 0 in
    Array.blit t.scratch_s 0 ns 0 t.scratch_n;
    Array.blit t.scratch_e 0 ne 0 t.scratch_n;
    t.scratch_s <- ns;
    t.scratch_e <- ne
  end;
  t.scratch_s.(t.scratch_n) <- s;
  t.scratch_e.(t.scratch_n) <- e;
  t.scratch_n <- t.scratch_n + 1

(* Merge the out-of-order store into contiguous byte ranges and emit up
   to [Packet.max_sack_blocks], the block containing the newest arrival
   first (RFC 2018 section 4).  The common case — no out-of-order data —
   returns the shared empty list; otherwise one pass over the sorted
   store merges the ranges on the receiver's scratch arrays and only
   the (bounded) result list is allocated. *)
let sack_blocks t =
  if t.ooo_lo = t.ooo_hi then []
  else begin
    t.scratch_n <- 0;
    for i = t.ooo_lo to t.ooo_hi - 1 do
      let seq = t.o_seq.(i) and end_ = t.o_seq.(i) + t.o_len.(i) in
      let n = t.scratch_n in
      if n > 0 && seq <= t.scratch_e.(n - 1) then begin
        if end_ > t.scratch_e.(n - 1) then t.scratch_e.(n - 1) <- end_
      end
      else scratch_push t seq end_
    done;
    (* Index of the range holding the newest arrival, if any. *)
    let newest = ref (-1) in
    for i = 0 to t.scratch_n - 1 do
      if t.scratch_s.(i) <= t.last_sacked && t.last_sacked < t.scratch_e.(i)
      then newest := i
    done;
    let blocks = ref [] and count = ref 0 in
    let add i =
      if !count < Packet.max_sack_blocks then begin
        blocks := (t.scratch_s.(i), t.scratch_e.(i)) :: !blocks;
        incr count
      end
    in
    if !newest >= 0 then add !newest;
    for i = 0 to t.scratch_n - 1 do
      if i <> !newest then add i
    done;
    List.rev !blocks
  end

let send_ack_now t =
  t.pending_segs <- 0;
  let ece = t.ce_pending in
  t.ce_pending <- false;
  (match t.ack_timer with
  | Some timer ->
    Engine.Sched.cancel timer;
    t.ack_timer <- None
  | None -> ());
  t.acks_sent <- t.acks_sent + 1;
  let p =
    Packet.Pool.acquire_tcp ?pool:t.pool ~id:(t.fresh_id ()) ~src:t.addr
      ~dst:t.peer ~tag:t.tag ~born:(Engine.Sched.now t.sched) ~conn:t.conn
      ~subflow:t.subflow ~kind:Packet.Ack ~seq:0 ~payload:0 ~ack:t.rcv_nxt
      ~sack:(sack_blocks t) ~ece ~dss:None ~data_ack:(t.data_ack ()) ()
  in
  t.transmit p

(* Delayed-ACK policy: an immediate ACK for anything out of the ordinary
   (gap, duplicate), otherwise at most one unacknowledged segment. *)
let ack_for_in_order t =
  if not t.delayed_ack then send_ack_now t
  else begin
    t.pending_segs <- t.pending_segs + 1;
    if t.pending_segs >= 2 then send_ack_now t
    else if t.ack_timer = None then begin
      if t.ack_thunk == unarmed then
        t.ack_thunk <-
          (fun () ->
            t.ack_timer <- None;
            if t.pending_segs > 0 then send_ack_now t);
      t.ack_timer <- Some (Engine.Sched.after t.sched ack_delay t.ack_thunk)
    end
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
   its place, and a segment already at [seq] is replaced. *)
let buffer t ~seq ~len ~dss =
  if t.ooo_hi = Array.length t.o_seq then make_room t;
  let a = ref t.ooo_lo and b = ref t.ooo_hi in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if t.o_seq.(mid) < seq then a := mid + 1 else b := mid
  done;
  let i = !a in
  if i = t.ooo_hi then t.ooo_hi <- i + 1 (* the commonest: above all *)
  else if t.o_seq.(i) <> seq then begin
    let shift a = Array.blit a i a (i + 1) (t.ooo_hi - i) in
    shift t.o_seq; shift t.o_len; shift t.o_dseq; shift t.o_dlen;
    Array.blit t.o_has_dss i t.o_has_dss (i + 1) (t.ooo_hi - i);
    t.ooo_hi <- t.ooo_hi + 1
  end;
  t.o_seq.(i) <- seq;
  t.o_len.(i) <- len;
  match dss with
  | Some { Packet.dseq; dlen } ->
    t.o_dseq.(i) <- dseq;
    t.o_dlen.(i) <- dlen;
    t.o_has_dss.(i) <- true
  | None -> t.o_has_dss.(i) <- false

(* Deliver the buffered segments that [rcv_nxt] has reached, lowest seq
   first, each whole with its original (seq, len, dss); one that lies
   wholly below [rcv_nxt] is dropped. *)
let rec drain t =
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
    drain t
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
