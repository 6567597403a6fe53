type addr = int
type tag = int
type dss = { dseq : int; dlen : int }
type tcp_kind = Syn | Syn_ack | Data | Ack | Fin

(* Every field is mutable so the freelist (below) can rebuild a recycled
   record in place instead of allocating a fresh one per segment.  Code
   outside this module and the pool must treat packets as immutable
   (except [ecn], which queues mark in flight). *)
type tcp = {
  mutable conn : int;
  mutable subflow : int;
  mutable kind : tcp_kind;
  mutable seq : int;
  mutable payload : int;
  mutable ack : int;
  mutable sack : (int * int) list;
  mutable ece : bool;
  mutable dss : dss option;
  mutable data_ack : int;
}

type body = Tcp of tcp | Plain

type ecn = Not_ect | Ect | Ce

type t = {
  mutable id : int;
  mutable src : addr;
  mutable dst : addr;
  mutable tag : tag;
  mutable size : int;
  mutable body : body;
  mutable ecn : ecn;
  mutable born : Engine.Time.t;
}

let max_sack_blocks = 3
let header_bytes = 52
let default_mss = 1448
let[@inline] wire_bits p = p.size * 8

let[@inline] is_data p =
  match p.body with
  | Tcp { kind = Data; payload; _ } -> payload > 0
  | Tcp _ | Plain -> false

let[@inline] tcp_exn p =
  match p.body with
  | Tcp tcp -> tcp
  | Plain -> invalid_arg "Packet.tcp_exn: not a TCP packet"

(* O(1) bound check: walks at most [max_sack_blocks + 1] cons cells,
   never the whole list (the old [List.length] was O(n) per packet). *)
let sack_overflows = function
  | _ :: _ :: _ :: _ :: _ -> true
  | _ -> false

let validate_tcp ~payload ~sack ~dss =
  if payload < 0 then invalid_arg "Packet.make_tcp: negative payload";
  if sack_overflows sack then
    invalid_arg "Packet.make_tcp: too many SACK blocks";
  match dss with
  | Some { dlen; _ } when dlen <> payload ->
    invalid_arg "Packet.make_tcp: DSS length must match payload"
  | Some _ | None -> ()

let make_tcp ~id ~src ~dst ~tag ~born tcp =
  validate_tcp ~payload:tcp.payload ~sack:tcp.sack ~dss:tcp.dss;
  { id; src; dst; tag; size = header_bytes + tcp.payload; body = Tcp tcp;
    ecn = Not_ect; born }

let make_plain ~id ~src ~dst ~tag ~born ~size =
  if size < 1 then invalid_arg "Packet.make_plain: size must be >= 1";
  { id; src; dst; tag; size; body = Plain; ecn = Not_ect; born }

let copy p =
  let body =
    match p.body with
    | Plain -> Plain
    | Tcp tcp ->
      Tcp
        {
          conn = tcp.conn; subflow = tcp.subflow; kind = tcp.kind;
          seq = tcp.seq; payload = tcp.payload; ack = tcp.ack;
          sack = tcp.sack; ece = tcp.ece; dss = tcp.dss;
          data_ack = tcp.data_ack;
        }
  in
  { id = p.id; src = p.src; dst = p.dst; tag = p.tag; size = p.size; body;
    ecn = p.ecn; born = p.born }

(* --- freelist --- *)

let poison_id = -2

let is_poisoned p = p.id == poison_id

module Pool = struct
  type packet = t

  type stats = {
    acquired : int;
    recycled : int;
    released : int;
    double_releases : int;
  }

  type t = {
    mutable free : packet array;
    mutable free_len : int;
    mutable debug : bool;
    mutable acquired : int;
    mutable recycled : int;
    mutable released : int;
    mutable double_releases : int;
  }

  let create ?(debug = false) () =
    { free = [||]; free_len = 0; debug; acquired = 0; recycled = 0;
      released = 0; double_releases = 0 }

  let set_debug t on = t.debug <- on

  let stats t =
    { acquired = t.acquired; recycled = t.recycled; released = t.released;
      double_releases = t.double_releases }

  let live t = t.acquired - t.released

  (* Shared filler for vacated freelist slots, so a popped packet is
     never reachable from the pool once handed out, and the "freelist
     empty" answer of [pop].  One record for every pool: filling a slot
     or reporting an empty list allocates nothing.  Poisoned, so it can
     never pass for live traffic. *)
  let filler =
    { id = poison_id; src = -1; dst = -1; tag = -1; size = 1; body = Plain;
      ecn = Not_ect; born = 0 }

  let push t p =
    let cap = Array.length t.free in
    if t.free_len = cap then begin
      let fresh = Array.make (max 64 (2 * cap)) filler in
      Array.blit t.free 0 fresh 0 t.free_len;
      t.free <- fresh
    end;
    t.free.(t.free_len) <- p;
    t.free_len <- t.free_len + 1

  (* The most recently released record, or [filler] when the freelist
     is empty (compare with [==]). *)
  let pop t =
    if t.free_len = 0 then filler
    else begin
      let i = t.free_len - 1 in
      let p = t.free.(i) in
      t.free.(i) <- filler;
      t.free_len <- i;
      if t.debug && not (is_poisoned p) then
        failwith
          (Printf.sprintf
             "Packet.Pool: freelist slot holds a live packet (id %d) - a \
              released packet was resurrected"
             p.id);
      p
    end

  (* The record an acquire rebuilds in place, or [filler] when the
     caller passed no pool or the freelist is empty and a fresh record
     must be built. *)
  let recycle = function
    | None -> filler
    | Some t ->
      t.acquired <- t.acquired + 1;
      let p = pop t in
      if p != filler then t.recycled <- t.recycled + 1;
      p

  let release t p =
    if is_poisoned p then begin
      t.double_releases <- t.double_releases + 1;
      if t.debug then
        failwith "Packet.Pool.release: double release of a pooled packet"
    end
    else begin
      t.released <- t.released + 1;
      (* Poison unconditionally: the marker is what detects double
         releases; the remaining fields are scrubbed only in debug mode
         so use-after-release is loud there and free elsewhere. *)
      p.id <- poison_id;
      if t.debug then begin
        p.src <- -1;
        p.dst <- -1;
        p.tag <- -1;
        p.size <- min_int;
        p.ecn <- Not_ect;
        p.born <- -1;
        match p.body with
        | Plain -> ()
        | Tcp tcp ->
          tcp.seq <- min_int;
          tcp.payload <- min_int;
          tcp.ack <- min_int;
          tcp.sack <- [];
          tcp.dss <- None;
          tcp.data_ack <- min_int
      end;
      push t p
    end

  let acquire_tcp ?pool ~id ~src ~dst ~tag ~born ?(ecn = Not_ect) ~conn
      ~subflow ~kind ~seq ~payload ~ack ~sack ~ece ~dss ~data_ack () =
    validate_tcp ~payload ~sack ~dss;
    let size = header_bytes + payload in
    let p = recycle pool in
    if p == filler then
      { id; src; dst; tag; size; ecn; born;
        body =
          Tcp { conn; subflow; kind; seq; payload; ack; sack; ece; dss;
                data_ack } }
    else begin
      p.id <- id;
      p.src <- src;
      p.dst <- dst;
      p.tag <- tag;
      p.size <- size;
      p.ecn <- ecn;
      p.born <- born;
      (match p.body with
      | Tcp tcp ->
        tcp.conn <- conn;
        tcp.subflow <- subflow;
        tcp.kind <- kind;
        tcp.seq <- seq;
        tcp.payload <- payload;
        tcp.ack <- ack;
        tcp.sack <- sack;
        tcp.ece <- ece;
        tcp.dss <- dss;
        tcp.data_ack <- data_ack
      | Plain ->
        p.body <-
          Tcp { conn; subflow; kind; seq; payload; ack; sack; ece; dss;
                data_ack });
      p
    end
end

let pp_kind fmt = function
  | Syn -> Format.pp_print_string fmt "SYN"
  | Syn_ack -> Format.pp_print_string fmt "SYN-ACK"
  | Data -> Format.pp_print_string fmt "DATA"
  | Ack -> Format.pp_print_string fmt "ACK"
  | Fin -> Format.pp_print_string fmt "FIN"

let pp fmt p =
  if is_poisoned p then
    Format.fprintf fmt "#<released> %d->%d tag=%d" p.src p.dst p.tag
  else
    match p.body with
    | Plain ->
      Format.fprintf fmt "#%d %d->%d tag=%d plain %dB" p.id p.src p.dst p.tag
        p.size
    | Tcp tcp ->
      Format.fprintf fmt "#%d %d->%d tag=%d %a c%d.s%d seq=%d len=%d ack=%d%a"
        p.id p.src p.dst p.tag pp_kind tcp.kind tcp.conn tcp.subflow tcp.seq
        tcp.payload tcp.ack
        (fun fmt -> function
          | None -> ()
          | Some { dseq; dlen } -> Format.fprintf fmt " dss=%d+%d" dseq dlen)
        tcp.dss
