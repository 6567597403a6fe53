(* Tests for the wire-format model: sizes, constructors, validation and
   pretty-printing. *)

let data_tcp ?(payload = Packet.default_mss) ?(dss = None) () =
  {
    Packet.conn = 1;
    subflow = 0;
    kind = Packet.Data;
    seq = 1000;
    payload;
    ack = 0;
    sack = [];
    ece = false;
    dss;
    data_ack = 0;
  }

let sizes () =
  Alcotest.(check int) "header" 52 Packet.header_bytes;
  Alcotest.(check int) "mss" 1448 Packet.default_mss;
  let p =
    Packet.make_tcp ~id:1 ~src:0 ~dst:1 ~tag:1 ~born:0 (data_tcp ())
  in
  Alcotest.(check int) "full segment is 1500B on the wire" 1500 p.Packet.size;
  Alcotest.(check int) "wire bits" 12000 (Packet.wire_bits p);
  let ack =
    Packet.make_tcp ~id:2 ~src:1 ~dst:0 ~tag:1 ~born:0
      { (data_tcp ~payload:0 ()) with Packet.kind = Packet.Ack; ack = 2448 }
  in
  Alcotest.(check int) "pure ACK is header-only" 52 ack.Packet.size

let is_data () =
  let d = Packet.make_tcp ~id:1 ~src:0 ~dst:1 ~tag:1 ~born:0 (data_tcp ()) in
  Alcotest.(check bool) "data" true (Packet.is_data d);
  let a =
    Packet.make_tcp ~id:2 ~src:1 ~dst:0 ~tag:1 ~born:0
      { (data_tcp ~payload:0 ()) with Packet.kind = Packet.Ack }
  in
  Alcotest.(check bool) "ack is not data" false (Packet.is_data a);
  let plain = Packet.make_plain ~id:3 ~src:0 ~dst:1 ~tag:9 ~born:0 ~size:1500 in
  Alcotest.(check bool) "plain is not data" false (Packet.is_data plain)

let dss_consistency () =
  Alcotest.(check bool) "mismatched DSS rejected" true
    (try
       ignore
         (Packet.make_tcp ~id:1 ~src:0 ~dst:1 ~tag:1 ~born:0
            (data_tcp ~payload:100
               ~dss:(Some { Packet.dseq = 0; dlen = 99 })
               ()));
       false
     with Invalid_argument _ -> true);
  let ok =
    Packet.make_tcp ~id:1 ~src:0 ~dst:1 ~tag:1 ~born:0
      (data_tcp ~payload:100 ~dss:(Some { Packet.dseq = 500; dlen = 100 }) ())
  in
  match (Packet.tcp_exn ok).Packet.dss with
  | Some { Packet.dseq = 500; dlen = 100 } -> ()
  | _ -> Alcotest.fail "DSS not preserved"

let negative_payload () =
  Alcotest.(check bool) "negative payload rejected" true
    (try
       ignore
         (Packet.make_tcp ~id:1 ~src:0 ~dst:1 ~tag:1 ~born:0
            (data_tcp ~payload:(-1) ()));
       false
     with Invalid_argument _ -> true)

let plain_validation () =
  Alcotest.(check bool) "zero-size plain rejected" true
    (try
       ignore (Packet.make_plain ~id:1 ~src:0 ~dst:1 ~tag:1 ~born:0 ~size:0);
       false
     with Invalid_argument _ -> true)

let tcp_exn_on_plain () =
  let p = Packet.make_plain ~id:1 ~src:0 ~dst:1 ~tag:1 ~born:0 ~size:100 in
  Alcotest.check_raises "tcp_exn on plain"
    (Invalid_argument "Packet.tcp_exn: not a TCP packet") (fun () ->
      ignore (Packet.tcp_exn p))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let pretty_printing () =
  let d =
    Packet.make_tcp ~id:7 ~src:0 ~dst:5 ~tag:2 ~born:0
      (data_tcp ~dss:(Some { Packet.dseq = 42; dlen = Packet.default_mss }) ())
  in
  let s = Format.asprintf "%a" Packet.pp d in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "pp mentions %S" fragment)
        true (contains ~needle:fragment s))
    [ "DATA"; "tag=2"; "dss=42" ]

(* --- freelist --- *)

let acquire ?pool ~id () =
  Packet.Pool.acquire_tcp ?pool ~id ~src:0 ~dst:1 ~tag:1 ~born:0 ~conn:1
    ~subflow:0 ~kind:Packet.Data ~seq:1000 ~payload:Packet.default_mss ~ack:0
    ~sack:[] ~ece:false ~dss:None ~data_ack:0 ()

let pool_recycles () =
  let pool = Packet.Pool.create () in
  let p = acquire ~pool ~id:1 () in
  Alcotest.(check int) "fresh size" 1500 p.Packet.size;
  Packet.Pool.release pool p;
  Alcotest.(check bool) "poisoned after release" true (Packet.is_poisoned p);
  let q = acquire ~pool ~id:2 () in
  Alcotest.(check bool) "record physically reused" true (p == q);
  Alcotest.(check int) "rebuilt id" 2 q.Packet.id;
  Alcotest.(check bool) "no longer poisoned" false (Packet.is_poisoned q);
  let s = Packet.Pool.stats pool in
  Alcotest.(check int) "acquired" 2 s.Packet.Pool.acquired;
  Alcotest.(check int) "recycled" 1 s.Packet.Pool.recycled;
  Alcotest.(check int) "released" 1 s.Packet.Pool.released;
  Alcotest.(check int) "live" 1 (Packet.Pool.live pool)

let pool_cycle_allocates_nothing () =
  (* The hot path hands its pool over as a preallocated option
     ([?pool:t.pool]); once the freelist holds a record, an
     acquire/release cycle must not touch the minor heap.  The empty
     measurement absorbs what reading the counter itself allocates. *)
  let pool = Some (Packet.Pool.create ()) in
  let cycle id = Packet.Pool.release (Option.get pool) (acquire ?pool ~id ()) in
  let minor_words n =
    let before = Gc.minor_words () in
    for id = 1 to n do
      cycle id
    done;
    Gc.minor_words () -. before
  in
  ignore (minor_words 10 : float);
  Alcotest.(check (float 0.)) "minor words over 1000 cycles" (minor_words 0)
    (minor_words 1000)

let pool_without_pool_allocates () =
  let p = acquire ~id:7 () in
  Alcotest.(check int) "plain constructor path" 7 p.Packet.id

let pool_double_release_counted () =
  let pool = Packet.Pool.create () in
  let p = acquire ~pool ~id:1 () in
  Packet.Pool.release pool p;
  Packet.Pool.release pool p;
  let s = Packet.Pool.stats pool in
  Alcotest.(check int) "counted once" 1 s.Packet.Pool.double_releases;
  Alcotest.(check int) "released once" 1 s.Packet.Pool.released;
  (* The freelist must not hand the same record out twice. *)
  let a = acquire ~pool ~id:2 () in
  let b = acquire ~pool ~id:3 () in
  Alcotest.(check bool) "distinct records" true (not (a == b))

let pool_debug_raises () =
  let pool = Packet.Pool.create ~debug:true () in
  let p = acquire ~pool ~id:1 () in
  Packet.Pool.release pool p;
  Alcotest.(check bool) "double release raises in debug" true
    (try
       Packet.Pool.release pool p;
       false
     with Failure _ -> true)

let pool_debug_scrubs () =
  let pool = Packet.Pool.create ~debug:true () in
  let p = acquire ~pool ~id:1 () in
  Packet.Pool.release pool p;
  Alcotest.(check int) "id poisoned" Packet.poison_id p.Packet.id;
  Alcotest.(check int) "src scrubbed" (-1) p.Packet.src;
  let s = Format.asprintf "%a" Packet.pp p in
  Alcotest.(check bool) "pp guards released records" true
    (contains ~needle:"released" s)

let pool_slots () =
  let pool = Packet.Pool.create () in
  let p = acquire ~pool ~id:1 () in
  let s = Packet.Pool.slot pool p in
  Alcotest.(check bool) "packet (slot p) == p" true
    (Packet.Pool.packet pool s == p);
  Alcotest.(check int) "asked again, same slot" s (Packet.Pool.slot pool p);
  Packet.Pool.release pool p;
  let q = acquire ~pool ~id:2 () in
  Alcotest.(check bool) "record recycled" true (q == p);
  Alcotest.(check int) "slot stable across release and recycle" s
    (Packet.Pool.slot pool q);
  let c = Packet.copy q in
  Alcotest.(check int) "a copy has no slot" (-1) c.Packet.slot;
  let cs = Packet.Pool.slot pool c in
  Alcotest.(check bool) "the copy gets its own slot" true
    (cs <> s && Packet.Pool.packet pool cs == c);
  (* A record whose slot names another pool's table gets a new slot
     here, even where the index is taken by another record. *)
  let other = Packet.Pool.create () in
  let f = acquire ~pool:other ~id:3 () in
  let fs = Packet.Pool.slot other f in
  Alcotest.(check int) "first slot of the other pool" s fs;
  let here = Packet.Pool.slot pool f in
  Alcotest.(check bool) "foreign record gets a new slot" true
    (here <> s && here <> cs && Packet.Pool.packet pool here == f);
  Alcotest.(check bool) "the other pool's table still holds it" true
    (Packet.Pool.packet other fs == f)

let pool_stamps () =
  (* One int per slot, kept by slot: a link stamps a packet at
     transmission and reads the stamp on arrival. *)
  let pool = Packet.Pool.create () in
  let ps = List.init 100 (fun i -> acquire ~pool ~id:i ()) in
  let slots = List.map (Packet.Pool.slot pool) ps in
  List.iter
    (fun s -> Alcotest.(check int) "a new slot's stamp is 0" 0
        (Packet.Pool.stamp pool s))
    slots;
  List.iter (fun s -> Packet.Pool.set_stamp pool s (1000 + s)) slots;
  List.iter
    (fun s -> Alcotest.(check int) "stamp read back by slot" (1000 + s)
        (Packet.Pool.stamp pool s))
    slots;
  let p = List.hd ps and s = List.hd slots in
  Packet.Pool.release pool p;
  let q = acquire ~pool ~id:200 () in
  Alcotest.(check int) "recycled record, same slot" s (Packet.Pool.slot pool q);
  Alcotest.(check int) "its stamp stays until rewritten" (1000 + s)
    (Packet.Pool.stamp pool s)

let pool_debug_lookup_of_released_raises () =
  let pool = Packet.Pool.create ~debug:true () in
  let p = acquire ~pool ~id:1 () in
  let s = Packet.Pool.slot pool p in
  Packet.Pool.release pool p;
  Alcotest.(check bool) "looking up a released record raises" true
    (try
       ignore (Packet.Pool.packet pool s : Packet.t);
       false
     with Failure _ -> true)

let copy_is_deep () =
  let p =
    Packet.make_tcp ~id:5 ~src:0 ~dst:1 ~tag:2 ~born:0
      (data_tcp ~dss:(Some { Packet.dseq = 10; dlen = Packet.default_mss }) ())
  in
  let c = Packet.copy p in
  Alcotest.(check bool) "fresh record" true (not (p == c));
  (match (p.Packet.body, c.Packet.body) with
  | Packet.Tcp a, Packet.Tcp b ->
    Alcotest.(check bool) "fresh tcp record" true (not (a == b));
    a.Packet.seq <- 9999;
    Alcotest.(check int) "copy unaffected by mutation" 1000 b.Packet.seq
  | _ -> Alcotest.fail "expected TCP bodies");
  p.Packet.id <- 42;
  Alcotest.(check int) "copy keeps original id" 5 c.Packet.id

let sack_bound_o1 () =
  let sack4 = [ (1, 2); (3, 4); (5, 6); (7, 8) ] in
  Alcotest.(check bool) "4 blocks rejected" true
    (try
       ignore
         (Packet.make_tcp ~id:1 ~src:0 ~dst:1 ~tag:1 ~born:0
            { (data_tcp ~payload:0 ()) with
              Packet.kind = Packet.Ack;
              sack = sack4 });
       false
     with Invalid_argument _ -> true);
  let sack3 = [ (1, 2); (3, 4); (5, 6) ] in
  let p =
    Packet.make_tcp ~id:1 ~src:0 ~dst:1 ~tag:1 ~born:0
      { (data_tcp ~payload:0 ()) with Packet.kind = Packet.Ack; sack = sack3 }
  in
  Alcotest.(check int) "3 blocks accepted" 3
    (List.length (Packet.tcp_exn p).Packet.sack)

let () =
  Alcotest.run "packet"
    [
      ( "packet",
        [
          Alcotest.test_case "wire sizes" `Quick sizes;
          Alcotest.test_case "is_data" `Quick is_data;
          Alcotest.test_case "DSS consistency enforced" `Quick dss_consistency;
          Alcotest.test_case "negative payload rejected" `Quick
            negative_payload;
          Alcotest.test_case "plain size validation" `Quick plain_validation;
          Alcotest.test_case "tcp_exn on plain raises" `Quick tcp_exn_on_plain;
          Alcotest.test_case "pretty printing" `Quick pretty_printing;
        ] );
      ( "pool",
        [
          Alcotest.test_case "acquire recycles released records" `Quick
            pool_recycles;
          Alcotest.test_case "acquire without a pool still works" `Quick
            pool_without_pool_allocates;
          Alcotest.test_case "acquire/release allocates nothing" `Quick
            pool_cycle_allocates_nothing;
          Alcotest.test_case "double release counted, freelist safe" `Quick
            pool_double_release_counted;
          Alcotest.test_case "debug mode raises on double release" `Quick
            pool_debug_raises;
          Alcotest.test_case "debug mode scrubs released records" `Quick
            pool_debug_scrubs;
          Alcotest.test_case "copy is deep" `Quick copy_is_deep;
          Alcotest.test_case "SACK bound check is O(1)" `Quick sack_bound_o1;
          Alcotest.test_case "slots: lookup, stability, copies, foreign records"
            `Quick pool_slots;
          Alcotest.test_case "debug mode raises on a released slot" `Quick
            pool_debug_lookup_of_released_raises;
          Alcotest.test_case "stamps are kept by slot" `Quick pool_stamps;
        ] );
    ]
