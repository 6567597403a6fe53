(* Seeded input generators.  Every input the benchmark feeds the
   program -- scenario seeds, churn scripts, request plans -- is a pure
   function of the benchmark seed, so the same seed reproduces a run's
   inputs byte for byte and the program under test never sees the seed
   itself. *)

(* An independent random stream for each coordinate path below the
   seed, so adding a draw in one generator never shifts another. *)
let stream seed path =
  Engine.Rng.create
    (List.fold_left (fun acc k -> (acc * 1_000_003) + k) seed path)

let ccs = [| Mptcp.Algorithm.Cubic; Mptcp.Algorithm.Lia; Mptcp.Algorithm.Olia |]

let scenario_seed seed k = 1 + Engine.Rng.int (stream seed [ 1; k ]) 1_000_000

(* ---- churn scripts ---- *)

(* The paper net's three pairwise bottlenecks: s-v1, v2-v3, v4-d. *)
let bottlenecks topo =
  List.map
    (fun (u, v) ->
      let id = Netgraph.Topology.node_id topo in
      match Netgraph.Topology.find_link topo ~u:(id u) ~v:(id v) with
      | Some l -> l
      | None -> invalid_arg "Gen.bottlenecks: not the paper network")
    [ ("s", "v1"); ("v2", "v3"); ("v4", "d") ]

(* Once per simulated second, one action on a bottleneck link, starting
   up to 90 ms into the second: a 0.6 s flap, a 0.8 s spell of 5 % loss,
   or a ramp down to 20 Mbps that is undone 0.9 s after it began.  Each
   action ends before the next second's begins.

   Scripts come in sets of 3.  Script [i] of a set, second [k] (both
   0..2), gets kind (i + k) mod 3 on link (i + 2k) mod 3 of the set's
   seeded permutation of the three bottlenecks: the map from (i, k) to
   (kind, link) is one to one, so a set of 3 scripts of 3 s holds every
   kind on every link exactly once, and a set of 2 s scripts every kind
   and every link twice, whatever the seed.  The seed picks which script
   and second each pair falls in, and when in the second it starts.
   Longer scripts repeat the rotation. *)
let churn_script ~seed ~index ~topo ~seconds =
  let r = stream seed [ 2; index ] in
  let links = Array.of_list (bottlenecks topo) in
  let i = index mod 3 in
  let perm =
    let p = stream seed [ 7; index / 3 ] and a = [| 0; 1; 2 |] in
    for i = 2 downto 1 do
      let j = Engine.Rng.int p (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let ms = Engine.Time.ms in
  List.concat
    (List.init seconds (fun k ->
         let l = links.(perm.((i + (2 * k)) mod 3)) in
         let link = l.Netgraph.Topology.id in
         let t = Engine.Time.add (Engine.Time.s k) (ms (Engine.Rng.int r 91)) in
         let after d = Engine.Time.add t (ms d) in
         let ev at action = Events.Event.at action ~at in
         match (i + k) mod 3 with
         | 0 ->
           [ ev t (Events.Event.Link_down { link });
             ev (after 600) (Events.Event.Link_up { link }) ]
         | 1 ->
           [ ev t (Events.Event.Loss_set { link; loss = 0.05 });
             ev (after 800) (Events.Event.Loss_set { link; loss = 0.0 }) ]
         | _ ->
           [ ev t
               (Events.Event.Capacity_ramp
                  { link; to_bps = 20_000_000; over = ms 400; steps = 4 });
             ev (after 900)
               (Events.Event.Capacity_set
                  { link; rate_bps = l.Netgraph.Topology.capacity_bps }) ]))

(* ---- request plans for the daemon workloads ---- *)

(* The hot set: 3 CCs x default path 1/2/3 x 8 scenario seeds, 0.5 s
   each.  Misses are fresh 1 s specs whose seeds never collide with the
   hot set's.  Quick mode shortens both to a tenth. *)
let hot_count = 72
let hot_seeds = 8
let seed_base seed = 10_000 * (1 + Engine.Rng.int (stream seed [ 3 ]) 100_000)

let preset ~cc ~default ~seed ~duration_s =
  let open Events.Sexp in
  List
    [ Atom "preset";
      List [ Atom "cc"; Atom (Mptcp.Algorithm.name cc) ];
      List [ Atom "default"; Atom (string_of_int default) ];
      List [ Atom "seed"; Atom (string_of_int seed) ];
      List [ Atom "duration-s"; Atom duration_s ] ]

let hot_cell i = (ccs.(i / 24), 1 + (i / hot_seeds mod 3), i mod hot_seeds)

let hot_duration ~quick = if quick then "0.05" else "0.5"

let hot_form ~quick ~seed i =
  let cc, default, k = hot_cell i in
  preset ~cc ~default ~seed:(seed_base seed + k) ~duration_s:(hot_duration ~quick)

(* The hot set as 9 grid forms of 8 entries each, for loading the store:
   one batch per form stays under the daemon's admission limit.  Grid
   and preset cells of equal parameters hash alike. *)
let hot_grids ~quick ~seed =
  let open Events.Sexp in
  List.init 9 (fun cell ->
      let cc, default, _ = hot_cell (cell * hot_seeds) in
      List
        [ Atom "grid";
          List [ Atom "ccs"; Atom (Mptcp.Algorithm.name cc) ];
          List [ Atom "defaults"; Atom (string_of_int default) ];
          List
            (Atom "seeds"
            :: List.init hot_seeds (fun k ->
                   Atom (string_of_int (seed_base seed + k))));
          List [ Atom "duration-s"; Atom (hot_duration ~quick) ] ])

let miss_form ~quick ~seed id =
  let r = stream seed [ 4; id ] in
  let cc = ccs.(Engine.Rng.int r 3) in
  let default = 1 + Engine.Rng.int r 3 in
  preset ~cc ~default ~seed:(seed_base seed + 100 + id)
    ~duration_s:(if quick then "0.1" else "1")

type request = Hot of int | Miss of int

(* Request [i] of [client].  With [miss_pct = 0] every request hits the
   hot set.  Otherwise one plan index in 100 / [miss_pct] is a miss, at
   a seeded phase, so every window holds the same share of misses; and
   every fourth miss, again at a seeded phase, sends both clients the
   same spec at the same index, so the daemon's single-flight path sees
   concurrent duplicates. *)
let plan ~seed ~miss_pct ~client i =
  let r = stream seed [ 5 ] in
  let every = if miss_pct > 0 then 100 / miss_pct else 0 in
  let phase = Engine.Rng.int r (max 1 every) and shared_phase = Engine.Rng.int r 4 in
  if every > 0 && (i + phase) mod every = 0 then
    if ((i + phase) / every + shared_phase) mod 4 = 0 then Miss (3 * i)
    else Miss ((3 * i) + 1 + client)
  else Hot (Engine.Rng.int (stream seed [ 6; client; i ]) hot_count)

let request_form ~quick ~seed = function
  | Hot i -> hot_form ~quick ~seed i
  | Miss id -> miss_form ~quick ~seed id

(* The first [n] requests of each of [clients] clients, as text. *)
let plan_text ~seed ~miss_pct ~clients ~n =
  let b = Buffer.create (n * 64) in
  for c = 0 to clients - 1 do
    for i = 0 to n - 1 do
      Buffer.add_string b
        (Events.Sexp.to_string
           (request_form ~quick:false ~seed (plan ~seed ~miss_pct ~client:c i)));
      Buffer.add_char b '\n'
    done
  done;
  Buffer.contents b
