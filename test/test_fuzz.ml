(* Seed-pinned property-based fuzzing sweep (also behind the @fuzz
   alias): random audited scenarios — random pairwise-overlap
   topologies, congestion controllers, schedulers, qdiscs, buffers and
   jitter — must all be violation-free, more must keep the packet
   freelist honest (no double release, no resurrection, coherent
   counters), and the analytic cases must produce converged,
   LP-feasible fluid equilibria.  The dynamic sweep interleaves random
   timed events (link kills and repairs, capacity cuts and ramps,
   delay/loss changes, subflow churn, cross-traffic) with the same
   topologies and requires the full audit to stay clean.  The
   data-structure properties drive the timing wheel against the
   reference heap, the flat SACK scoreboard against a naive list model
   and the chunk-ownership ring against a Hashtbl model on random
   programs, and the final sweeps re-check jobs=1 vs
   jobs=4 bit-identity — static and dynamic — with the wheel's
   heap-shadow lockstep armed.  The hybrid sweep crosses the same
   topologies with random fluid background mixes (CBR and windowed
   classes, staggered activations) and requires audit-clean,
   buffer-respecting, jobs-deterministic co-simulations.  The pinned
   RNG keeps the sweep reproducible; QCheck shrinks any failure to a
   minimal case.

   The daemon sweep feeds protocol garbage (unframed bytes, oversized
   and truncated frames, bit flips, unknown forms, wrong versions) to a
   live resident daemon and requires typed error replies, continued
   service and a clean drain.

   Case counts multiply by FUZZ_SCALE when set: `dune build @fuzz-long`
   runs the whole sweep at 10x depth.  FUZZ_ONLY=<name> restricts the
   run to one named sweep (the @daemon alias uses FUZZ_ONLY=daemon). *)

let scale =
  match Sys.getenv_opt "FUZZ_SCALE" with
  | None | Some "" -> 1
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> invalid_arg "FUZZ_SCALE must be a positive integer")

let n count = count * scale

let sweeps =
  [
    ("audit", Fuzz.test ~count:(n 120) ());
    ("pool", Fuzz.pool_test ~count:(n 60) ());
    ("fluid", Fuzz.fluid_test ~count:(n 100) ());
    ("events", Fuzz.events_test ~count:(n 200) ());
    ("hybrid", Fuzz.hybrid_test ~count:(n 40) ());
    ("wheel", Fuzz.wheel_test ~count:(n 400) ());
    ("scoreboard", Fuzz.scoreboard_test ~count:(n 400) ());
    ("chunks", Fuzz.chunks_test ~count:(n 400) ());
    ("determinism", Fuzz.determinism_test ~count:(n 20) ());
    ("events-determinism", Fuzz.events_determinism_test ~count:(n 12) ());
    ("daemon", Fuzz.daemon_test ~count:(n 12) ());
  ]

let () =
  let selected =
    match Sys.getenv_opt "FUZZ_ONLY" with
    | None | Some "" -> List.map snd sweeps
    | Some key -> (
      match List.assoc_opt key sweeps with
      | Some t -> [ t ]
      | None ->
        Printf.eprintf "FUZZ_ONLY=%s matches no sweep (have: %s)\n" key
          (String.concat ", " (List.map fst sweeps));
        exit 2)
  in
  exit
    (QCheck_base_runner.run_tests ~colors:false ~verbose:true
       ~rand:(Random.State.make [| 0x5eed |])
       selected)
