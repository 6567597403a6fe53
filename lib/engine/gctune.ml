(* A simulation run is a long steady-state loop over small short-lived
   values; the OCaml defaults (256k-word minor heap) promote far too
   eagerly for that shape.  One knob application at startup, plus cheap
   counter snapshots for the allocation accounting in bench and obs. *)

let tune () =
  let g = Gc.get () in
  Gc.set
    { g with
      (* 64 MB on 64-bit: segments die young, keep them minor *)
      Gc.minor_heap_size = 8 * 1024 * 1024;
      space_overhead = 200;
    }

type counters = {
  minor_collections : int;
  major_collections : int;
  compactions : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

(* [Gc.quick_stat] reports [minor_words] as of the last minor
   collection; with the large nursery from {!tune} a whole run can fit
   between collections and the bracketed delta would be mostly noise.
   [Gc.minor_words ()] reads the live allocation pointer instead. *)
let counters () =
  let s = Gc.quick_stat () in
  {
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
  }

let diff a b =
  {
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    compactions = b.compactions - a.compactions;
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_words = b.major_words -. a.major_words;
  }

(* Words allocated overall: everything born in the minor heap plus
   blocks allocated directly in the major heap (promotions would
   otherwise be double-counted). *)
let allocated_words c = c.minor_words +. c.major_words -. c.promoted_words
