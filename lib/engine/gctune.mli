(** GC tuning and allocation accounting for the simulation hot loop.

    The event loop allocates small, short-lived values at a high rate;
    {!tune} sizes the minor heap so they die before promotion, and
    {!counters}/{!diff} bracket a run for the allocations-per-packet
    numbers in the bench JSON and the observability metrics. *)

val tune : unit -> unit
(** Applies the simulator-friendly GC settings to this domain: an
    8 Mword minor heap (64 MB on 64-bit) and [space_overhead] 200;
    other [Gc.control] fields are left untouched. *)

type counters = {
  minor_collections : int;
  major_collections : int;
  compactions : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

val counters : unit -> counters
(** Snapshot of this domain's GC counters (cheap, no heap walk).
    [minor_words] comes from the live allocation pointer
    ([Gc.minor_words ()]) rather than [Gc.quick_stat], which only
    updates it at minor collections — a whole run can fit inside the
    {!tune}d nursery without collecting. *)

val diff : counters -> counters -> counters
(** [diff before after]: counter deltas over a bracketed region. *)

val allocated_words : counters -> float
(** Total words allocated in a delta: minor allocations plus direct
    major allocations (promotions counted once). *)
