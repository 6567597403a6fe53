(** Regeneration of every figure in the paper.

    Each generator returns the raw {!Scenario.result} plus rendered CSV
    and an ASCII chart, so both `bin/mptcp_sim figures` and
    `bench/main.exe` can print them.  Figure numbering follows the
    paper:

    - {!fig1}: the topology and path listing (Fig. 1a/1b);
    - {!fig1c}: the throughput constraint system and its LP optimum;
    - {!fig2a}: per-path rates under CUBIC, 100 ms sampling, 4 s;
    - [by_id "2b"]: per-path rates under OLIA, 100 ms sampling, 4 s
      (the run that has not yet found the optimum);
    - {!fig2c}: the first 0.5 s under CUBIC at 10 ms sampling (the
      slow-start/sawtooth close-up). *)

type figure = {
  id : string;
  title : string;
  chart : string;      (** ASCII rendering for terminals *)
  csv : string;        (** time series for external plotting *)
  result : Scenario.result option;  (** [None] for the analytic figures *)
}

val fig1 : unit -> figure
val fig1c : unit -> figure
val fig2a : ?seed:int -> unit -> figure
val fig2c : ?seed:int -> unit -> figure

val all : ?seed:int -> ?jobs:int -> unit -> figure list
(** All five figures, generated as independent jobs on [?jobs] domains
    (default {!Engine.Pool.default_domains}); output is identical for every
    [?jobs] value. *)

val by_id : string -> (?seed:int -> unit -> figure) option
(** Lookup by ["1"], ["1c"], ["2a"], ["2b"], ["2c"]. *)
