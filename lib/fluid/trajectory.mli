(** Sampled transient solutions of a fluid model.

    Integrates the compiled ODE from a start state over a horizon and
    records evenly spaced samples — the fluid counterpart of the
    simulator's per-interval measurement, and the data behind the
    [fluid --csv] trajectory export. *)

type sample = {
  t : float;                 (** seconds since start *)
  windows : float array;     (** MSS, per path *)
  queues : float array;      (** packets, per {!Model.link_ids} entry *)
  rates_mbps : float array;  (** delivered rate per path *)
  total_mbps : float;
}

val run :
  Model.t -> horizon:float -> samples:int -> sample list * Ode.stats
(** [run m ~horizon ~samples] integrates from {!Model.initial} with
    {!Ode.integrate}'s default tolerance and returns [samples + 1]
    samples including both endpoints, in time order.  [samples] must be
    positive. *)

val write_csv : Model.t -> Format.formatter -> sample list -> unit
(** Header then one row per sample: time, per-path windows, per-link
    queues, per-path delivered rates, total.  Columns are labelled with
    path indices and topology link ids.  Numbers print with [%.6g], so
    the output is stable across runs and platforms. *)
