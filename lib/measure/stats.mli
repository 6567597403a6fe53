(** Small descriptive-statistics toolkit for multi-seed experiment
    results: summarising a set of per-run measurements into mean, spread
    and percentiles, the way the sweep tables aggregate seeds. *)

type summary = {
  count : int;
  mean : float;
  std : float;      (** sample standard deviation (n-1); 0 for n = 1 *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
}

val summarise : float list -> summary option
(** [None] on an empty list; non-finite values are rejected with
    [Invalid_argument]. *)

val percentile : float array -> p:float -> float
(** Linear-interpolation percentile of an unsorted array, [p] in
    [\[0, 100\]].  Raises on empty input or out-of-range [p]. *)

val confidence95 : summary -> float
(** Half-width of a normal-approximation 95% confidence interval for the
    mean: [1.96 * std / sqrt count] (0 when count < 2). *)
