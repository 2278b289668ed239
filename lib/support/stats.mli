(** Summary statistics over float lists; produce the min/avg/max columns
    of the evaluation tables. Empty-list inputs yield [nan] (except
    [variance]/[stddev], which are 0 for fewer than two samples). *)

val mean : float list -> float
val minimum : float list -> float
val maximum : float list -> float
val variance : float list -> float
(** Sample (n−1) variance. *)

val stddev : float list -> float

val geomean : float list -> float
(** @raise Invalid_argument on non-positive values. *)

val median : float list -> float

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted q] is the nearest-rank [q]-quantile of an
    ascending array: the element at index [ceil (q * n) - 1], clamped
    to [0, n - 1]. [nan] on an empty array. *)

val sparkline : ?width:int -> float list -> string
(** Unicode block-character rendering of a series (▁▂▃▄▅▆▇█),
    downsampled to [width] columns (default 60) by bucket-averaging.
    Non-finite samples are dropped; empty input yields [""], a flat
    series renders at mid-height. Used by [posetrl runs show] for the
    training-curve views of the run ledger. *)

val pct_reduction : base:float -> float -> float
(** [pct_reduction ~base v] = [100 * (base - v) / base]; positive means
    [v] is a reduction. *)

val pct_improvement : base:float -> float -> float
(** [100 * (v - base) / base] for higher-is-better metrics. *)
