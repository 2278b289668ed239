(** Metrics registry: counters, gauges and fixed-bucket histograms with
    labeled series.

    Metric names follow the [posetrl.<area>.<name>] convention (see
    DESIGN.md "Observability"). A metric handle is looked up (or
    created) once and then updated through a plain mutable cell, so
    hot-path increments cost a float add — instrument freely.

    The [global] registry backs the whole pipeline; tests create their
    own with [create] to stay isolated.

    Domain safety: registration, lookup and snapshots are serialized by
    a per-registry lock, so worker domains may create labeled handles
    concurrently. Handle updates are domain-safe without losing
    increments: counters and gauges are atomics ([inc] is a CAS retry
    loop, [set] an atomic store) and each histogram row carries its own
    mutex, so bucket counts, sum and count always agree. Anything
    determinism-critical must still not read metrics — timing series
    vary run to run by nature. *)

type t
(** A registry: a set of (name, labels) series. *)

type counter
type gauge
type histogram

val create : unit -> t
val global : t

val counter : ?r:t -> ?labels:(string * string) list -> string -> counter
(** Look up or register a monotone counter.
    @raise Invalid_argument if the series exists with another kind. *)

val inc : ?by:float -> counter -> unit

val gauge : ?r:t -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit

val histogram :
  ?r:t -> ?labels:(string * string) list -> ?buckets:float array -> string ->
  histogram
(** Fixed upper-bound buckets (ascending); values above the last bound
    land in an implicit overflow bucket. [buckets] defaults to
    log-spaced seconds buckets (1µs … 10s), for timing histograms, and
    is only consulted when the series is first created. *)

val observe : histogram -> float -> unit

val value : ?r:t -> ?labels:(string * string) list -> string -> float option
(** Read back a counter total or gauge value; [None] if the series is
    absent or a histogram. Histograms have no single scalar reading —
    snapshots expose their (lossy) mean via [row_value] and their exact
    observation sum via [row_sum] / {!sum}. *)

val sum : ?r:t -> ?labels:(string * string) list -> string -> float option
(** The exact sum of a histogram's observations; [None] if the series
    is absent or not a histogram. The Prometheus exposition ([Expo])
    renders [_sum] from this rather than re-deriving it from the
    quantile summary string. *)

type row = {
  row_name : string;
  row_labels : (string * string) list;
  row_kind : string;              (** ["counter"], ["gauge"] or ["histogram"] *)
  row_value : float;
  (** counter total / gauge value; for histograms this is the {e mean}
      of the observations ([row_sum / row_count], 0 when empty) — a
      lossy convenience for table rendering, not the raw data. *)
  row_count : int;                (** histogram observations; 1 otherwise *)
  row_sum : float;                (** histogram observation sum; [row_value] otherwise *)
  row_buckets : (float * int) list;
  (** histogram (upper bound, count) pairs in ascending bound order,
      per-bucket (non-cumulative), ending with the [infinity] overflow
      bucket; [[]] for counters and gauges. *)
  row_detail : string;            (** histogram quantile summary, else empty *)
}

val snapshot : ?r:t -> unit -> row list
(** Every series, sorted by name then labels. *)

val render : ?title:string -> row list -> string
(** Aligned plain-text table of a snapshot. *)
