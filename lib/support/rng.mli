(** Deterministic pseudo-random streams (SplitMix64).

    All project randomness flows through explicit values of type {!t},
    making experiments reproducible from a single seed. *)

type t

val create : int -> t
(** [create seed] is a fresh stream determined entirely by [seed]. *)

val split : t -> t
(** Derive an independent child stream, advancing the parent. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises on [bound <= 0]. *)

val bool : t -> bool

val normal : t -> float
(** Standard normal deviate (Box-Muller). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
