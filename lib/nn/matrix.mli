(** Dense row-major matrices; just enough linear algebra for the MLPs.

    The gemm kernels run in C (kernels.c), register-blocked in 2-lane
    SIMD with a fixed term order per output element, so every element
    is bit-identical whatever the blocking or the lane (DESIGN.md §9).
    An output row depends only on its own input row. *)

type t = {
  rows : int;
  cols : int;
  data : float array;  (** length [rows * cols], row-major *)
}

val create : int -> int -> t
(** A zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val copy : t -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val fill_zero : t -> unit

val check : string -> t -> unit
(** [check name m] raises [Invalid_argument] naming [name] unless
    [m.data] holds exactly [m.rows * m.cols] entries. *)

val gemm : t -> t -> t
(** C = A B, the input gradient. Skips the terms of exactly-zero A
    entries.
    @raise Invalid_argument if an operand fails {!check} or the shapes
    disagree. *)

val gemm_nt : t -> t -> t
(** C = A Bᵀ, the minibatch forward.
    @raise Invalid_argument if an operand fails {!check} or the shapes
    disagree. *)

val gemm_tn_acc : t -> t -> t -> unit
(** [gemm_tn_acc c a b] adds Aᵀ B into C, the weight-gradient
    accumulate. Skips the terms of exactly-zero A entries.
    @raise Invalid_argument if an operand fails {!check} or the shapes
    disagree. *)

val of_rows : float array array -> t
(** A matrix from row vectors (copied). @raise Invalid_argument on no
    rows or ragged rows. *)

val row : t -> int -> float array
(** A fresh copy of one row. *)

val gather : t -> int array -> t
(** [gather m idx] is the matrix whose row i is a copy of [m]'s row
    [idx.(i)]. *)
