(** Dense float vectors: the numerical primitives shared by the embedding
    encoder and the neural-network layers. All operations are over
    [float array]; in-place variants are suffixed [_inplace] or named
    after BLAS ([axpy]). *)

type t = float array

val create : int -> t
(** Zero vector. *)

val init : int -> (int -> float) -> t
val copy : t -> t
val dim : t -> int

val sub : t -> t -> t
(** @raise Invalid_argument on dimension mismatch (as do all binary ops). *)

val scale : float -> t -> t

val axpy : k:float -> t -> t -> unit
(** [axpy ~k a b] performs [a <- a + k*b] in place. *)

val add_inplace : t -> t -> unit

val dot : t -> t -> float
val norm2 : t -> float

val normalize : t -> t
(** Unit-norm copy; near-zero vectors are returned unchanged. *)

val cosine : t -> t -> float
(** Cosine similarity; 0 when either vector is near-zero. *)

val argmax : t -> int
val max_elt : t -> float
