(** Plain-text table rendering for the benchmark harness: turns row data
    into aligned ASCII output comparable side-by-side with the paper's
    tables. *)

type align = Left | Right

type t

val create : title:string -> headers:string list -> ?aligns:align list -> unit -> t
(** [aligns] defaults to all-[Right];
    @raise Invalid_argument if its length differs from [headers]. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument on a row of the wrong width. *)

val render : t -> string
val print : t -> unit
