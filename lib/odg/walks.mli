(** Sub-sequence derivation by walking the ODG (paper §IV-B).

    A walk starts at a critical node, follows successor edges without
    revisiting interior nodes, and ends just before reaching another
    critical node. For the default graph at k ≥ 8 this yields exactly the
    paper's 34 sub-sequences (Table III). *)

val derive : ?k:int -> Graph.t -> string list list
(** All walks from every critical node, deduplicated and sorted. *)

val valid_walk : ?k:int -> Graph.t -> string list -> bool
(** Structural validity: head critical, interior non-critical, every
    consecutive pair an edge of the graph (i.e. an Oz order). *)
