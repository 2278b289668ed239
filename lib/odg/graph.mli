(** The Oz Dependence Graph (paper §IV-B, Fig. 4).

    Nodes are the unique passes of the -Oz pipeline; a directed edge
    [u → v] exists when [v] immediately follows [u] somewhere in the Oz
    sequence. Nodes of degree ≥ k are the {e critical nodes} from which
    sub-sequence walks start and end. *)

module SSet : Set.S with type elt = string
module SMap : Map.S with type key = string

type t = {
  nodes : string list;
  succs : SSet.t SMap.t;
  preds : SSet.t SMap.t;
}

val default : t lazy_t
(** The graph of the canonical -Oz sequence (Table I). *)

val successors : t -> string -> SSet.t
val predecessors : t -> string -> SSet.t

val degree : t -> string -> int
(** Distinct in-neighbours + distinct out-neighbours — the measure under
    which the paper's critical nodes have degrees 11, 10 and 8. *)

val critical_nodes : ?k:int -> t -> (string * int) list
(** Nodes of degree ≥ k (default 8) with their degrees, highest first.
    For the default graph and k: [simplifycfg, 11; instcombine, 10;
    loop-simplify, 8]. *)

val edge_count : t -> int
val node_count : t -> int

val to_dot : ?k:int -> t -> string
(** Graphviz rendering (critical nodes double-circled). *)
