(** The paper's two action spaces.

    Each action is a list of pass names applied back-to-back by the
    environment. [manual] is Table II (15 groups); [odg] is Table III
    (34 ODG walks), shipped as canonical data with {!derived} exposing
    the live walk enumeration. *)

type t = {
  name : string;
  actions : string list array;
}

val manual : t
(** Table II: the 15 manually grouped sub-sequences. *)

val odg : t
(** Table III, as printed in the paper, as an action space. *)

val derived : ?k:int -> unit -> t
(** The action space produced by {!Walks.derive} on the default graph. *)

val n_actions : t -> int

val action : t -> int -> string list

val coverage_universe :
  t -> Graph.t -> string array * (int * int) array * int array array
(** [(nodes, edges, action_paths)] — the decision-space universe for a
    [Posetrl_obs.Coverage] table, as plain arrays: the graph's nodes in
    canonical (sorted) order followed by any extra passes the action
    space references, the graph's edges as index pairs, and each
    action's pass path as node indices. Deterministic for a given
    (action space, graph) pair. *)

val validate : t -> (unit, string) result
(** [Error names] lists any pass names that do not resolve in the pass
    registry. *)
