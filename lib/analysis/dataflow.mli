(* Generic monotone forward dataflow framework over a function CFG: a
   client supplies a join-semilattice and a per-block transfer function,
   and [Make(L).solve] runs the classic worklist algorithm in reverse
   post-order to a fixed point. Transfer functions must be monotone and
   the lattice of finite height; a safety bound turns an accidental
   non-monotone transfer into an exception instead of a hang. All
   solver state is allocated per call, so concurrent solves from
   different domains are safe. *)

open Posetrl_ir

module SMap :
  Map.S with type key = string and type 'a t = 'a Map.Make(String).t

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) : sig
  type result = {
    at_entry : L.t SMap.t;  (* joined fact entering the block's transfer *)
    iterations : int;       (* transfer applications until the fixpoint *)
  }

  val entry_fact : result -> string -> L.t

  (* [solve ~transfer f] computes the fixpoint. [init] is the boundary
     fact fed into the entry block. [edge ~pred ~succ fact] refines the
     fact flowing along one CFG edge before it is joined — the abstract
     interpreter uses it for branch refinement; it defaults to the
     identity. *)
  val solve :
    ?init:L.t ->
    ?edge:(pred:string -> succ:string -> L.t -> L.t) ->
    transfer:(Block.t -> L.t -> L.t) ->
    Func.t ->
    result
end
