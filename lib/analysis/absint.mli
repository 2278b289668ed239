(* Forward abstract interpretation over MiniIR: a product domain of
   signed integer intervals, float constancy and pointer nullness, run
   on the generic dataflow solver with per-edge refinement (branch
   conditions, switch keys and phi bindings narrow the fact flowing
   along each CFG edge) and widening after a visit budget so loops
   converge. Everything is an over-approximation: the concrete value of
   a register at its definition is always contained in its abstract
   value. *)

open Posetrl_ir

module IMap : Map.S with type key = int and type 'a t = 'a Map.Make(Int).t

module SMap :
  Map.S with type key = string and type 'a t = 'a Map.Make(String).t

(* Abstract value of one SSA register. [Range] is a signed inclusive
   interval; [Fconst] a known-constant float; [PNull]/[PNonNull]/
   [PAny] pointer nullness; [Bot] unreachable / no value. *)
type aval =
  | Bot
  | Range of int64 * int64
  | Fconst of float
  | PNull
  | PNonNull
  | PAny
  | Top

val aval_to_string : aval -> string
val aval_equal : aval -> aval -> bool
val join_aval : aval -> aval -> aval

(* Could the abstract value contain the concrete integer [v]? *)
val contains_int : aval -> int64 -> bool

(* Could [x op y] at type [ty] wrap around the type's bounds? False
   only when the intervals prove it cannot (a full-range operand is
   treated as "no information", not as a guaranteed wrap). *)
val may_overflow : Instr.binop -> Types.t -> aval -> aval -> bool

(* Abstract environment at a block entry: register -> abstract value,
   or [Unreached] when no path can arrive. *)
type env = Unreached | Env of aval IMap.t

type t = {
  entry_env : env SMap.t; (* joined, phi-bound fact at each block entry *)
  vals : aval IMap.t;     (* abstract value of every register at its def *)
  iterations : int;
}

val of_func : Func.t -> t

(* Abstract value of register [r] at its definition; [Bot] if never
   computed (e.g. the defining block is unreachable). *)
val val_of : t -> int -> aval

(* Can the labelled block execute at all, given the path conditions? *)
val reachable : t -> string -> bool
