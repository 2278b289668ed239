(* Flow-insensitive points-to facts for one function.

   An Andersen-style pass maps every pointer value to a set of abstract
   locations (allocas by defining register, globals by name, or the
   unknown location) and records which allocas escape. Everything is a
   may-analysis: absence from a set is a proof, presence is only a
   possibility. Lint's may-alias-store-conflict rule is the only
   reader. *)

open Posetrl_ir

(* Per-function points-to facts. *)
type finfo

val of_func : Func.t -> finfo

(* May the two pointer values reference overlapping memory?
   Syntactically equal values always may-alias; an alloca whose address
   never escapes aliases no pointer the function did not derive from
   it. *)
val may_alias : finfo -> Value.t -> Value.t -> bool
