(* Interprocedural flow-insensitive alias analysis.

   Per function, an Andersen-style points-to pass maps every pointer
   value to a set of abstract locations (allocas by defining register,
   globals by name, or the unknown location); per module, a bottom-up
   fixpoint over the call graph summarizes which globals each function
   may read or write ([modref]). Everything is a may-analysis: absence
   from a set is a proof, presence is only a possibility. *)

open Posetrl_ir

module ISet : Set.S with type elt = int and type t = Set.Make(Int).t

(* An abstract memory location: a local alloca (by its defining
   register), a module global, or the unknown location standing for
   escaped / external memory. *)
type loc = LAlloca of int | LGlobal of string | LUnknown

module LSet : Set.S with type elt = loc

(* Per-function points-to facts. *)
type finfo

val of_func : Func.t -> finfo

(* Locations [v] may point to; pointers the analysis cannot resolve get
   the unknown location. *)
val pts : finfo -> Value.t -> LSet.t

(* May the two locations denote overlapping memory? [LUnknown] overlaps
   everything except non-escaping allocas. *)
val locs_overlap : finfo -> loc -> loc -> bool

(* May the two pointer values reference overlapping memory?
   Syntactically equal values always may-alias. *)
val may_alias : finfo -> Value.t -> Value.t -> bool

(* Every location in [s] is a non-escaping alloca. *)
val all_private : finfo -> LSet.t -> bool

(* Could a call (to any function) read or write the memory [p] points
   to? False exactly when everything [p] may reference is private. *)
val call_may_touch : finfo -> Value.t -> bool

(* Which globals a function may read/write; [mod_unknown]/[ref_unknown]
   cover writes/reads through escaped or external memory. *)
type modref = {
  mod_globals : Set.Make(String).t;
  ref_globals : Set.Make(String).t;
  mod_unknown : bool;
  ref_unknown : bool;
}

val modref_top : modref
val modref_equal : modref -> modref -> bool

(* Module-wide summary: per-function points-to plus the mod/ref
   fixpoint over the call graph. *)
type t

val summarize : Modul.t -> t

(* Mod/ref summary for the named function; [modref_top] for unknown or
   external functions. *)
val modref_of : t -> string -> modref
