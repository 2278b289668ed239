(** The pass abstraction: a named module-to-module transformation.

    Names follow LLVM's pass flags (e.g. ["simplifycfg"],
    ["early-cse-memssa"]) because the ODG, the action spaces and the
    experiment tables refer to passes by those names. *)

open Posetrl_ir

type scope = Function_scope | Module_scope
(** What the Equiv sanitizer tier may assume about a pass: a
    [Function_scope] pass transforms each definition independently (its
    functions can be validated one by one), a [Module_scope] pass may
    move behaviour between functions and is judged through the entry
    point only. *)

type t = {
  name : string;
  description : string;
  scope : scope;
  run : Config.t -> Modul.t -> Modul.t;
}

val mk :
  ?scope:scope ->
  string ->
  description:string ->
  (Config.t -> Modul.t -> Modul.t) ->
  t
(** [mk] defaults to [Module_scope] — the conservative choice. *)

val function_pass :
  string -> description:string -> (Config.t -> Func.t -> Func.t) -> t
(** Lift a per-function transform over every function definition. *)

val no_op_pass : string -> description:string -> t
(** A pass with no IR effect (pass-manager barriers, instrumentation
    hooks our programs never request). *)

val run : t -> Config.t -> Modul.t -> Modul.t
(** Run the pass, unchecked; {!Pass_manager.run_pass} adds the
    sanitizer's per-pass IR check. The result shares what the pass left
    unchanged with the input: it is the input itself when it is
    {!Posetrl_ir.Modul.equal} to it, and otherwise every function and
    global equal to its same-named input is the input's own copy
    ([==]). *)
