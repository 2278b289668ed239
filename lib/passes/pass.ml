(* The pass abstraction: a named module-to-module transformation.

   Names follow LLVM's pass flags (e.g. "simplifycfg", "early-cse-memssa")
   because the ODG, the action spaces and the experiment tables all refer
   to passes by those names. *)

open Posetrl_ir

(* Scope drives what the Equiv sanitizer tier may assume: a
   [Function_scope] pass transforms each definition independently, so its
   output functions can be validated one by one against their inputs; a
   [Module_scope] pass (inlining, IPO, global DCE) may change individual
   function behaviour while preserving whole-program behaviour, so only
   the entry point is compared. *)
type scope = Function_scope | Module_scope

type t = {
  name : string;
  description : string;
  scope : scope;
  run : Config.t -> Modul.t -> Modul.t;
}

let mk ?(scope = Module_scope) name ~description run =
  { name; description; scope; run }

(* Lift a per-function transform to a module pass over definitions. *)
let function_pass name ~description f =
  mk ~scope:Function_scope name ~description
    (fun cfg m -> Modul.map_defined (f cfg) m)

(* A pass that only has out-of-IR effects in real LLVM (barriers,
   instrumentation bookkeeping); here it is the identity on the IR. *)
let no_op_pass name ~description = mk name ~description (fun _ m -> m)

(* [x]'s namesake in [before] when the two are [equal], else [x]. *)
let reuse ~name ~equal before x =
  match List.find_opt (fun y -> String.equal (name y) (name x)) before with
  | Some y when equal y x -> y
  | _ -> x

(* "Unchanged" means physically equal: the input itself when the pass
   changed nothing, and otherwise the input's own copy of every function
   and global that came back equal. Everything downstream (the
   sanitizer, the environment's measurement and embedding) keys on
   [==]. *)
let run (p : t) (cfg : Config.t) (m : Modul.t) : Modul.t =
  let out = p.run cfg m in
  if Modul.equal m out then m
  else
    { out with
      Modul.funcs =
        List.map (reuse ~name:(fun f -> f.Func.name) ~equal:Func.equal m.Modul.funcs)
          out.Modul.funcs;
      globals =
        List.map
          (reuse ~name:(fun g -> g.Global.name) ~equal:Global.equal m.Modul.globals)
          out.Modul.globals }
