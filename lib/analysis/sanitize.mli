(* The semantic sanitizer: structural verification, SSA dominance
   checking and (at [Equiv]) translation validation, run after every
   pass when the pass manager's [~sanitize] level asks for it. A failure
   carries the delta-minimized failing input; [write_repro] saves it.

   Levels:
     - [Off]        — no checking (production default)
     - [Structural] — the structural verifier only
     - [Ssa]        — structural + dominance
     - [Equiv]      — Ssa plus translation validation: every pass
                      application is differentially simulated against
                      its input on seeded concrete inputs
                      ([Equiv.validate]); a behavioural divergence fails
                      the pass exactly like a verifier error. *)

open Posetrl_ir

type level = Off | Structural | Ssa | Equiv

val level_to_string : level -> string

(* Accepts "off", "structural", "ssa"/"full", "equiv"/"tv". *)
val level_of_string : string -> (level, string) result

(* Verifier errors for [m] at [level]; [] at [Off]. [Equiv] checks the
   same well-formedness as [Ssa] here — behavioural validation needs
   the pre-pass module too and lives in [check_transform]. *)
val check_module : level -> Modul.t -> Verifier.error list

(* Check one pass application at [level]: well-formedness of the after
   module, plus (at [Equiv], when it is well-formed) differential
   simulation against [before]. [per_function] should be false for
   module-scope passes (inlining/IPO), whose per-function behaviour may
   legitimately change. Returns [] when the after module is [before]
   itself ([==]): callers pass a [before] that has already been checked. *)
val check_transform :
  level -> ?per_function:bool -> before:Modul.t -> Modul.t ->
  Verifier.error list

(* [pass] names the pass whose output failed the [level] check, or is
   ["input"] when the module handed to the pass manager failed before
   any pass ran. [repro] is the pass's input, delta-minimized so that
   the pass still fails on it; [None] for ["input"]. *)
exception Failed of {
  pass : string;
  level : level;
  errors : Verifier.error list;
  repro : Modul.t option;
}

(* Full failure protocol used by the pass manager: minimize the failing
   input by re-running the pass through [run_pass] and raise [Failed]. *)
val fail :
  pass:string -> level:level -> ?per_function:bool ->
  run_pass:(Modul.t -> Modul.t) -> errors:Verifier.error list ->
  Modul.t -> 'a

(* Write a failure's repro into [dir] (created if missing) as
   [sanitize-<pass>-<module>.mir] plus a [.json] sidecar naming the
   pass, level and errors; returns the .mir path. Bumps
   [posetrl.analysis.sanitize.repros]. *)
val write_repro :
  dir:string -> pass:string -> level:level -> errors:Verifier.error list ->
  Modul.t -> string
