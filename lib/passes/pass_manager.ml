(* Sequencing of passes by name, with optional per-pass semantic
   sanitizing (the test suite's main weapon against miscompiling
   passes).

   [~sanitize] is the one per-pass IR check: the input of a run is
   verified once, and after every pass that changed the module the
   output is re-verified at the requested level (structural, structural
   + SSA dominance, or — at [equiv] — also translation-validated against
   the pass input); on failure the failing input is delta-minimized by
   re-running just that pass and [Posetrl_analysis.Sanitize.Failed] is
   raised carrying it, for the caller to save or inspect. A pass that
   changed nothing returns its input ([Pass.run]), which has already
   passed. *)

open Posetrl_ir
module Obs = Posetrl_obs
module Sanitize = Posetrl_analysis.Sanitize

let m_pass_runs = Obs.Metrics.counter "posetrl.pass.runs"

(* Run [p] on [m], sanitizing the output when asked. Exposed so tests
   can drive a hand-built (e.g. deliberately broken) pass through the
   exact production sanitize path without registering it. *)
let run_pass ?(sanitize = Sanitize.Off) (p : Pass.t) (cfg : Config.t)
    (m : Modul.t) : Modul.t =
  let out = Pass.run p cfg m in
  let per_function = p.Pass.scope = Pass.Function_scope in
  (match Sanitize.check_transform sanitize ~per_function ~before:m out with
   | [] -> ()
   | errors ->
     Sanitize.fail ~pass:p.Pass.name ~level:sanitize ~per_function
       ~run_pass:(fun m -> Pass.run p cfg m) ~errors m);
  out

(* Run one named pass, with a [posetrl.pass.run] span carrying the
   before/after instruction counts when a trace sink is installed. The
   insn_count walks only happen when a trace will see them. *)
let run_one ~sanitize (cfg : Config.t) (name : string) (m : Modul.t) :
    Modul.t =
  let p = Registry.find_exn name in
  Obs.Metrics.inc m_pass_runs;
  if not (Obs.Span.enabled ()) then run_pass ~sanitize p cfg m
  else
    Obs.Span.with_ "posetrl.pass.run"
      ~attrs:[ ("pass", Obs.Event.S name) ]
      (fun sp ->
        let before = Modul.insn_count m in
        let m' = run_pass ~sanitize p cfg m in
        let after = Modul.insn_count m' in
        Obs.Span.set_attr sp "insns_before" (Obs.Event.I before);
        Obs.Span.set_attr sp "insns_after" (Obs.Event.I after);
        Obs.Span.set_attr sp "d_insns" (Obs.Event.I (before - after));
        m')

let run ?(sanitize = Sanitize.Off) (cfg : Config.t) (names : string list)
    (m : Modul.t) : Modul.t =
  (match Sanitize.check_module sanitize m with
   | [] -> ()
   | errors ->
     raise
       (Sanitize.Failed { pass = "input"; level = sanitize; errors; repro = None }));
  List.fold_left (fun m name -> run_one ~sanitize cfg name m) m names

(* Run a standard -Olevel pipeline. *)
let run_level ?(sanitize = Sanitize.Off) (level : Pipelines.level)
    (m : Modul.t) : Modul.t =
  run ~sanitize (Pipelines.config_of level) (Pipelines.sequence_of level) m
