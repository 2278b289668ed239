(* Sequencing of passes by name, with optional per-pass semantic
   sanitizing (the test suite's main weapon against miscompiling
   passes).

   [~sanitize] is the one per-pass IR check: the input of a run is
   verified once, and after every pass that changed the module the
   output is re-verified at the requested level (structural, structural
   + SSA dominance, or — at [equiv] — also translation-validated against
   the pass input); on failure the failing input is delta-minimized by
   re-running just that pass, the repro is written to [~repro_dir] (a
   run ledger's repros/ directory in the CLI), and
   [Posetrl_analysis.Sanitize.Failed] is raised. A pass that changed
   nothing returns its input ([Pass.run]), which has already passed. *)

open Posetrl_ir
module Obs = Posetrl_obs
module Sanitize = Posetrl_analysis.Sanitize

type stats = {
  pass_name : string;
  insns_before : int;
  insns_after : int;
  seconds : float;
}

let m_pass_runs = Obs.Metrics.counter "posetrl.pass.runs"

(* Run [p] on [m], sanitizing the output when asked. Exposed so tests
   can drive a hand-built (e.g. deliberately broken) pass through the
   exact production sanitize path without registering it. *)
let run_pass ?(sanitize = Sanitize.Off) ?repro_dir (p : Pass.t)
    (cfg : Config.t) (m : Modul.t) : Modul.t =
  let out = Pass.run p cfg m in
  let per_function = p.Pass.scope = Pass.Function_scope in
  (match Sanitize.check_transform sanitize ~per_function ~before:m out with
   | [] -> ()
   | errors ->
     Sanitize.fail ~pass:p.Pass.name ~level:sanitize ~per_function ~repro_dir
       ~run_pass:(fun m -> Pass.run p cfg m) ~errors m);
  out

(* Run one named pass, with a [posetrl.pass.run] span carrying the
   before/after instruction counts when a trace sink is installed. The
   insn_count walks only happen when someone (trace or ~collect) will
   see them. *)
let run_one ~sanitize ~repro_dir (cfg : Config.t) (name : string)
    (m : Modul.t) : Modul.t =
  let p = Registry.find_exn name in
  Obs.Metrics.inc m_pass_runs;
  if not (Obs.Span.enabled ()) then run_pass ~sanitize ?repro_dir p cfg m
  else
    Obs.Span.with_ "posetrl.pass.run"
      ~attrs:[ ("pass", Obs.Event.S name) ]
      (fun sp ->
        let before = Modul.insn_count m in
        let m' = run_pass ~sanitize ?repro_dir p cfg m in
        let after = Modul.insn_count m' in
        Obs.Span.set_attr sp "insns_before" (Obs.Event.I before);
        Obs.Span.set_attr sp "insns_after" (Obs.Event.I after);
        Obs.Span.set_attr sp "d_insns" (Obs.Event.I (before - after));
        m')

let run_names ?(sanitize = Sanitize.Off) ?repro_dir ?(collect = false) (cfg : Config.t) (names : string list) (m : Modul.t) :
    Modul.t * stats list =
  (match Sanitize.check_module sanitize m with
   | [] -> ()
   | errors -> raise (Sanitize.Failed { pass = "input"; errors; repro_path = None }));
  let stats = ref [] in
  let m =
    List.fold_left
      (fun m name ->
        let before = if collect then Modul.insn_count m else 0 in
        let t0 = if collect then Unix.gettimeofday () else 0.0 in
        let m' = run_one ~sanitize ~repro_dir cfg name m in
        if collect then
          stats :=
            { pass_name = name;
              insns_before = before;
              insns_after = Modul.insn_count m';
              seconds = Unix.gettimeofday () -. t0 }
            :: !stats;
        m')
      m names
  in
  (m, List.rev !stats)

let run ?(sanitize = Sanitize.Off) ?repro_dir (cfg : Config.t)
    (names : string list) (m : Modul.t) : Modul.t =
  fst (run_names ~sanitize ?repro_dir cfg names m)

(* Run a standard -Olevel pipeline. *)
let run_level ?(sanitize = Sanitize.Off) ?repro_dir (level : Pipelines.level)
    (m : Modul.t) : Modul.t =
  run ~sanitize ?repro_dir (Pipelines.config_of level)
    (Pipelines.sequence_of level) m
