(* The semantic sanitizer: structural verification plus SSA dominance
   checking, run after every pass that changed its module when the pass
   manager's [~sanitize] level asks for it. A failure carries the
   delta-minimized failing input, which [write_repro] puts on disk.

   Levels:
     - [Off]        — no checking (production default)
     - [Structural] — the structural verifier only
     - [Ssa]        — structural + dominance ([Verifier ~dom:true])
     - [Equiv]      — Ssa plus translation validation: every pass
                      application is differentially simulated against its
                      input on seeded concrete inputs ([Equiv.validate]);
                      a behavioural divergence fails the pass exactly like
                      a verifier error, including the minimized repro.

   Instrumentation follows the repo convention: counters
   [posetrl.analysis.sanitize.checks] / [.failures], span
   [posetrl.analysis.sanitize.check]. All checking state is per-call
   (the verifier and dominator computation allocate locally) or
   domain-local ([Equiv]'s memo of main observations), so sanitized
   evaluation is safe under [--jobs N]. *)

open Posetrl_ir
module Obs = Posetrl_obs

type level = Off | Structural | Ssa | Equiv

let level_to_string = function
  | Off -> "off"
  | Structural -> "structural"
  | Ssa -> "ssa"
  | Equiv -> "equiv"

let level_of_string = function
  | "off" -> Ok Off
  | "structural" -> Ok Structural
  | "ssa" | "full" -> Ok Ssa
  | "equiv" | "tv" -> Ok Equiv
  | s ->
    Error (Printf.sprintf "unknown sanitize level %S (off|structural|ssa|equiv)" s)

let wants_dom = function Off | Structural -> false | Ssa | Equiv -> true

(* Verifier errors for [m] at [level]; [] at [Off]. [Equiv] checks the
   same well-formedness as [Ssa] here — behavioural validation needs the
   pre-pass module too and lives in [check_transform]. *)
let check_module (level : level) (m : Modul.t) : Verifier.error list =
  match level with
  | Off -> []
  | Structural | Ssa | Equiv ->
    Obs.Span.with_ "posetrl.analysis.sanitize.check"
      ~attrs:[ ("level", Obs.Event.S (level_to_string level)) ]
      (fun sp ->
        Obs.Metrics.inc (Obs.Metrics.counter "posetrl.analysis.sanitize.checks");
        let errs = Verifier.verify_module ~dom:(wants_dom level) m in
        if errs <> [] then begin
          Obs.Metrics.inc
            ~by:(float_of_int (List.length errs))
            (Obs.Metrics.counter "posetrl.analysis.sanitize.failures");
          Obs.Span.set_attr sp "errors" (Obs.Event.I (List.length errs))
        end;
        errs)

let mismatch_errors (ms : Equiv.mismatch list) : Verifier.error list =
  List.map
    (fun (m : Equiv.mismatch) ->
      { Verifier.func = m.Equiv.func;
        block = None;
        message = "translation validation: " ^ m.Equiv.detail })
    ms

(* Check one pass application at [level]: well-formedness of [after],
   plus (at [Equiv], when [after] is well-formed) differential simulation
   against [before]. [per_function] should be false for module-scope
   passes (inlining/IPO), whose per-function behaviour may legitimately
   change. An application that returned its input is not checked: every
   caller's [before] has already passed. *)
let check_transform (level : level) ?(per_function = true) ~(before : Modul.t)
    (after : Modul.t) : Verifier.error list =
  if after == before then []
  else
    match check_module level after with
    | (_ :: _) as errs -> errs
    | [] ->
      if level = Equiv then
        Obs.Span.with_ "posetrl.analysis.sanitize.equiv" (fun _ ->
            let ms = Equiv.validate ~per_function ~before after in
            let errs = mismatch_errors ms in
            if errs <> [] then
              Obs.Metrics.inc
                ~by:(float_of_int (List.length errs))
                (Obs.Metrics.counter "posetrl.analysis.sanitize.failures");
            errs)
      else []

exception Failed of {
  pass : string;
  level : level;
  errors : Verifier.error list;
  repro : Modul.t option;
}

let () =
  Printexc.register_printer (function
    | Failed { pass; errors; _ } ->
      Some
        (Printf.sprintf "sanitizer: %s invalid IR (%d error%s)\n%s"
           (if String.equal pass "input" then "input is"
            else Printf.sprintf "pass %s produced" pass)
           (List.length errors)
           (if List.length errors = 1 then "" else "s")
           (String.concat "\n" (List.map Verifier.error_to_string errors)))
    | _ -> None)

(* Shrink the failing input with the greedy delta debugger. [run_pass]
   re-runs the offending pass on a candidate input; a candidate counts
   as still-failing when the pass either raises or produces IR the
   sanitizer rejects. Validity = the candidate input itself passes the
   same check the original input passed. *)
let minimize_input ~(level : level) ?(per_function = true)
    ~(run_pass : Modul.t -> Modul.t) (input : Modul.t) : Modul.t =
  let dom = wants_dom level in
  let valid c = Verifier.verify_module ~dom c = [] in
  let check c =
    match run_pass c with
    | exception _ -> true
    | out -> check_transform level ~per_function ~before:c out <> []
  in
  Obs.Span.with_ "posetrl.analysis.sanitize.minimize" (fun sp ->
      let minimized = Delta.minimize ~valid ~check input in
      Obs.Span.set_attr sp "funcs"
        (Obs.Event.I (List.length minimized.Modul.funcs));
      minimized)

(* Write the minimized repro as a .mir next to a .json describing the
   failure; returns the .mir path. [dir] is created if missing. *)
let write_repro ~(dir : string) ~(pass : string) ~(level : level)
    ~(errors : Verifier.error list) (repro : Modul.t) : string =
  Obs.Runlog.mkdir_p dir;
  let base =
    (* distinct per (pass, module); repeated failures overwrite, which
       is what a debugging loop wants *)
    Printf.sprintf "sanitize-%s-%s" pass repro.Modul.name
  in
  let mir_path = Filename.concat dir (base ^ ".mir") in
  let oc = open_out mir_path in
  output_string oc (Printer.module_to_string repro);
  close_out oc;
  let meta =
    Obs.Json.Obj
      [ ("kind", Obs.Json.Str "sanitize-repro");
        ("pass", Obs.Json.Str pass);
        ("level", Obs.Json.Str (level_to_string level));
        ("module", Obs.Json.Str repro.Modul.name);
        ("input", Obs.Json.Str (Filename.basename mir_path));
        ("errors",
         Obs.Json.Arr
           (List.map
              (fun e -> Obs.Json.Str (Verifier.error_to_string e))
              errors)) ]
  in
  Obs.Runlog.write_json_file (Filename.concat dir (base ^ ".json")) meta;
  Obs.Metrics.inc (Obs.Metrics.counter "posetrl.analysis.sanitize.repros");
  mir_path

(* Full failure protocol used by the pass manager: the output of [pass]
   on [input] failed the [level] check — minimize [input] and raise
   [Failed] carrying the result. *)
let fail ~(pass : string) ~(level : level) ?(per_function = true)
    ~(run_pass : Modul.t -> Modul.t) ~(errors : Verifier.error list)
    (input : Modul.t) : 'a =
  let repro = minimize_input ~level ~per_function ~run_pass input in
  raise (Failed { pass; level; errors; repro = Some repro })
