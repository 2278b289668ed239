(** Sequencing of passes by name, with optional per-pass semantic
    sanitizing ([~sanitize]): at [Structural] or above the input is
    verified once and every pass output that differs from its input is
    re-verified; on failure the failing input is delta-minimized and
    written to [~repro_dir] before {!Posetrl_analysis.Sanitize.Failed}
    is raised. *)

open Posetrl_ir

type stats = {
  pass_name : string;
  insns_before : int;
  insns_after : int;
  seconds : float;
}

val run_pass :
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  ?repro_dir:string ->
  Pass.t -> Config.t -> Modul.t -> Modul.t
(** Run a single (possibly unregistered) pass through the production
    sanitize path. Tests use this to prove the sanitizer catches
    a deliberately miscompiling pass. *)

val run_names :
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  ?repro_dir:string ->
  ?collect:bool ->
  Config.t -> string list -> Modul.t -> Modul.t * stats list
(** Run the named passes in order; with [~collect:true] per-pass stats
    are gathered. Unknown names raise [Invalid_argument]; an input that
    fails the [~sanitize] check raises
    {!Posetrl_analysis.Sanitize.Failed} with [pass = "input"]. *)

val run :
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  ?repro_dir:string ->
  Config.t -> string list -> Modul.t -> Modul.t

val run_level :
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  ?repro_dir:string ->
  Pipelines.level -> Modul.t -> Modul.t
(** Run a standard -O level pipeline with its matching config. *)
