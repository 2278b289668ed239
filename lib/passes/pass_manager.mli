(** Sequencing of passes by name, with optional per-pass semantic
    sanitizing ([~sanitize]): at [Structural] or above the input is
    verified once and every pass output that differs from its input is
    re-verified; on failure {!Posetrl_analysis.Sanitize.Failed} is
    raised carrying the delta-minimized failing input. *)

open Posetrl_ir

val run_pass :
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  Pass.t -> Config.t -> Modul.t -> Modul.t
(** Run a single (possibly unregistered) pass through the production
    sanitize path. Tests use this to prove the sanitizer catches
    a deliberately miscompiling pass. *)

val run :
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  Config.t -> string list -> Modul.t -> Modul.t
(** Run the named passes in order, each inside a [posetrl.pass.run]
    span whose [insns_before]/[insns_after] attributes count the
    module's instructions. Unknown names raise [Invalid_argument]; an
    input that fails the [~sanitize] check raises
    {!Posetrl_analysis.Sanitize.Failed} with [pass = "input"]. *)

val run_level :
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  Pipelines.level -> Modul.t -> Modul.t
(** Run a standard -O level pipeline with its matching config. *)
