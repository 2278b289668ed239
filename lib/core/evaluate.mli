(** Model-vs-Oz evaluation (paper Tables IV & V, Fig. 5). *)

type program_result = {
  prog_name : string;
  size_unopt : int;
  size_oz : int;
  size_model : int;
  time_oz : int option;    (** interpreter cycles; [None] if not executed *)
  time_model : int option;
  predicted : int list;    (** the rollout's action indices *)
}

val size_reduction_pct : program_result -> float
(** % size reduction of the model binary vs the Oz binary (positive =
    model smaller), the metric of Table IV. *)

val time_improvement_pct : program_result -> float option
(** % execution-time decrease vs Oz (positive = model faster), the
    metric of Table V. *)

val evaluate_program :
  ?measure_time:bool ->
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  agent:Posetrl_rl.Dqn.t ->
  actions:Posetrl_odg.Action_space.t ->
  target:Posetrl_codegen.Target.t ->
  name:string ->
  Posetrl_ir.Modul.t -> program_result
(** [sanitize] checks every pass both the Oz baseline and the model
    rollout apply (see {!Environment.create}). *)

val evaluate_programs :
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  ?pool:Posetrl_support.Pool.t ->
  agent:Posetrl_rl.Dqn.t ->
  actions:Posetrl_odg.Action_space.t ->
  target:Posetrl_codegen.Target.t ->
  (string * (unit -> Posetrl_ir.Modul.t)) list -> program_result list
(** Evaluate a list of (name, module-builder) programs, in input order.
    With [pool] the programs run across the pool's domains; results are
    byte-identical to the sequential path (greedy rollouts are RNG-free
    and [Pool.map] preserves order). Each program runs inside one
    [posetrl.eval.program] span (attr [program]) on the domain that
    evaluates it; with [pool], each task also feeds the
    [posetrl.pool.*] metrics. *)

type suite_summary = {
  suite : string;
  n : int;
  min_red : float;
  avg_red : float;
  max_red : float;
  avg_time_impr : float option;
}

val summarize_suite : suite:string -> program_result list -> suite_summary
(** The min/avg/max aggregation of Table IV plus the Table V average. *)

val suites_to_json :
  (suite_summary * program_result list) list -> Posetrl_obs.Json.t
(** The run ledger's [eval.json] document: per-suite summaries with the
    per-program rows nested under each ([Run.compare_runs] keys on the
    suite name and [avg_red]). *)
