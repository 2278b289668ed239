(** The phase-ordering RL environment (paper §III-A, Fig. 3).

    State: IR2Vec program embedding of the current module. Action: a
    sub-sequence of Oz passes from the chosen action space. Reward:
    Eqns 1–3 against the per-episode unoptimized baseline. Episodes run
    a fixed number of steps (15, as in the paper's Table VI). *)

type t

val default_max_steps : int
(** 15. *)

val create :
  ?weights:Reward.weights ->
  ?max_steps:int ->
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  target:Posetrl_codegen.Target.t ->
  actions:Posetrl_odg.Action_space.t ->
  unit -> t
(** [sanitize] checks every pass a step applies (the structural
    verifier at [Structural], SSA dominance from [Ssa] up); a failure
    raises {!Posetrl_analysis.Sanitize.Failed} out of {!step}. *)

val n_actions : t -> int

val state_dim : int
(** 300 — the IR2Vec embedding dimensionality. *)

val observe : Posetrl_ir.Modul.t -> float array
(** The state encoding of a module (embedding squashed into the unit
    ball). *)

val reset : t -> Posetrl_ir.Modul.t -> float array
(** Begin an episode on an unoptimized module; returns the initial state. *)

type step_result = {
  state : float array;
  reward : float;
  r_binsize : float;     (** unweighted Eqn-2 component of [reward] *)
  r_throughput : float;  (** unweighted Eqn-3 component of [reward] *)
  terminal : bool;
}

val step : t -> int -> step_result
(** Apply the action's pass sub-sequence and re-measure. A step whose
    passes changed nothing (they return the module itself, see
    {!Posetrl_passes.Pass.run}) is not re-measured or re-embedded: it
    returns the previous state array. A step on an action already seen
    to leave the current module unchanged runs no pass (and so no
    sanitizer check): passes are pure functions of their config and
    module, so it takes the unchanged path directly. States are shared,
    never mutated, by the environment or by its callers.
    @raise Invalid_argument if called before {!reset}. *)

val current_module : t -> Posetrl_ir.Modul.t
(** The module as transformed so far in this episode. *)

val episode_gain : t -> float * float
(** Cumulative (size gain %, throughput gain %) vs the episode baseline. *)
