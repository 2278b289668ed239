(** Greedy policy rollout (the predicted sequences of paper Table VI). *)

type rollout = {
  actions : int list;            (** chosen action indices, in order *)
  optimized : Posetrl_ir.Modul.t; (** the module after applying them *)
  reward : float;
  (** the episode's step rewards (Eqn 1), added in step order *)
}

val predict_batch :
  ?max_steps:int ->
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  agent:Posetrl_rl.Dqn.t ->
  actions:Posetrl_odg.Action_space.t ->
  target:Posetrl_codegen.Target.t ->
  Posetrl_ir.Modul.t list -> rollout list
(** Roll the greedy policy out on every unoptimized module, in
    lockstep: at each episode step one {!Posetrl_rl.Dqn.greedy_actions}
    gemm scores all the states. Each rollout is the one the module would
    get on its own; results come back in input order. *)

val predict :
  ?max_steps:int ->
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  agent:Posetrl_rl.Dqn.t ->
  actions:Posetrl_odg.Action_space.t ->
  target:Posetrl_codegen.Target.t ->
  Posetrl_ir.Modul.t -> rollout
(** {!predict_batch} on one module. *)

val apply_sequence :
  actions:Posetrl_odg.Action_space.t ->
  int list -> Posetrl_ir.Modul.t -> Posetrl_ir.Modul.t
(** Replay an explicit action-index sequence. *)
