(** DDQN training loop (paper §V-A). *)

type hyperparams = {
  total_steps : int;
  epsilon : Posetrl_rl.Schedule.t;
  batch_size : int;
  train_every : int;         (** µ — train on a sampled batch every µ steps *)
  target_sync_every : int;
  replay_capacity : int;
  warmup_steps : int;
  gamma : float;
  lr : float;
  hidden : int list;
  max_episode_steps : int;
  double : bool;             (** Double DQN (paper) vs vanilla target *)
  reward_scale : float;      (** learner-side reward factor; 1.0 default *)
  snapshot_every : int;      (** best-snapshot probe period; 0 disables *)
}

val paper : hyperparams
(** The paper's schedule: 20 100 steps, ε 1.0 → 0.01 over 20 000, lr 1e-4,
    episodes of 15 steps, replay 10k, Double DQN. *)

val fast : hyperparams
(** A scaled-down schedule for quick experiments and the bench harness. *)

type progress = {
  step : int;
  episode : int;
  epsilon_now : float;
  mean_reward : float;
  mean_size_gain : float;
  r_binsize : float;     (** windowed mean per-episode Eqn-2 component sum *)
  r_throughput : float;  (** windowed mean per-episode Eqn-3 component sum *)
  loss : float;
}

type episode_summary = {
  ep_index : int;
  ep_end_step : int;
  ep_reward : float;
  ep_r_binsize : float;     (** episode sum of unweighted Eqn-2 components *)
  ep_r_throughput : float;  (** episode sum of unweighted Eqn-3 components *)
  ep_size_gain_pct : float;
  ep_thru_gain_pct : float;
  ep_epsilon : float;
  ep_loss : float;
  ep_actions : int list;    (** sub-sequence ids taken this episode, in order *)
  ep_step_rewards : (float * float * float) list;
  (** per-step (reward, r_binsize, r_throughput), aligned with
      [ep_actions] — persisted so attribution is recomputable from the
      ledger alone *)
}
(** One record per finished episode; the run ledger streams these to
    [progress.jsonl] as the reward-decomposition telemetry. *)

type result = {
  agent : Posetrl_rl.Dqn.t;
  episodes : int;
  final_mean_reward : float;
  attrib : Posetrl_rl.Attrib.t;
  (** streaming per-action reward attribution over the whole run;
      byte-identical across [--jobs] settings *)
  coverage : Posetrl_obs.Coverage.t;
  (** streaming decision-space coverage (ODG node/edge visits,
      transition matrix, entropy series, state sketch); same
      determinism contract as [attrib] *)
  alerts : Posetrl_obs.Health.alert list;
  (** watchdog alerts fired during the run, oldest first *)
}

val coverage_universe :
  Posetrl_odg.Action_space.t -> Posetrl_obs.Coverage.universe
(** The decision-space universe of an action space over the default
    ODG, packaged for {!Posetrl_obs.Coverage}. *)

val make_coverage :
  ?registry:Posetrl_obs.Metrics.t ->
  Posetrl_odg.Action_space.t -> Posetrl_obs.Coverage.t
(** A fresh coverage table over {!coverage_universe} with the IR2Vec
    state width — what {!train} builds when no [coverage] is passed.
    The CLI builds one itself (with the global registry) so the same
    table can both feed training and back the live [/coverage]
    endpoint. *)

val train :
  ?hp:hyperparams ->
  ?on_progress:(progress -> unit) ->
  ?on_episode:(episode_summary -> unit) ->
  ?on_step:(int -> unit) ->
  ?health:Posetrl_obs.Health.config ->
  ?on_alert:(Posetrl_obs.Health.alert -> unit) ->
  ?inject_nan_at:int ->
  ?coverage:Posetrl_obs.Coverage.t ->
  ?pool:Posetrl_support.Pool.t ->
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  ?repro_dir:string ->
  seed:int ->
  corpus:Posetrl_ir.Modul.t array ->
  actions:Posetrl_odg.Action_space.t ->
  target:Posetrl_codegen.Target.t ->
  unit -> result
(** Train a phase-ordering agent. Deterministic per seed — including
    under [pool], which parallelizes the batch dimension of the DQN's
    gemm kernels by row partitioning (byte-identical arithmetic; see
    DESIGN.md §9). Returns the best-probe-score snapshot when
    [hp.snapshot_every > 0], otherwise the final weights.

    [on_step] fires once per environment step (after the step's metric
    updates) with the global step index — the hook the CLI uses to pump
    the [--serve] telemetry server ({!Posetrl_obs.Httpd.pump}) without
    threads. It must be cheap and must not raise.

    A {!Posetrl_obs.Health} watchdog (configured by [health]) runs on
    every progress tick; [on_alert] fires once per alert as it happens
    (the CLI appends them to the run dir's [alerts.jsonl]), and the full
    list comes back in [result.alerts]. [inject_nan_at] poisons one
    online-network weight at that global step — fault injection for
    exercising the NaN watchdog end to end (CI; never set in real
    training). *)
