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

type result = {
  agent : Posetrl_rl.Dqn.t;
  episodes : int;
  final_mean_reward : float;
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
    state width. *)

val default_folds :
  hyperparams -> Posetrl_odg.Action_space.t -> Posetrl_obs.Fold.t list
(** The step-stream folds {!train} keeps when no [folds] are passed, on
    the global registry: per-action reward attribution (labeled with
    each action's passes, [hp.max_episode_steps] positions) and
    {!make_coverage}. The CLI builds this list itself, so the same
    tables also back the live routes and the ledger writes. *)

val train :
  ?hp:hyperparams ->
  ?on_record:(Posetrl_obs.Json.t -> unit) ->
  ?on_step:(int -> unit) ->
  ?on_alert:(Posetrl_obs.Health.alert -> unit) ->
  ?inject_nan_at:int ->
  ?folds:Posetrl_obs.Fold.t list ->
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  seed:int ->
  corpus:Posetrl_ir.Modul.t array ->
  actions:Posetrl_odg.Action_space.t ->
  target:Posetrl_codegen.Target.t ->
  unit -> result
(** Train a phase-ordering agent. Deterministic per seed (DESIGN.md §9).
    Returns the best-probe-score snapshot when [hp.snapshot_every > 0],
    otherwise the final weights.

    [on_record] receives the run ledger's progress records, in the
    order [progress.jsonl] stores them: a
    {!Posetrl_obs.Runlog.tick_record} every 200 steps (windowed means,
    the [posetrl.dqn.q_*] gauges and the tick's
    {!Posetrl_obs.Prof.sample_gc} reading), and a
    {!Posetrl_obs.Runlog.episode_record} per finished episode (reward
    decomposition, actions and per-step rewards). The tick record of a
    step that also ends an episode comes first. Every field but the
    [gc_*] ones is deterministic per seed.

    [on_step] fires once per environment step (after the step's metric
    updates) with the global step index — the hook the CLI uses to pump
    the [--serve] telemetry server ({!Posetrl_obs.Httpd.pump}) without
    threads. It must be cheap and must not raise.

    [folds] get one {!Posetrl_obs.Fold.step} per environment step, with
    the pre-action embedding as its state, and one sample per tick,
    before the tick record. Their tables are deterministic per seed and
    equal their recompute from the [on_record] records
    ({!Posetrl_obs.Fold.recompute}).

    A {!Posetrl_obs.Health} watchdog ({!Posetrl_obs.Health.default_config})
    runs on every tick; [on_alert] fires once per alert as it happens
    (the CLI appends them to the run dir's [alerts.jsonl]), and the full
    list comes back in [result.alerts]. [inject_nan_at] poisons one
    online-network weight at that global step — fault injection for
    exercising the NaN watchdog end to end (CI; never set in real
    training). *)
