(** Training-health watchdog: anomaly rules evaluated on the trainer
    tick over a snapshot of the learner's vital signs. Fired alerts are
    retained in the engine, counted on the labeled
    [posetrl.alerts.total{rule=...}] counter, and returned to the caller
    for persistence in the run dir's [alerts.jsonl]. See DESIGN.md §12
    for the rule catalog and default thresholds. *)

type config = {
  collapse_pct : float;
  (** reward-collapse: windowed mean dropped more than this % below the
      trailing best windowed mean *)
  collapse_min_best : float;
  (** |trailing best| must reach this before collapse can fire *)
  q_explosion_abs : float;  (** |q_max| beyond this is an explosion *)
  stall_s : float;          (** seconds without a finished episode *)
  replay_age_factor : float;
  (** replay is stale when mean TD-age exceeds factor × capacity *)
  drift_kl : float;
  (** KL(current ‖ previous action-histogram window) beyond this is an
      abrupt policy shift *)
  max_alerts : int;         (** retained-alert cap (oldest dropped) *)
}

val default_config : config

val rules : string list
(** The rule catalog: ["nan_loss"; "reward_collapse"; "q_explosion";
    "stalled_episode"; "replay_stale"; "action_drift"]. *)

type sample = {
  s_step : int;
  s_episode : int;
  s_loss : float;
  s_mean_reward : float;      (** windowed mean episode reward *)
  s_q_max : float;
  s_replay_size : int;
  s_replay_capacity : int;
  s_replay_age_mean : float;  (** mean TD-age of buffered transitions, steps *)
  s_weights_finite : bool;    (** NaN/Inf scan of the online network *)
  s_actions : int array;      (** action histogram over the last window *)
}
(** One tick's vital signs, assembled by the trainer. *)

type alert = {
  a_rule : string;
  a_step : int;
  a_severity : string;   (** ["error"] or ["warn"] *)
  a_message : string;
  a_value : float;       (** the triggering reading; may be non-finite *)
}

type t
(** A watchdog engine (per training run). *)

val create : ?config:config -> ?registry:Metrics.t -> unit -> t
(** A fresh engine. [registry] receives the
    [posetrl.alerts.total{rule}] counters (default {!Metrics.global}).
    The stalled-episode rule reads {!Clock.now}, so the engine is
    deterministic under {!Clock.with_fake}. *)

val check : t -> sample -> alert list
(** Evaluate every rule against [sample]; returns the alerts that fired
    on this tick. Rules are edge-triggered: a condition fires once when
    it becomes true and re-arms when it clears, so a persistently sick
    run yields one alert per incident, not one per tick. *)

val alerts : t -> alert list
(** Every retained fired alert, oldest first (capped at
    [config.max_alerts]; the counter stays exact past the cap). *)

val kl : int array -> int array -> float
(** KL divergence between two count histograms with +1 Laplace
    smoothing (shorter array zero-padded) — the action-drift distance,
    also behind [Dashboard.drift], the [posetrl runs show] timeline. *)

val alert_to_json : alert -> Json.t
(** The [alerts.jsonl] record schema ([kind = "alert"]). Non-finite
    values encode as the strings ["nan"]/["inf"]/["-inf"] (JSON has no
    NaN literal). *)

val alert_of_json : Json.t -> alert option
(** Robust inverse of {!alert_to_json}, through {!Json.decode}: [None]
    when [rule] or [step] is missing or mistyped, never an exception. A
    missing [severity] reads as ["warn"], a missing [message] as [""].
    The one reader of alert records: [posetrl runs show] and [posetrl
    watch] render what it returns. *)

val render : (alert list * int) option -> string
(** The alerts section of [posetrl runs show]: [None] — the run predates
    the watchdog; [Some (alerts, torn)] — one line per decoded alert
    (severity, rule, step, message), then the torn-line count. *)
