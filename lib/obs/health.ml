(* Training-health watchdog: a rule engine the trainer evaluates once
   per tick over a snapshot of the learner's vital signs.

   Rules are edge-triggered — an alert fires when its condition becomes
   true and re-arms when the condition clears — so a persistently sick
   run produces one alert per incident, not one per tick. Every fired
   alert is kept in the engine (capped), counted on the labeled
   posetrl.alerts.total{rule=...} counter, and handed back to the caller
   for persistence (the CLI appends them to the run dir's crash-tolerant
   alerts.jsonl).

   The stalled-episode rule is the only one that reads the clock
   ({!Clock.now}), so the whole engine is testable under a fake clock. *)

type config = {
  collapse_pct : float;
  (* reward-collapse: windowed mean dropped more than this % below the
     trailing best windowed mean *)
  collapse_min_best : float;
  (* |trailing best| must reach this before collapse can fire (a drop
     from 0.01 to -0.01 is noise, not a collapse) *)
  q_explosion_abs : float;    (* |q_max| beyond this is an explosion *)
  stall_s : float;            (* seconds without a finished episode *)
  replay_age_factor : float;
  (* replay is stale when the mean TD-age exceeds factor × capacity *)
  drift_kl : float;
  (* KL(current window action histogram ‖ previous window) beyond this
     is an abrupt policy shift; gradual ε-annealing stays below it *)
  max_alerts : int;           (* retained-alert cap (oldest dropped) *)
}

let default_config =
  { collapse_pct = 50.0;
    collapse_min_best = 1.0;
    q_explosion_abs = 1e6;
    stall_s = 300.0;
    replay_age_factor = 4.0;
    drift_kl = 1.0;
    max_alerts = 256 }

let rules =
  [ "nan_loss"; "reward_collapse"; "q_explosion"; "stalled_episode";
    "replay_stale"; "action_drift" ]

type sample = {
  s_step : int;
  s_episode : int;
  s_loss : float;
  s_mean_reward : float;       (* windowed mean episode reward *)
  s_q_max : float;
  s_replay_size : int;
  s_replay_capacity : int;
  s_replay_age_mean : float;   (* mean TD-age of buffered transitions, steps *)
  s_weights_finite : bool;     (* NaN/Inf scan of the online network *)
  s_actions : int array;       (* action histogram over the last window *)
}

type alert = {
  a_rule : string;
  a_step : int;
  a_severity : string;         (* "error" or "warn" *)
  a_message : string;
  a_value : float;             (* the triggering reading; may be non-finite *)
}

type t = {
  cfg : config;
  registry : Metrics.t;
  mutable best_reward : float;
  mutable last_episode : int;
  mutable last_episode_t : float;   (* Clock.now of the last episode change *)
  mutable prev_actions : int array option;
  active : (string, unit) Hashtbl.t;   (* rules whose condition holds *)
  mutable fired : alert list;          (* newest first, capped *)
  mutable fired_n : int;
}

let create ?(config = default_config) ?(registry = Metrics.global) () : t =
  { cfg = config;
    registry;
    best_reward = neg_infinity;
    last_episode = min_int;
    last_episode_t = Clock.now ();
    prev_actions = None;
    active = Hashtbl.create 7;
    fired = [];
    fired_n = 0 }

let alerts (t : t) : alert list = List.rev t.fired

(* KL divergence between two action histograms (counts), with +1
   Laplace smoothing so empty bins stay finite. Symmetric in length:
   shorter histogram is treated as zero-padded. *)
let kl (p : int array) (q : int array) : float =
  let n = max (Array.length p) (Array.length q) in
  if n = 0 then 0.0
  else begin
    let get a i = if i < Array.length a then float_of_int a.(i) else 0.0 in
    let tot a = Array.fold_left (fun s v -> s +. float_of_int v) 0.0 a in
    let pt = tot p +. float_of_int n and qt = tot q +. float_of_int n in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let pi = (get p i +. 1.0) /. pt in
      let qi = (get q i +. 1.0) /. qt in
      acc := !acc +. (pi *. log (pi /. qi))
    done;
    !acc
  end

(* --- alert records --------------------------------------------------------- *)

(* Json.Float serializes non-finite values as null, so the NaN/Inf the
   nan_loss rule exists to report is encoded as a string instead. *)
let json_of_value (v : float) : Json.t =
  if Float.is_finite v then Json.Float v
  else if Float.is_nan v then Json.Str "nan"
  else Json.Str (if v > 0.0 then "inf" else "-inf")

let alert_to_json (a : alert) : Json.t =
  Json.Obj
    [ ("kind", Json.Str "alert");
      ("rule", Json.Str a.a_rule);
      ("step", Json.Int a.a_step);
      ("severity", Json.Str a.a_severity);
      ("message", Json.Str a.a_message);
      ("value", json_of_value a.a_value) ]

let alert_of_json : Json.t -> alert option =
  Json.decode (fun j ->
      let optional k default =
        Option.fold ~none:default ~some:Json.string (Json.member k j)
      in
      { a_rule = Json.string (Json.field "rule" j);
        a_step = Json.int (Json.field "step" j);
        a_severity = optional "severity" "warn";
        a_message = optional "message" "";
        a_value =
          (match Json.member "value" j with
           | Some (Json.Str "inf") -> Float.infinity
           | Some (Json.Str "-inf") -> Float.neg_infinity
           | Some v -> (try Json.float v with Json.Decode -> Float.nan)
           | None -> Float.nan) })

(* The alerts section of `posetrl runs show`: [None] when the run has no
   alerts.jsonl, else the decoded alerts and the torn-line count. *)
let render (alerts : (alert list * int) option) : string =
  match alerts with
  | None -> "\nalerts: not recorded by this run (predates the watchdog)\n"
  | Some ([], _) -> "\nalerts: none\n"
  | Some (alerts, torn) ->
    let buf = Buffer.create 256 in
    Printf.bprintf buf "\nalerts (%d fired):\n" (List.length alerts);
    List.iter
      (fun a ->
        Printf.bprintf buf "  [%s] %-16s step %-8d %s\n" a.a_severity a.a_rule
          a.a_step a.a_message)
      alerts;
    if torn > 0 then
      Printf.bprintf buf "  (%d torn alert line%s skipped)\n" torn
        (if torn = 1 then "" else "s");
    Buffer.contents buf

(* --- the rule pass --------------------------------------------------------- *)

let fire (t : t) (s : sample) ~rule ~severity ~value fmt =
  Printf.ksprintf
    (fun message ->
      let a =
        { a_rule = rule; a_step = s.s_step; a_severity = severity;
          a_message = message; a_value = value }
      in
      Metrics.inc
        (Metrics.counter ~r:t.registry
           ~labels:[ ("rule", rule) ]
           "posetrl.alerts.total");
      t.fired <- a :: t.fired;
      t.fired_n <- t.fired_n + 1;
      if t.fired_n > t.cfg.max_alerts then begin
        (* drop the oldest retained alert; the counter stays monotone *)
        t.fired <- List.filteri (fun i _ -> i < t.cfg.max_alerts) t.fired;
        t.fired_n <- t.cfg.max_alerts
      end;
      a)
    fmt

(* Edge-trigger plumbing: evaluate [condition]; on a false→true
   transition build the alert with [mk] and collect it. *)
let edge (t : t) (out : alert list ref) ~(rule : string) (condition : bool)
    (mk : unit -> alert) : unit =
  if condition then begin
    if not (Hashtbl.mem t.active rule) then begin
      Hashtbl.replace t.active rule ();
      out := mk () :: !out
    end
  end
  else Hashtbl.remove t.active rule

let check (t : t) (s : sample) : alert list =
  let cfg = t.cfg in
  let out = ref [] in
  (* 1. NaN/Inf in the TD loss or the online network's parameters *)
  let loss_bad = not (Float.is_finite s.s_loss) in
  let weights_bad = not s.s_weights_finite in
  edge t out ~rule:"nan_loss"
    (loss_bad || weights_bad)
    (fun () ->
      fire t s ~rule:"nan_loss" ~severity:"error" ~value:s.s_loss
        "non-finite %s (loss %s, weights %s)"
        (if loss_bad then "td_loss" else "network weights")
        (if loss_bad then "non-finite" else "finite")
        (if weights_bad then "non-finite" else "finite"));
  (* 2. reward collapse vs the trailing best windowed mean *)
  let best = t.best_reward in
  let collapsed =
    Float.is_finite best
    && Float.abs best >= cfg.collapse_min_best
    && s.s_mean_reward < best -. (cfg.collapse_pct /. 100.0 *. Float.abs best)
  in
  edge t out ~rule:"reward_collapse" collapsed (fun () ->
      fire t s ~rule:"reward_collapse" ~severity:"warn" ~value:s.s_mean_reward
        "windowed mean reward %.3f fell >%.0f%% below trailing best %.3f"
        s.s_mean_reward cfg.collapse_pct best);
  if Float.is_finite s.s_mean_reward && s.s_mean_reward > t.best_reward then
    t.best_reward <- s.s_mean_reward;
  (* 3. Q-value explosion *)
  edge t out ~rule:"q_explosion"
    (Float.is_finite s.s_q_max && Float.abs s.s_q_max > cfg.q_explosion_abs)
    (fun () ->
      fire t s ~rule:"q_explosion" ~severity:"error" ~value:s.s_q_max
        "q_max %.3e beyond ±%.1e" s.s_q_max cfg.q_explosion_abs);
  (* 4. stalled episodes: steps keep flowing but no episode finishes *)
  if s.s_episode <> t.last_episode then begin
    t.last_episode <- s.s_episode;
    t.last_episode_t <- Clock.now ()
  end;
  let stalled_for = Clock.now () -. t.last_episode_t in
  edge t out ~rule:"stalled_episode"
    (stalled_for > cfg.stall_s)
    (fun () ->
      fire t s ~rule:"stalled_episode" ~severity:"warn" ~value:stalled_for
        "no episode finished for %.0fs (episode stuck at %d)" stalled_for
        s.s_episode);
  (* 5. replay-buffer health: transitions much older than one full ring *)
  edge t out ~rule:"replay_stale"
    (s.s_replay_size > 0
     && s.s_replay_age_mean
        > cfg.replay_age_factor *. float_of_int s.s_replay_capacity)
    (fun () ->
      fire t s ~rule:"replay_stale" ~severity:"warn" ~value:s.s_replay_age_mean
        "mean TD-age %.0f steps exceeds %.0f× replay capacity %d"
        s.s_replay_age_mean cfg.replay_age_factor s.s_replay_capacity);
  (* 6. abrupt action-distribution drift between consecutive windows *)
  (match t.prev_actions with
   | Some prev when Array.fold_left ( + ) 0 s.s_actions > 0 ->
     let d = kl s.s_actions prev in
     edge t out ~rule:"action_drift"
       (d > cfg.drift_kl)
       (fun () ->
         fire t s ~rule:"action_drift" ~severity:"warn" ~value:d
           "action histogram KL %.3f vs previous window (limit %.3f)" d
           cfg.drift_kl)
   | _ -> ());
  if Array.fold_left ( + ) 0 s.s_actions > 0 then
    t.prev_actions <- Some (Array.copy s.s_actions);
  List.rev !out
