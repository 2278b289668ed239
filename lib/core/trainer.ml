(* DDQN training loop (paper §V-A).

   Paper hyperparameters: ε annealed 1.0 → 0.01 over 20 000 timesteps,
   learning rate 1e-4, 1005 timesteps per iteration, episodes of 15
   steps, training batches sampled from replay memory every µ steps.
   [paper] mirrors those; [fast] scales the schedule down so the full
   reproduction (two action spaces × two targets) runs in minutes inside
   the bench executable — same algorithm, shorter anneal. *)

open Posetrl_support
open Posetrl_ir
module Rl = Posetrl_rl
module Obs = Posetrl_obs

(* Metric handles (global registry, registered once). The gauges are
   refreshed right before each tick record, so a live /metrics scrape
   shows the same windowed means the ledger persists. *)
let m_steps = Obs.Metrics.counter "posetrl.train.steps"
let m_episodes = Obs.Metrics.counter "posetrl.train.episodes"
let m_target_syncs = Obs.Metrics.counter "posetrl.train.target_syncs"
let m_epsilon = Obs.Metrics.gauge "posetrl.train.epsilon"
let m_loss = Obs.Metrics.gauge "posetrl.train.loss"
let m_mean_reward = Obs.Metrics.gauge "posetrl.train.mean_reward"
let m_mean_size_gain = Obs.Metrics.gauge "posetrl.train.mean_size_gain"
let m_r_binsize = Obs.Metrics.gauge "posetrl.train.r_binsize"
let m_r_throughput = Obs.Metrics.gauge "posetrl.train.r_throughput"
let m_replay_occupancy = Obs.Metrics.gauge "posetrl.train.replay_occupancy"

let m_episode_reward =
  Obs.Metrics.histogram "posetrl.train.episode_reward"
    ~buckets:[| -100.0; -10.0; -1.0; 0.0; 1.0; 10.0; 100.0; 1000.0 |]

(* last finished episode's total reward — the headline series a live
   scraper watches (`posetrl_train_reward` in /metrics) *)
let m_last_reward = Obs.Metrics.gauge "posetrl.train.reward"

let m_td_loss =
  Obs.Metrics.histogram "posetrl.train.td_loss"
    ~buckets:[| 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0 |]

(* per-action selection counters, labeled by sub-sequence id; handles
   are cached per training run (the action-space size is per-run) *)
let action_counter (i : int) =
  Obs.Metrics.counter ~labels:[ ("action", string_of_int i) ]
    "posetrl.train.action_selected"

type hyperparams = {
  total_steps : int;
  epsilon : Rl.Schedule.t;
  batch_size : int;
  train_every : int;      (* µ *)
  target_sync_every : int;
  replay_capacity : int;
  warmup_steps : int;     (* steps before training starts *)
  gamma : float;
  lr : float;
  hidden : int list;
  max_episode_steps : int;
  double : bool;
  reward_scale : float;
  (* factor applied to rewards before they reach the learner. At the
     default 1.0 the raw Eqn-1 rewards (often 10-100) saturate the Huber
     loss, whose +/-1-clipped gradients act as DQN reward clipping — which
     empirically trains best here. Kept as a knob for ablations. *)
  snapshot_every : int;
  (* every N steps the greedy policy is scored on a fixed probe subset of
     the corpus and the best-scoring weights are kept; DQN training can
     collapse late in the schedule, and returning the best snapshot (not
     the final weights) makes the outcome robust to that. 0 disables. *)
}

let paper = {
  total_steps = 20_100;   (* 20 iterations x 1005 timesteps *)
  epsilon = Rl.Schedule.create ~start:1.0 ~stop:0.01 ~decay_steps:20_000 ();
  batch_size = 32;
  train_every = 4;
  target_sync_every = 500;
  replay_capacity = 10_000;
  warmup_steps = 200;
  gamma = 0.99;
  lr = 1e-4;
  hidden = [ 128; 64 ];
  max_episode_steps = Environment.default_max_steps;
  double = true;
  reward_scale = 1.0;
  snapshot_every = 500;
}

let fast = {
  paper with
  total_steps = 1_800;
  epsilon = Rl.Schedule.create ~start:1.0 ~stop:0.05 ~decay_steps:1_200 ();
  target_sync_every = 200;
  warmup_steps = 64;
  replay_capacity = 4_000;
}

type result = {
  agent : Rl.Dqn.t;
  episodes : int;
  final_mean_reward : float;
  alerts : Obs.Health.alert list;  (* watchdog alerts, oldest first *)
}

(* The decision-space universe of an action space over the default ODG,
   packaged for [Obs.Coverage] (which takes plain arrays — the obs
   layer does not depend on posetrl_odg). *)
let coverage_universe (actions : Posetrl_odg.Action_space.t) :
    Obs.Coverage.universe =
  let nodes, edges, action_paths =
    Posetrl_odg.Action_space.coverage_universe actions
      (Lazy.force Posetrl_odg.Graph.default)
  in
  { Obs.Coverage.nodes; edges; action_paths }

let make_coverage ?registry (actions : Posetrl_odg.Action_space.t) :
    Obs.Coverage.t =
  Obs.Coverage.create ?registry ~state_dim:Environment.state_dim
    (coverage_universe actions)

(* The folds [train] keeps unless given its own: reward attribution,
   labeled with each action's passes, and coverage. *)
let default_folds (hp : hyperparams) (actions : Posetrl_odg.Action_space.t) :
    Obs.Fold.t list =
  let registry = Obs.Metrics.global in
  let labels a = String.concat "," (Posetrl_odg.Action_space.action actions a) in
  let n_actions = Posetrl_odg.Action_space.n_actions actions in
  [ Obs.Fold.Fold
      ( (module Rl.Attrib),
        Rl.Attrib.create ~registry ~labels ~n_actions ~max_pos:hp.max_episode_steps () );
    Obs.Fold.Fold ((module Obs.Coverage), make_coverage ~registry actions) ]

let train ?(hp = paper) ?(on_record = fun (_ : Obs.Json.t) -> ())
    ?(on_step = fun (_ : int) -> ())
    ?(on_alert = fun (_ : Obs.Health.alert) -> ())
    ?inject_nan_at ?folds ?(sanitize = Posetrl_analysis.Sanitize.Off)
    ~(seed : int) ~(corpus : Modul.t array)
    ~(actions : Posetrl_odg.Action_space.t)
    ~(target : Posetrl_codegen.Target.t) () : result =
  if Array.length corpus = 0 then invalid_arg "Trainer.train: empty corpus";
  let rng = Rng.create seed in
  let net_rng = Rng.split rng in
  let env =
    Environment.create ~max_steps:hp.max_episode_steps ~sanitize ~target
      ~actions ()
  in
  let agent =
    Rl.Dqn.create ~gamma:hp.gamma ~lr:hp.lr ~double:hp.double net_rng
      ~state_dim:Environment.state_dim ~hidden:hp.hidden
      ~n_actions:(Environment.n_actions env)
  in
  let replay = Rl.Replay.create hp.replay_capacity in
  let action_counters =
    Array.init (Environment.n_actions env) action_counter
  in
  let folds = match folds with Some l -> l | None -> default_folds hp actions in
  (* watchdog state: engine + the last-window action histogram it reads *)
  let watchdog = Obs.Health.create () in
  let win_actions = Array.make (Environment.n_actions env) 0 in
  let episode = ref 0 in
  let reward_window = Queue.create () in
  let size_window = Queue.create () in
  let bin_window = Queue.create () in
  let thr_window = Queue.create () in
  let push_window q v =
    Queue.add v q;
    if Queue.length q > 40 then ignore (Queue.pop q)
  in
  let window_mean q =
    if Queue.is_empty q then 0.0
    else Queue.fold ( +. ) 0.0 q /. float_of_int (Queue.length q)
  in
  let step = ref 0 in
  let last_loss = ref 0.0 in
  (* best-snapshot machinery: score the greedy policy on a fixed probe
     set, as the summed episode rewards of one batched rollout *)
  let probe_set =
    List.init (min 8 (Array.length corpus)) (fun k ->
        corpus.(k * Array.length corpus / max 1 (min 8 (Array.length corpus))))
  in
  let probe_score () =
    Inference.predict_batch ~max_steps:hp.max_episode_steps ~sanitize ~agent
      ~actions ~target probe_set
    |> List.fold_left (fun acc (r : Inference.rollout) -> acc +. r.Inference.reward) 0.0
  in
  let best_score = ref neg_infinity in
  let best_weights =
    Rl.Dqn.create ~gamma:hp.gamma ~lr:hp.lr ~double:hp.double (Rng.split rng)
      ~state_dim:Environment.state_dim ~hidden:hp.hidden
      ~n_actions:(Environment.n_actions env)
  in
  let maybe_snapshot () =
    if hp.snapshot_every > 0 && !step mod hp.snapshot_every = 0
       && !step >= hp.warmup_steps then begin
      let score = probe_score () in
      if score > !best_score then begin
        best_score := score;
        Posetrl_nn.Mlp.copy_params ~src:agent.Rl.Dqn.online
          ~dst:best_weights.Rl.Dqn.online
      end
    end
  in
  Obs.Span.with_ "posetrl.train.run" (fun _ ->
  while !step < hp.total_steps do
    incr episode;
    Obs.Metrics.inc m_episodes;
    let program = Rng.choose rng corpus in
    Obs.Span.with_ "posetrl.train.episode"
      ~attrs:[ ("episode", Obs.Event.I !episode) ]
      (fun ep_span ->
    let state = ref (Environment.reset env program) in
    let ep_steps = ref [] in   (* the episode's steps, newest first *)
    let terminal = ref false in
    while (not !terminal) && !step < hp.total_steps do
      incr step;
      Obs.Metrics.inc m_steps;
      (* fault injection for the watchdog's CI path: poison one online
         weight, which cascades NaN through q-values and the TD loss *)
      (match inject_nan_at with
       | Some n when n = !step ->
         agent.Rl.Dqn.online.Posetrl_nn.Mlp.layers.(0)
           .Posetrl_nn.Layer.w.Posetrl_nn.Matrix.data.(0) <- Float.nan
       | _ -> ());
      let epsilon = Rl.Schedule.value hp.epsilon !step in
      Obs.Metrics.set m_epsilon epsilon;
      let action = Rl.Dqn.select_action agent rng ~epsilon !state in
      Obs.Metrics.inc action_counters.(action);
      win_actions.(action) <- win_actions.(action) + 1;
      let res = Environment.step env action in
      let s =
        { Obs.Fold.action;
          pos = List.length !ep_steps;
          reward = res.Environment.reward;
          r_binsize = res.Environment.r_binsize;
          r_throughput = res.Environment.r_throughput;
          state = Some !state }
      in
      Obs.Fold.observe folds s;
      ep_steps := s :: !ep_steps;
      Rl.Replay.push ~step:!step replay
        { Rl.Replay.state = !state;
          action;
          reward = res.Environment.reward *. hp.reward_scale;
          next_state = (if res.Environment.terminal then None else Some res.Environment.state) };
      state := res.Environment.state;
      terminal := res.Environment.terminal;
      Obs.Metrics.set m_replay_occupancy (float_of_int (Rl.Replay.size replay));
      if !step >= hp.warmup_steps && !step mod hp.train_every = 0
         && Rl.Replay.size replay >= hp.batch_size then begin
        let batch = Rl.Replay.sample rng replay hp.batch_size in
        last_loss := Rl.Dqn.train_batch agent batch;
        Obs.Metrics.set m_loss !last_loss;
        Obs.Metrics.observe m_td_loss !last_loss
      end;
      if !step mod hp.target_sync_every = 0 then begin
        Rl.Dqn.sync_target agent;
        Obs.Metrics.inc m_target_syncs
      end;
      maybe_snapshot ();
      if !step mod 200 = 0 then begin
        let mean_reward = window_mean reward_window in
        let mean_size_gain = window_mean size_window in
        let r_binsize = window_mean bin_window in
        let r_throughput = window_mean thr_window in
        Obs.Metrics.set m_mean_reward mean_reward;
        Obs.Metrics.set m_mean_size_gain mean_size_gain;
        Obs.Metrics.set m_r_binsize r_binsize;
        Obs.Metrics.set m_r_throughput r_throughput;
        let gc = Obs.Prof.sample_gc () in
        let q_max = Obs.Metrics.value "posetrl.dqn.q_max" in
        (* watchdog tick: snapshot the vital signs and run the rules;
           alerts never feed back into training arithmetic *)
        let sample =
          { Obs.Health.s_step = !step;
            s_episode = !episode;
            s_loss = !last_loss;
            s_mean_reward = mean_reward;
            s_q_max = Option.value ~default:0.0 q_max;
            s_replay_size = Rl.Replay.size replay;
            s_replay_capacity = Rl.Replay.capacity replay;
            s_replay_age_mean = Rl.Replay.mean_age ~now:!step replay;
            s_weights_finite = Rl.Dqn.weights_finite agent;
            s_actions = Array.copy win_actions }
        in
        Array.fill win_actions 0 (Array.length win_actions) 0;
        List.iter on_alert (Obs.Health.check watchdog sample);
        Obs.Fold.sample folds ~step:!step;
        on_record
          (Obs.Runlog.tick_record
             ?q_mean:(Obs.Metrics.value "posetrl.dqn.q_mean") ?q_max
             ~gc_minor:gc.Obs.Prof.gs_minor ~gc_major:gc.Obs.Prof.gs_major
             ~gc_heap_mb:(float_of_int gc.Obs.Prof.gs_heap_w *. 8.0 /. 1e6)
             ~gc_alloc_mb_s:gc.Obs.Prof.gs_alloc_mb_s ~step:!step
             ~episode:!episode ~epsilon ~mean_reward ~mean_size_gain ~r_binsize
             ~r_throughput ~loss:!last_loss ())
      end;
      on_step !step
    done;
    let steps = List.rev !ep_steps in
    let sum f = List.fold_left (fun acc (s : Obs.Fold.step) -> acc +. f s) 0.0 steps in
    let ep_reward = sum (fun s -> s.reward) in
    let ep_bin = sum (fun s -> s.r_binsize) in
    let ep_thr = sum (fun s -> s.r_throughput) in
    push_window reward_window ep_reward;
    push_window bin_window ep_bin;
    push_window thr_window ep_thr;
    Obs.Metrics.observe m_episode_reward ep_reward;
    Obs.Metrics.set m_last_reward ep_reward;
    let size_gain, thr_gain = Environment.episode_gain env in
    push_window size_window size_gain;
    Obs.Span.set_attr ep_span "reward" (Obs.Event.F ep_reward);
    Obs.Span.set_attr ep_span "size_gain_pct" (Obs.Event.F size_gain);
    on_record
      (Obs.Runlog.episode_record
         ~actions:(List.map (fun (s : Obs.Fold.step) -> s.action) steps)
         ~step_rewards:
           (List.map
              (fun (s : Obs.Fold.step) -> (s.reward, s.r_binsize, s.r_throughput))
              steps)
         ~episode:!episode ~step:!step ~reward:ep_reward ~r_binsize:ep_bin
         ~r_throughput:ep_thr
         ~size_gain_pct:size_gain ~thru_gain_pct:thr_gain
         ~epsilon:(Rl.Schedule.value hp.epsilon !step) ~loss:!last_loss ()))
  done);
  (* hand back the best snapshot (or the final weights if snapshots are
     disabled or the final policy is the best one seen) *)
  if hp.snapshot_every > 0 then begin
    let final = probe_score () in
    if final < !best_score then begin
      Posetrl_nn.Mlp.copy_params ~src:best_weights.Rl.Dqn.online
        ~dst:agent.Rl.Dqn.online;
      Rl.Dqn.sync_target agent
    end
  end;
  { agent;
    episodes = !episode;
    final_mean_reward = window_mean reward_window;
    alerts = Obs.Health.alerts watchdog }
