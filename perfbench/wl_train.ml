(* train: one [Trainer.train] run with the [Trainer.fast] schedule, ODG
   space, x86-64, on a 130-program training corpus drawn from the seed.
   It is the paper's bottleneck loop: every step layer plus the DQN
   learner and the attribution, coverage and health folds; no
   interpreter, parser or sanitizer. An op is one environment step
   including its share of learning; its latency is the gap between
   consecutive [~on_step] callbacks.

   The run is a fixed amount of work (the 1800-step schedule, trained
   [reps_untraced] times), so [--seconds] does not change it. *)

open Common
module T = Trace
module Obs = Posetrl_obs
module W = Posetrl_workloads

let hp = C.Trainer.fast

let setup ~seed ~lap:_ = W.Suites.training_corpus ~seed ()

(* Set-ups per run: one takes a few ms, so the median of many. *)
let setup_reps = 75

type run = {
  gaps : float array;       (* raw step latencies *)
  norm_gaps : float array;  (* speed-normalized *)
  wall_s : float;           (* raw time of the whole run *)
  norm_s : float;
  digest : string;
  reward : float;
  speed : Speed.t;          (* its probe samples, with the heap peak *)
}

(* Steps between speed probes (a probe costs about 1 ms, 25 steps about
   90 ms); the probe's own time is kept out of every gap. *)
let probe_every = 25

let train_once ~seed corpus : run =
  let steps = hp.C.Trainer.total_steps in
  let sp = Speed.create () in
  (* [steps] gaps, then the time after the last step (closing probe) *)
  let pieces = Array.make (steps + 1) (0.0, 0) in
  Speed.tick sp;
  let last = ref (now ()) in
  let res =
    C.Trainer.train ~hp ~seed ~corpus ~actions ~target
      ~on_step:(fun step ->
        pieces.(step - 1) <- (now () -. !last, Speed.segment sp);
        if step mod probe_every = 0 then Speed.tick sp;
        last := now ())
      ()
  in
  pieces.(steps) <- (now () -. !last, Speed.segment sp);
  Speed.tick sp;
  let norm = Speed.normalize_all sp pieces in
  { gaps = Array.map fst (Array.sub pieces 0 steps);
    norm_gaps = Array.sub norm 0 steps;
    wall_s = sum (Array.map fst pieces);
    norm_s = sum norm;
    digest = weights_digest res.C.Trainer.agent;
    reward = res.C.Trainer.final_mean_reward;
    speed = sp }

(* The trainer's step order re-driven through each layer's public call:
   same schedule, seed, learner cadence, folds and best-snapshot probes,
   consuming the random stream in the same order — so its final weights
   must equal [Trainer.train]'s. [lap] runs between ops, every
   [probe_every] steps, as the speed probes do in [train_once]. *)
let redrive (tr : T.t) ~seed ~(lap : unit -> unit) (corpus : Posetrl_ir.Modul.t array) :
    string * float =
  let cx = Step.create tr in
  let rng = Posetrl_support.Rng.create seed in
  let net_rng = Posetrl_support.Rng.split rng in
  let n_actions = Posetrl_odg.Action_space.n_actions actions in
  let mk_agent r =
    Rl.Dqn.create ~gamma:hp.C.Trainer.gamma ~lr:hp.C.Trainer.lr ~double:hp.C.Trainer.double r
      ~state_dim:C.Environment.state_dim ~hidden:hp.C.Trainer.hidden ~n_actions
  in
  let agent = mk_agent net_rng in
  let replay = Rl.Replay.create hp.C.Trainer.replay_capacity in
  let attrib = Rl.Attrib.create ~n_actions ~max_pos:hp.C.Trainer.max_episode_steps () in
  let coverage = C.Trainer.make_coverage actions in
  let watchdog = Obs.Health.create () in
  let win_actions = Array.make n_actions 0 in
  let n = Array.length corpus in
  let probe_set = Array.init (min 8 n) (fun k -> corpus.(k * n / max 1 (min 8 n))) in
  let best_score = ref neg_infinity in
  let best = mk_agent (Posetrl_support.Rng.split rng) in
  let probe_score () =
    Array.fold_left
      (fun acc m ->
        let e, s0 = Step.reset cx m in
        let s = ref s0 and total = ref 0.0 and fin = ref false in
        while not !fin do
          let r = Step.step e (Step.greedy cx agent !s) in
          total := !total +. r.C.Environment.reward;
          s := r.C.Environment.state;
          fin := r.C.Environment.terminal
        done;
        acc +. !total)
      0.0 probe_set
  in
  let rewards = Queue.create () in
  let push_window v =
    Queue.add v rewards;
    if Queue.length rewards > 40 then ignore (Queue.pop rewards)
  in
  let window_mean () =
    if Queue.is_empty rewards then 0.0
    else Queue.fold ( +. ) 0.0 rewards /. float_of_int (Queue.length rewards)
  in
  let step = ref 0 and episode = ref 0 and last_loss = ref 0.0 in
  let final_probe () =
    if hp.C.Trainer.snapshot_every > 0 && probe_score () < !best_score then begin
      Posetrl_nn.Mlp.copy_params ~src:best.Rl.Dqn.online ~dst:agent.Rl.Dqn.online;
      Rl.Dqn.sync_target agent
    end
  in
  while !step < hp.C.Trainer.total_steps do
    incr episode;
    let program = Posetrl_support.Rng.choose rng corpus in
    (* the episode's reset belongs to its first step's op *)
    let env = ref None and state = ref [||] in
    let ep_reward = ref 0.0 and pos = ref 0 and terminal = ref false in
    while (not !terminal) && !step < hp.C.Trainer.total_steps do
      T.op tr (fun () ->
          (match !env with
           | None ->
             let e, s = Step.reset cx program in
             env := Some e;
             state := s
           | Some _ -> ());
          let e = Option.get !env in
          incr step;
          let epsilon = Rl.Schedule.value hp.C.Trainer.epsilon !step in
          T.count tr "rl.forward.rows" 1.0;
          let action =
            T.span tr "rl.forward" (fun () -> Rl.Dqn.select_action agent rng ~epsilon !state)
          in
          win_actions.(action) <- win_actions.(action) + 1;
          let res = Step.step e action in
          let reward = res.C.Environment.reward in
          ep_reward := !ep_reward +. reward;
          T.span tr "obs.folds" (fun () ->
              Rl.Attrib.observe attrib ~action ~pos:!pos ~reward
                ~r_binsize:res.C.Environment.r_binsize
                ~r_throughput:res.C.Environment.r_throughput;
              Obs.Coverage.observe_state coverage !state;
              Obs.Coverage.observe coverage ~action ~pos:!pos ~reward
                ~r_binsize:res.C.Environment.r_binsize
                ~r_throughput:res.C.Environment.r_throughput);
          incr pos;
          Rl.Replay.push ~step:!step replay
            { Rl.Replay.state = !state;
              action;
              reward = reward *. hp.C.Trainer.reward_scale;
              next_state =
                (if res.C.Environment.terminal then None
                 else Some res.C.Environment.state) };
          state := res.C.Environment.state;
          terminal := res.C.Environment.terminal;
          if !step >= hp.C.Trainer.warmup_steps
             && !step mod hp.C.Trainer.train_every = 0
             && Rl.Replay.size replay >= hp.C.Trainer.batch_size
          then
            last_loss :=
              T.span tr "rl.train_batch" (fun () ->
                  Rl.Dqn.train_batch agent
                    (Rl.Replay.sample rng replay hp.C.Trainer.batch_size));
          if !step mod hp.C.Trainer.target_sync_every = 0 then
            T.span tr "rl.train_batch" (fun () -> Rl.Dqn.sync_target agent);
          if hp.C.Trainer.snapshot_every > 0
             && !step mod hp.C.Trainer.snapshot_every = 0
             && !step >= hp.C.Trainer.warmup_steps
          then begin
            let score = probe_score () in
            if score > !best_score then begin
              best_score := score;
              Posetrl_nn.Mlp.copy_params ~src:agent.Rl.Dqn.online ~dst:best.Rl.Dqn.online
            end
          end;
          if !step mod 200 = 0 then begin
            ignore (Obs.Prof.sample_gc ());
            let sample =
              { Obs.Health.s_step = !step;
                s_episode = !episode;
                s_loss = !last_loss;
                s_mean_reward = window_mean ();
                s_q_max =
                  Option.value ~default:0.0 (Obs.Metrics.value "posetrl.dqn.q_max");
                s_replay_size = Rl.Replay.size replay;
                s_replay_capacity = Rl.Replay.capacity replay;
                s_replay_age_mean = Rl.Replay.mean_age ~now:!step replay;
                s_weights_finite = Rl.Dqn.weights_finite agent;
                s_actions = Array.copy win_actions }
            in
            Array.fill win_actions 0 n_actions 0;
            T.span tr "obs.folds" (fun () ->
                ignore (Obs.Health.check watchdog sample);
                Obs.Coverage.sample coverage ~step:!step)
          end;
          (* the trainer's closing probe runs after its last step *)
          if !step = hp.C.Trainer.total_steps then final_probe ());
      if !step mod probe_every = 0 then lap ()
    done;
    push_window !ep_reward
  done;
  (weights_digest agent, window_mean ())

(* Untraced runs repeat the training run and report the median run's
   rate and the pooled step latencies; the repeats double as the
   determinism check. A traced run trains once: the re-drive, which must
   reproduce the same weights, is its second run. *)
let reps_untraced = 3

let run ~seed ~seconds:_ ~trace : result =
  let corpus, setup_metrics = timed_setup ~reps:setup_reps (setup ~seed) in
  let runs = List.init (if trace then 1 else reps_untraced) (fun _ -> train_once ~seed corpus) in
  let real = List.hd runs in
  let c = checks () in
  let steps = Array.length real.gaps in
  List.iter
    (fun (again : run) ->
      if again.digest <> real.digest then
        fail c "weights digest differs across runs: %s vs %s" real.digest again.digest;
      if not (Float.equal again.reward real.reward) then
        fail c "mean_episode_reward differs across runs: %.17g vs %.17g" real.reward
          again.reward)
    (List.tl runs);
  let layer_metrics =
    if not trace then []
    else begin
      let tr = T.create ~enabled:true in
      let (digest, reward), raw_s, norm_s = Speed.timed_laps (fun lap -> redrive tr ~seed ~lap corpus) in
      if digest <> real.digest then
        fail c "re-driven weights differ from Trainer.train: %s vs %s" digest real.digest;
      if not (Float.equal reward real.reward) then
        fail c "re-driven mean reward differs: %.17g vs %.17g" reward real.reward;
      T.write_jsonl tr (Printf.sprintf "perfbench/out/trace-train-seed%d.jsonl" seed);
      (* the untraced time, at the machine speed of the traced run *)
      Step.layer_metrics tr ~untraced_op_s:(real.norm_s *. raw_s /. norm_s)
    end
  in
  let attempted = steps * List.length runs in
  let failed = if c.n_failed > 0 then attempted else 0 in
  let mid =
    List.nth (List.sort (fun a b -> compare a.norm_s b.norm_s) runs) (List.length runs / 2)
  in
  let pool f = Array.concat (List.map f runs) in
  { attempted;
    failed;
    metrics =
      setup_metrics
      @ throughput_metrics ~ops:steps ~raw_s:mid.wall_s ~norm_s:mid.norm_s
      @ latency_metrics ~raw:(pool (fun r -> r.gaps)) (pool (fun r -> r.norm_gaps))
      @ heap_metrics (List.map (fun r -> r.speed) runs)
      @ [ m "fail_frac" "ratio" (float_of_int failed /. float_of_int attempted);
          m "mean_episode_reward" "reward" real.reward ]
      @ layer_metrics;
    rows = [];
    notes =
      [ ("final_weights_digest", Json.Str real.digest);
        ("train_steps", Json.Int steps);
        ("training_runs", Json.Int (List.length runs));
        ("corpus_programs", Json.Int (Array.length corpus)) ];
    failures = List.rev c.msgs }
