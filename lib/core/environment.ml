(* The RL environment (paper §III-A, Fig. 3).

   State: the IR2Vec embedding of the current module (300-dim, squashed
   into the unit ball for network conditioning). Action: an index into
   the chosen sub-sequence action space; applying it runs those passes
   through the LLVM-style pass manager (the "opt" box of Fig. 3).
   Reward: Eqns 1-3 against the per-episode unoptimized baseline.
   Episodes run a fixed number of steps (15, matching the predicted
   sequences of Table VI). *)

open Posetrl_ir
module Odg = Posetrl_odg
module Obs = Posetrl_obs

let m_steps = Obs.Metrics.counter "posetrl.env.steps"
let m_resets = Obs.Metrics.counter "posetrl.env.resets"
let m_noop_skips = Obs.Metrics.counter "posetrl.env.noop_skips"

let m_step_seconds = Obs.Metrics.histogram "posetrl.env.step_seconds"

let m_reward =
  Obs.Metrics.histogram "posetrl.env.reward"
    ~buckets:[| -100.0; -10.0; -1.0; -0.1; 0.0; 0.1; 1.0; 10.0; 100.0 |]

type t = {
  target : Posetrl_codegen.Target.t;
  actions : Odg.Action_space.t;
  weights : Reward.weights;
  max_steps : int;
  sanitize : Posetrl_analysis.Sanitize.level;
  (* episode state *)
  mutable current : Modul.t option;
  mutable base : Reward.baseline;
  mutable last : Reward.measurement;
  mutable state : float array;  (* [observe] of [current] *)
  mutable noops : int list;  (* actions seen to return [current] itself *)
  mutable step_idx : int;
}

let default_max_steps = 15

let create ?(weights = Reward.paper_weights) ?(max_steps = default_max_steps)
    ?(sanitize = Posetrl_analysis.Sanitize.Off) ~(target : Posetrl_codegen.Target.t) ~(actions : Odg.Action_space.t) () : t =
  { target;
    actions;
    weights;
    max_steps;
    sanitize;
    current = None;
    base = { Reward.bin_size = 0.0; Reward.throughput = 0.0 };
    last = { Reward.bin_size = 0.0; Reward.throughput = 0.0 };
    state = [||];
    noops = [];
    step_idx = 0 }

let n_actions (t : t) = Odg.Action_space.n_actions t.actions

let state_dim = Posetrl_ir2vec.Vocabulary.dimension

let observe (m : Modul.t) : float array = Posetrl_ir2vec.Encoder.embed_program_state m

(* Begin an episode on (a copy of) the unoptimized module. *)
let reset (t : t) (m : Modul.t) : float array =
  Obs.Metrics.inc m_resets;
  let meas = Reward.measure t.target m in
  t.current <- Some m;
  t.base <- meas;
  t.last <- meas;
  t.state <- observe m;
  t.noops <- [];
  t.step_idx <- 0;
  t.state

type step_result = {
  state : float array;
  reward : float;
  r_binsize : float;     (* unweighted Eqn-2 component of [reward] *)
  r_throughput : float;  (* unweighted Eqn-3 component of [reward] *)
  terminal : bool;
}

let step (t : t) (action : int) : step_result =
  match t.current with
  | None -> invalid_arg "Environment.step: reset first"
  | Some m ->
    let names = Odg.Action_space.action t.actions action in
    let t0 = Obs.Clock.now () in
    Obs.Span.with_ "posetrl.env.step"
      ~attrs:
        [ ("action", Obs.Event.I action);
          ("passes", Obs.Event.S (String.concat " " names)) ]
      (fun sp ->
        (* every pass is a pure function of (config, module) and the
           module already passed the input check, so an action seen to
           leave this module unchanged would again: skip its passes *)
        let known_noop = List.mem action t.noops in
        let m' =
          if known_noop then begin
            Obs.Metrics.inc m_noop_skips;
            m
          end
          else
            Posetrl_passes.Pass_manager.run ~sanitize:t.sanitize
              Posetrl_passes.Config.oz names m
        in
        (* passes that changed nothing hand back the module itself, whose
           measurement and state are already known *)
        let unchanged = m' == m in
        if not unchanged then t.noops <- []
        else if not known_noop then t.noops <- action :: t.noops;
        let curr = if unchanged then t.last else Reward.measure t.target m' in
        let comps =
          Reward.decompose ~weights:t.weights ~base:t.base ~last:t.last ~curr ()
        in
        let reward = comps.Reward.total in
        (* per-action deltas for the trace report (size in model bytes,
           throughput in MCA units; positive = improvement) *)
        Obs.Span.set_attr sp "reward" (Obs.Event.F reward);
        Obs.Span.set_attr sp "d_size"
          (Obs.Event.F (t.last.Reward.bin_size -. curr.Reward.bin_size));
        Obs.Span.set_attr sp "d_thru"
          (Obs.Event.F (curr.Reward.throughput -. t.last.Reward.throughput));
        t.current <- Some m';
        t.last <- curr;
        t.step_idx <- t.step_idx + 1;
        Obs.Metrics.inc m_steps;
        Obs.Metrics.observe m_reward reward;
        Obs.Metrics.observe m_step_seconds (Obs.Clock.now () -. t0);
        if not unchanged then t.state <- observe m';
        { state = t.state;
          reward;
          r_binsize = comps.Reward.binsize;
          r_throughput = comps.Reward.throughput;
          terminal = t.step_idx >= t.max_steps })

let current_module (t : t) : Modul.t =
  match t.current with
  | Some m -> m
  | None -> invalid_arg "Environment.current_module: reset first"

(* Cumulative size/throughput improvement of the episode so far, relative
   to the unoptimized baseline; used for monitoring. *)
let episode_gain (t : t) : float * float =
  let size_gain =
    if t.base.Reward.bin_size <= 0.0 then 0.0
    else
      100.0 *. (t.base.Reward.bin_size -. t.last.Reward.bin_size)
      /. t.base.Reward.bin_size
  in
  let thr_gain =
    if t.base.Reward.throughput <= 0.0 then 0.0
    else
      100.0 *. (t.last.Reward.throughput -. t.base.Reward.throughput)
      /. t.base.Reward.throughput
  in
  (size_gain, thr_gain)
