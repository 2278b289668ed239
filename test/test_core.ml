(* Tests for the POSET-RL core: reward equations, environment dynamics,
   trainer smoke runs, inference, evaluation plumbing. *)

module C = Posetrl_core
module O = Posetrl_odg
module CG = Posetrl_codegen
module W = Posetrl_workloads
module Rl = Posetrl_rl
module Obs = Posetrl_obs

let x86 = CG.Target.x86_64

let meas size thr = { C.Reward.bin_size = size; C.Reward.throughput = thr }

let check_float = Alcotest.(check (float 1e-9))

(* the Eqn-1 reward of one step *)
let reward ~base ~last ~curr = (C.Reward.decompose ~base ~last ~curr ()).C.Reward.total

(* --- reward (Eqns 1-3) ------------------------------------------------------ *)

let test_reward_weights_default () =
  check_float "alpha" 10.0 C.Reward.paper_weights.C.Reward.alpha;
  check_float "beta" 5.0 C.Reward.paper_weights.C.Reward.beta

let test_reward_binsize_component () =
  (* Eqn 2: (last - curr) / base *)
  let base = meas 1000.0 10.0 in
  let r = C.Reward.r_binsize ~base ~last:(meas 900.0 10.0) ~curr:(meas 800.0 10.0) in
  check_float "R_BinSize" 0.1 r

let test_reward_throughput_component () =
  (* Eqn 3: (curr - last) / base *)
  let base = meas 1000.0 10.0 in
  let r = C.Reward.r_throughput ~base ~last:(meas 900.0 10.0) ~curr:(meas 900.0 12.0) in
  check_float "R_Throughput" 0.2 r

let test_reward_combined () =
  let base = meas 1000.0 10.0 in
  let r = reward ~base ~last:(meas 1000.0 10.0) ~curr:(meas 900.0 11.0) in
  (* 10 * 0.1 + 5 * 0.1 = 1.5 *)
  check_float "R" 1.5 r

let test_reward_negative_on_growth () =
  let base = meas 1000.0 10.0 in
  let r = reward ~base ~last:(meas 1000.0 10.0) ~curr:(meas 1100.0 10.0) in
  Alcotest.(check bool) "size growth punished" true (r < 0.0)

let test_reward_telescopes () =
  (* the sum of step rewards over an episode equals the end-to-end reward *)
  let base = meas 1000.0 10.0 in
  let states = [ meas 1000.0 10.0; meas 950.0 10.5; meas 930.0 10.2; meas 800.0 11.0 ] in
  let rec steps acc = function
    | a :: (b :: _ as rest) ->
      steps (acc +. reward ~base ~last:a ~curr:b) rest
    | _ -> acc
  in
  let stepwise = steps 0.0 states in
  let direct = reward ~base ~last:(List.hd states) ~curr:(List.nth states 3) in
  check_float "telescoping" direct stepwise

let test_reward_decompose () =
  (* decompose = the Eqn-1 total plus the unweighted Eqn-2/3 parts it is
     made of *)
  let base = meas 1000.0 10.0 in
  let last = meas 950.0 10.5 and curr = meas 900.0 11.0 in
  let c = C.Reward.decompose ~base ~last ~curr () in
  check_float "binsize part is Eqn 2" (C.Reward.r_binsize ~base ~last ~curr)
    c.C.Reward.binsize;
  check_float "throughput part is Eqn 3"
    (C.Reward.r_throughput ~base ~last ~curr) c.C.Reward.throughput;
  check_float "total recombines with paper weights"
    ((10.0 *. c.C.Reward.binsize) +. (5.0 *. c.C.Reward.throughput))
    c.C.Reward.total;
  (* custom weights flow through the recombination *)
  let w = { C.Reward.alpha = 2.0; beta = 3.0 } in
  let cw = C.Reward.decompose ~weights:w ~base ~last ~curr () in
  check_float "custom weights" ((2.0 *. cw.C.Reward.binsize) +. (3.0 *. cw.C.Reward.throughput))
    cw.C.Reward.total;
  check_float "components independent of weights" c.C.Reward.binsize cw.C.Reward.binsize

(* --- environment --------------------------------------------------------------- *)

let test_environment_episode () =
  let env = C.Environment.create ~target:x86 ~actions:O.Action_space.odg () in
  let m = Testutil.sum_squares_module () in
  let s0 = C.Environment.reset env m in
  Alcotest.(check int) "state dim" 300 (Array.length s0);
  let steps = ref 0 in
  let rec go s =
    incr steps;
    let r = C.Environment.step env ((!steps * 7) mod 34) in
    ignore s;
    if not r.C.Environment.terminal then go r.C.Environment.state
  in
  go s0;
  Alcotest.(check int) "episode length 15" 15 !steps;
  (* behaviour is preserved by whatever the episode applied *)
  Testutil.check_same_behaviour "episode" m (C.Environment.current_module env)

let test_environment_reward_consistency () =
  let env = C.Environment.create ~target:x86 ~actions:O.Action_space.odg () in
  let m = Testutil.sum_squares_module () in
  ignore (C.Environment.reset env m);
  (* applying the mem2reg-carrying action must yield a positive reward on
     this allocation-heavy program *)
  let idx_with_mem2reg =
    let found = ref (-1) in
    Array.iteri
      (fun i a -> if !found < 0 && List.mem "mem2reg" a then found := i)
      O.Action_space.odg.O.Action_space.actions;
    !found
  in
  let r = C.Environment.step env idx_with_mem2reg in
  Alcotest.(check bool) "promotion rewarded" true (r.C.Environment.reward > 0.0)

let test_environment_step_components () =
  (* each step's reward decomposes into the paper-weighted Eqn-2/3 parts
     the run ledger records *)
  let env = C.Environment.create ~target:x86 ~actions:O.Action_space.odg () in
  ignore (C.Environment.reset env (Testutil.sum_squares_module ()));
  let rec go i =
    let r = C.Environment.step env ((i * 7) mod 34) in
    check_float "reward = α·r_binsize + β·r_throughput"
      ((10.0 *. r.C.Environment.r_binsize)
       +. (5.0 *. r.C.Environment.r_throughput))
      r.C.Environment.reward;
    Alcotest.(check bool) "components finite" true
      (Float.is_finite r.C.Environment.r_binsize
       && Float.is_finite r.C.Environment.r_throughput);
    if not r.C.Environment.terminal then go (i + 1)
  in
  go 1

let test_environment_needs_reset () =
  let env = C.Environment.create ~target:x86 ~actions:O.Action_space.odg () in
  Alcotest.(check bool) "step before reset raises" true
    (try ignore (C.Environment.step env 0); false with Invalid_argument _ -> true)

let test_environment_n_actions () =
  let env = C.Environment.create ~target:x86 ~actions:O.Action_space.manual () in
  Alcotest.(check int) "manual actions" 15 (C.Environment.n_actions env)

(* --- trainer / inference ----------------------------------------------------------- *)

let tiny_hp =
  { C.Trainer.fast with
    C.Trainer.total_steps = 240;
    C.Trainer.epsilon = Rl.Schedule.create ~start:1.0 ~stop:0.2 ~decay_steps:150 ();
    C.Trainer.warmup_steps = 32;
    C.Trainer.target_sync_every = 60 }

let test_trainer_smoke () =
  let corpus = W.Genprog.corpus ~n:8 () in
  let res =
    C.Trainer.train ~hp:tiny_hp ~seed:1 ~corpus ~actions:O.Action_space.odg
      ~target:x86 ()
  in
  Alcotest.(check bool) "episodes ran" true (res.C.Trainer.episodes >= 16);
  (* the trained agent produces a full-length greedy rollout *)
  let m = Testutil.sum_squares_module () in
  let roll = C.Inference.predict ~agent:res.C.Trainer.agent ~actions:O.Action_space.odg ~target:x86 m in
  Alcotest.(check int) "rollout length" 15 (List.length roll.C.Inference.actions);
  Testutil.check_same_behaviour "rollout result" m roll.C.Inference.optimized

(* Every progress record one training run hands [on_record], in order,
   with the run's result. *)
let train_records ~hp ~seed =
  let corpus = W.Genprog.corpus ~n:4 () in
  let records = ref [] in
  let res =
    C.Trainer.train ~hp
      ~on_record:(fun r -> records := r :: !records)
      ~seed ~corpus ~actions:O.Action_space.manual ~target:x86 ()
  in
  (res, List.rev !records)

let of_kind kind = List.filter (fun r -> Obs.Runlog.str "kind" r = Some kind)
let num k r = Option.get (Obs.Runlog.num k r)

let test_trainer_progress () =
  (* the tick records: fields populated, step monotone on the 200-step
     tick grid, ε following the fast schedule exactly *)
  let hp = { C.Trainer.fast with C.Trainer.total_steps = 600 } in
  let _, records = train_records ~hp ~seed:7 in
  let ticks = of_kind "tick" records in
  Alcotest.(check int) "one tick per 200 steps" 3 (List.length ticks);
  ignore
    (List.fold_left
       (fun prev r ->
         let step = int_of_float (num "step" r) in
         Alcotest.(check bool) "step monotone" true (step > prev);
         Alcotest.(check int) "tick grid" 0 (step mod 200);
         Alcotest.(check bool) "episode populated" true (num "episode" r >= 1.0);
         check_float "epsilon follows fast schedule"
           (Rl.Schedule.value hp.C.Trainer.epsilon step)
           (num "epsilon" r);
         Alcotest.(check bool) "mean reward finite" true
           (Float.is_finite (num "mean_reward" r));
         Alcotest.(check bool) "reward components finite" true
           (Float.is_finite (num "r_binsize" r)
            && Float.is_finite (num "r_throughput" r));
         Alcotest.(check bool) "loss finite" true (Float.is_finite (num "loss" r));
         step)
       0 ticks);
  (* past the warmup + batch fill, training has actually happened *)
  match List.rev ticks with
  | last :: _ ->
    Alcotest.(check bool) "loss nonzero by final tick" true
      (num "loss" last <> 0.0)
  | [] -> ()

let test_trainer_episode_stream () =
  (* the episode records: one per finished episode, indices consecutive,
     and each episode's reward recombining from its components with the
     paper weights *)
  let res, records = train_records ~hp:tiny_hp ~seed:11 in
  let eps = of_kind "episode" records in
  Alcotest.(check int) "one record per episode" res.C.Trainer.episodes
    (List.length eps);
  ignore
    (List.fold_left
       (fun prev r ->
         let index = int_of_float (num "episode" r) in
         Alcotest.(check int) "indices consecutive" (prev + 1) index;
         Alcotest.(check (float 1e-6)) "reward recombines (Eqn 1)"
           ((10.0 *. num "r_binsize" r) +. (5.0 *. num "r_throughput" r))
           (num "reward" r);
         let epsilon = num "epsilon" r in
         Alcotest.(check bool) "epsilon in range" true
           (epsilon >= 0.0 && epsilon <= 1.0);
         Alcotest.(check bool) "gains finite" true
           (Float.is_finite (num "size_gain_pct" r)
            && Float.is_finite (num "thru_gain_pct" r));
         Alcotest.(check int) "one step triple per action"
           (List.length (Obs.Runlog.episode_actions r))
           (List.length (Obs.Fold.episode_steps r));
         index)
       0 eps)

let test_trainer_record_fields () =
  (* tick records carry the agent's Q diagnostics and the tick's GC
     reading; every episode reaches the stream *)
  let res, records = train_records ~hp:tiny_hp ~seed:5 in
  let ticks = of_kind "tick" records in
  Alcotest.(check bool) "a tick fired" true (ticks <> []);
  List.iter
    (fun r ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true
            (Obs.Runlog.num k r <> None))
        [ "q_mean"; "q_max"; "gc_minor"; "gc_major"; "gc_heap_mb";
          "gc_alloc_mb_s" ])
    ticks;
  Alcotest.(check int) "episode records = result.episodes"
    res.C.Trainer.episodes
    (List.length (of_kind "episode" records))

let test_trainer_metrics_registry () =
  (* the trainer publishes its posetrl.train.* series to the global
     registry; a live /metrics scrape reads these *)
  let corpus = W.Genprog.corpus ~n:4 () in
  let before =
    Option.value ~default:0.0
      (Posetrl_obs.Metrics.value "posetrl.train.steps")
  in
  ignore
    (C.Trainer.train ~hp:tiny_hp ~seed:3 ~corpus ~actions:O.Action_space.manual
       ~target:x86 ());
  let v name = Posetrl_obs.Metrics.value name in
  (match v "posetrl.train.steps" with
   | Some after -> check_float "steps counted" 240.0 (after -. before)
   | None -> Alcotest.fail "posetrl.train.steps missing");
  Alcotest.(check bool) "epsilon gauge set" true
    (match v "posetrl.train.epsilon" with Some e -> e > 0.0 && e <= 1.0 | None -> false);
  Alcotest.(check bool) "replay occupancy set" true
    (match v "posetrl.train.replay_occupancy" with Some o -> o > 0.0 | None -> false)

let test_trainer_deterministic () =
  let corpus = W.Genprog.corpus ~n:4 () in
  let train () =
    let res =
      C.Trainer.train ~hp:tiny_hp ~seed:99 ~corpus ~actions:O.Action_space.manual
        ~target:x86 ()
    in
    let m = Testutil.sum_squares_module () in
    (C.Inference.predict ~agent:res.C.Trainer.agent ~actions:O.Action_space.manual ~target:x86 m).C.Inference.actions
  in
  Alcotest.(check (list int)) "same seed same policy" (train ()) (train ())

(* --- the greedy rollout against a per-module reference ------------------------ *)

(* One module's greedy episode, stepped on its own without the
   environment (and so without its no-op memo): the agent's greedy
   action, then the action's passes, a fresh measurement and a fresh
   embedding, until [max_steps]. *)
let ref_rollout ~max_steps ~(agent : Rl.Dqn.t) (m : Posetrl_ir.Modul.t) :
    int list * string * float =
  let actions = O.Action_space.odg in
  let base = C.Reward.measure x86 m in
  let rec go k m last state taken total =
    if k = max_steps then
      (List.rev taken, Posetrl_ir.Printer.module_to_string m, total)
    else
      let a = Rl.Dqn.greedy_action agent state in
      let m' =
        Posetrl_passes.Pass_manager.run Posetrl_passes.Config.oz
          (O.Action_space.action actions a) m
      in
      let curr = C.Reward.measure x86 m' in
      let r = (C.Reward.decompose ~base ~last ~curr ()).C.Reward.total in
      go (k + 1) m' curr (C.Environment.observe m') (a :: taken) (total +. r)
  in
  go 0 m base (C.Environment.observe m) [] 0.0

(* validation programs and training-corpus programs, side by side *)
let rollout_programs =
  lazy
    (Array.append
       (Array.of_list (List.map snd (W.Suites.all_programs ())))
       (W.Suites.training_corpus ~n:24 ()))

(* (agent seed, program indices); when there are two or more modules the
   last repeats the first *)
let gen_rollout_case =
  QCheck2.Gen.(
    pair (int_range 0 10_000) (list_size (int_range 1 5) (int_range 0 54))
    |> map (fun (seed, idx) ->
           let n = List.length idx in
           (seed, List.mapi (fun i x -> if n > 1 && i = n - 1 then List.hd idx else x) idx)))

(* Actions, printed optimized IR and reward bits all match the
   reference, for episodes of 1 and 15 steps. *)
let prop_predict_batch_matches_reference =
  QCheck2.Test.make ~count:5
    ~print:(fun (seed, idx) ->
      Printf.sprintf "seed=%d programs=[%s]" seed
        (String.concat ";" (List.map string_of_int idx)))
    ~name:"predict_batch = map of the per-module greedy episode" gen_rollout_case
    (fun (seed, idx) ->
      let progs = Lazy.force rollout_programs in
      let ms = List.map (fun i -> progs.(i)) idx in
      let agent () =
        Rl.Dqn.create (Posetrl_support.Rng.create seed)
          ~state_dim:C.Environment.state_dim ~hidden:[ 128; 64 ]
          ~n_actions:(O.Action_space.n_actions O.Action_space.odg)
      in
      let same (r : C.Inference.rollout) (actions, ir, reward) =
        r.C.Inference.actions = actions
        && String.equal (Posetrl_ir.Printer.module_to_string r.C.Inference.optimized) ir
        && Int64.bits_of_float r.C.Inference.reward = Int64.bits_of_float reward
      in
      List.for_all
        (fun max_steps ->
          let expect = List.map (ref_rollout ~max_steps ~agent:(agent ())) ms in
          let got =
            C.Inference.predict_batch ~max_steps ~agent:(agent ())
              ~actions:O.Action_space.odg ~target:x86 ms
          in
          List.length got = List.length expect && List.for_all2 same got expect)
        [ 1; 15 ])

let test_apply_sequence () =
  let m = Testutil.sum_squares_module () in
  let m' = C.Inference.apply_sequence ~actions:O.Action_space.odg [ 30; 23; 7 ] m in
  Testutil.check_same_behaviour "apply sequence" m m'

(* --- evaluation ---------------------------------------------------------------------- *)

let test_evaluate_program_fields () =
  let corpus = W.Genprog.corpus ~n:4 () in
  let res =
    C.Trainer.train ~hp:tiny_hp ~seed:5 ~corpus ~actions:O.Action_space.odg
      ~target:x86 ()
  in
  let m = W.Mibench.crc32 () in
  let r =
    C.Evaluate.evaluate_program ~agent:res.C.Trainer.agent ~actions:O.Action_space.odg
      ~target:x86 ~name:"crc32" m
  in
  Alcotest.(check bool) "unopt biggest-ish" true (r.C.Evaluate.size_unopt > 0);
  Alcotest.(check bool) "oz smaller than unopt" true
    (r.C.Evaluate.size_oz < r.C.Evaluate.size_unopt);
  Alcotest.(check bool) "model size positive" true (r.C.Evaluate.size_model > 0);
  Alcotest.(check bool) "times measured" true
    (Option.is_some r.C.Evaluate.time_oz && Option.is_some r.C.Evaluate.time_model)

let test_summarize_suite () =
  let mk name oz model =
    { C.Evaluate.prog_name = name;
      size_unopt = 2000;
      size_oz = oz;
      size_model = model;
      time_oz = Some 100;
      time_model = Some 90;
      predicted = [] }
  in
  let s =
    C.Evaluate.summarize_suite ~suite:"s"
      [ mk "a" 1000 900; mk "b" 1000 1100; mk "c" 1000 800 ]
  in
  check_float "min" (-10.0) s.C.Evaluate.min_red;
  check_float "max" 20.0 s.C.Evaluate.max_red;
  check_float "avg" (20.0 /. 3.0) s.C.Evaluate.avg_red;
  (match s.C.Evaluate.avg_time_impr with
   | Some t -> check_float "time" 10.0 t
   | None -> Alcotest.fail "time expected")

(* --- unchanged is physically equal -------------------------------------------- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Along random 15-step ODG schedules on generated programs: each pass
   application prints as the raw pass output, returns its input exactly
   when that output is [Modul.equal] to it and returns every input
   function an output function equals; each environment step reports
   the state and reward a fresh measurement of its module gives, and an
   unchanged step the previous state array. *)
let prop_unchanged_is_physical =
  let module P = Posetrl_passes in
  let module M = Posetrl_ir.Modul in
  let actions = O.Action_space.odg in
  QCheck2.Test.make ~count:20
    ~print:QCheck2.Print.(pair int (list int))
    ~name:"unchanged modules are physically equal along ODG schedules"
    QCheck2.Gen.(
      pair (int_range 0 100_000)
        (list_repeat C.Environment.default_max_steps
           (int_range 0 (O.Action_space.n_actions actions - 1))))
    (fun (seed, schedule) ->
      let print = Posetrl_ir.Printer.module_to_string in
      let run_pass m name =
        let p = P.Registry.find_exn name in
        let raw = p.P.Pass.run P.Config.oz m in
        let out = P.Pass.run p P.Config.oz m in
        if not (String.equal (print raw) (print out)) then
          QCheck2.Test.fail_reportf "%s: output differs from the raw pass" name;
        if (out == m) <> M.equal m raw then
          QCheck2.Test.fail_reportf "%s: returned input <> Modul.equal" name;
        List.iter
          (fun (f : Posetrl_ir.Func.t) ->
            match M.find_func m f.Posetrl_ir.Func.name with
            | Some g when Posetrl_ir.Func.equal g f && g != f ->
              QCheck2.Test.fail_reportf "%s: equal function %s not shared" name
                f.Posetrl_ir.Func.name
            | _ -> ())
          out.M.funcs;
        out
      in
      let m0 = W.Genprog.generate ~seed in
      let env = C.Environment.create ~target:x86 ~actions () in
      let state = ref (C.Environment.reset env m0) in
      let base = C.Reward.measure x86 m0 in
      let last = ref base in
      let m = ref m0 in
      List.iteri
        (fun k a ->
          let before = C.Environment.current_module env in
          m := List.fold_left run_pass !m (O.Action_space.action actions a);
          let res = C.Environment.step env a in
          let cur = C.Environment.current_module env in
          let curr = C.Reward.measure x86 cur in
          let comps = C.Reward.decompose ~base ~last:!last ~curr () in
          let fresh = C.Environment.observe cur in
          if not (String.equal (print cur) (print !m)) then
            QCheck2.Test.fail_reportf "step %d: module differs from the pass chain" k;
          if not (Array.for_all2 bits_equal res.C.Environment.state fresh) then
            QCheck2.Test.fail_reportf "step %d: state differs from observe" k;
          if not
               (bits_equal res.C.Environment.reward comps.C.Reward.total
                && bits_equal res.C.Environment.r_binsize comps.C.Reward.binsize
                && bits_equal res.C.Environment.r_throughput comps.C.Reward.throughput)
          then QCheck2.Test.fail_reportf "step %d: reward differs from measure" k;
          if (cur == before) <> (res.C.Environment.state == !state) then
            QCheck2.Test.fail_reportf "step %d: state reused <> module unchanged" k;
          state := res.C.Environment.state;
          last := curr)
        schedule;
      true)

(* --- a known no-op runs no pass ------------------------------------------------ *)

type noop_program = Suite of int | Generated of int

(* (program, sanitize level, schedule): 15 ODG actions drawn from an
   alphabet of three, so actions repeat on modules they left unchanged *)
let gen_noop_case =
  let n = O.Action_space.n_actions O.Action_space.odg in
  QCheck2.Gen.(
    let* prog =
      oneof
        [ map (fun i -> Suite i) (int_range 0 54);
          map (fun s -> Generated s) (int_range 0 100_000) ]
    in
    let* level = oneofl Posetrl_analysis.Sanitize.[ Off; Ssa ] in
    let* alphabet = list_repeat 3 (int_range 0 (n - 1)) in
    let+ schedule = list_repeat C.Environment.default_max_steps (oneofl alphabet) in
    (prog, level, schedule))

(* Every environment step (state bits, reward bits, both components,
   printed module) equals a reference that calls the pass manager,
   [Reward.measure], [Reward.decompose] and [Environment.observe]
   directly; a step on an action already seen to leave the module
   unchanged since the last change or [reset] runs no pass and counts
   one no-op skip. *)
let prop_known_noop_runs_no_pass =
  let module P = Posetrl_passes in
  let actions = O.Action_space.odg in
  let count name = Option.value ~default:0.0 (Obs.Metrics.value name) in
  let runs () = count "posetrl.pass.runs" and skips () = count "posetrl.env.noop_skips" in
  QCheck2.Test.make ~count:30
    ~print:(fun (prog, level, schedule) ->
      Printf.sprintf "%s at %s: [%s]"
        (match prog with
         | Suite i -> Printf.sprintf "program %d" i
         | Generated s -> Printf.sprintf "genprog %d" s)
        (Posetrl_analysis.Sanitize.level_to_string level)
        (String.concat ";" (List.map string_of_int schedule)))
    ~name:"a known no-op step runs no pass and matches the reference"
    gen_noop_case
    (fun (prog, sanitize, schedule) ->
      let print = Posetrl_ir.Printer.module_to_string in
      let m0 =
        match prog with
        | Suite i -> (Lazy.force rollout_programs).(i)
        | Generated seed -> W.Genprog.generate ~seed
      in
      let env = C.Environment.create ~sanitize ~target:x86 ~actions () in
      (* a first episode leaves no-ops behind for [reset] to forget *)
      ignore (C.Environment.reset env (Testutil.sum_squares_module ()));
      List.iter (fun a -> ignore (C.Environment.step env a)) schedule;
      ignore (C.Environment.reset env m0);
      let base = C.Reward.measure x86 m0 in
      let m = ref m0 and last = ref base and noops = ref [] in
      List.iteri
        (fun k a ->
          let names = O.Action_space.action actions a in
          let known = List.mem a !noops in
          let runs0 = runs () and skips0 = skips () in
          let res = C.Environment.step env a in
          let ran = runs () -. runs0 and skipped = skips () -. skips0 in
          if known && (ran <> 0.0 || skipped <> 1.0) then
            QCheck2.Test.fail_reportf "step %d: known no-op %d ran %g passes, %g skips" k a
              ran skipped;
          if (not known) && (ran <> float_of_int (List.length names) || skipped <> 0.0)
          then
            QCheck2.Test.fail_reportf "step %d: action %d ran %g of %d passes, %g skips" k a
              ran (List.length names) skipped;
          let m' = P.Pass_manager.run ~sanitize P.Config.oz names !m in
          let curr = C.Reward.measure x86 m' in
          let comps = C.Reward.decompose ~base ~last:!last ~curr () in
          if not (String.equal (print (C.Environment.current_module env)) (print m')) then
            QCheck2.Test.fail_reportf "step %d: module differs from the reference" k;
          if not (Array.for_all2 bits_equal res.C.Environment.state (C.Environment.observe m'))
          then QCheck2.Test.fail_reportf "step %d: state differs from the reference" k;
          if not
               (bits_equal res.C.Environment.reward comps.C.Reward.total
                && bits_equal res.C.Environment.r_binsize comps.C.Reward.binsize
                && bits_equal res.C.Environment.r_throughput comps.C.Reward.throughput)
          then QCheck2.Test.fail_reportf "step %d: reward differs from the reference" k;
          if m' == !m then (if not known then noops := a :: !noops) else noops := [];
          m := m';
          last := curr)
        schedule;
      true)

let suite =
  [ Alcotest.test_case "reward weights" `Quick test_reward_weights_default;
    Alcotest.test_case "reward binsize (Eqn 2)" `Quick test_reward_binsize_component;
    Alcotest.test_case "reward throughput (Eqn 3)" `Quick test_reward_throughput_component;
    Alcotest.test_case "reward combined (Eqn 1)" `Quick test_reward_combined;
    Alcotest.test_case "reward punishes growth" `Quick test_reward_negative_on_growth;
    Alcotest.test_case "reward telescopes" `Quick test_reward_telescopes;
    Alcotest.test_case "environment episode" `Quick test_environment_episode;
    Alcotest.test_case "environment reward sign" `Quick test_environment_reward_consistency;
    Alcotest.test_case "environment needs reset" `Quick test_environment_needs_reset;
    Alcotest.test_case "environment n_actions" `Quick test_environment_n_actions;
    Alcotest.test_case "trainer smoke" `Slow test_trainer_smoke;
    Alcotest.test_case "trainer progress callback" `Slow test_trainer_progress;
    Alcotest.test_case "trainer episode stream" `Slow test_trainer_episode_stream;
    Alcotest.test_case "trainer record fields" `Slow test_trainer_record_fields;
    Alcotest.test_case "trainer metrics registry" `Slow test_trainer_metrics_registry;
    Alcotest.test_case "trainer deterministic" `Slow test_trainer_deterministic;
    Alcotest.test_case "apply sequence" `Quick test_apply_sequence;
    Alcotest.test_case "evaluate program" `Slow test_evaluate_program_fields;
    Alcotest.test_case "summarize suite" `Quick test_summarize_suite;
    QCheck_alcotest.to_alcotest prop_predict_batch_matches_reference;
    QCheck_alcotest.to_alcotest prop_unchanged_is_physical;
    QCheck_alcotest.to_alcotest prop_known_noop_runs_no_pass ]
