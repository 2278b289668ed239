(* Evaluation harness: the model-vs-Oz comparisons behind Table IV,
   Table V and Fig. 5.

   For each validation program we compile three ways — unoptimized, -Oz,
   and with the trained model's predicted sequence — then compare object
   sizes (codegen model) and execution time (interpreter cycles on the
   x86 cost model), exactly the two axes the paper reports. *)

open Posetrl_ir
module Rl = Posetrl_rl
module Obs = Posetrl_obs

type program_result = {
  prog_name : string;
  size_unopt : int;
  size_oz : int;
  size_model : int;
  time_oz : int option;    (* interpreter cycles; None if not executed *)
  time_model : int option;
  predicted : int list;
}

(* percentage of size reduction of the model binary vs the Oz binary;
   positive = model smaller (paper Table IV) *)
let size_reduction_pct (r : program_result) : float =
  if r.size_oz = 0 then 0.0
  else 100.0 *. float_of_int (r.size_oz - r.size_model) /. float_of_int r.size_oz

(* percentage decrease of execution time vs Oz; positive = model faster
   (paper Table V) *)
let time_improvement_pct (r : program_result) : float option =
  match r.time_oz, r.time_model with
  | Some toz, Some tm when toz > 0 ->
    Some (100.0 *. float_of_int (toz - tm) /. float_of_int toz)
  | _ -> None

(* The span sits here rather than in [Interp.run] so the equiv
   sanitizer's many simulations stay unspanned. *)
let run_time (m : Modul.t) : int option =
  Obs.Span.with_ "posetrl.interp.run" (fun _ ->
      match Posetrl_interp.Interp.run m with
      | { Posetrl_interp.Interp.cycles; _ } -> Some cycles
      | exception Posetrl_interp.Interp.Trap _ -> None)

let evaluate_program ?(measure_time = true)
    ?(sanitize = Posetrl_analysis.Sanitize.Off) ~(agent : Rl.Dqn.t)
    ~(actions : Posetrl_odg.Action_space.t)
    ~(target : Posetrl_codegen.Target.t) ~(name : string) (m : Modul.t) :
    program_result =
  let size_of m = Posetrl_codegen.Objfile.size target m in
  let m_oz =
    Posetrl_passes.Pass_manager.run_level ~sanitize Posetrl_passes.Pipelines.Oz m
  in
  let rollout = Inference.predict ~sanitize ~agent ~actions ~target m in
  let m_model = rollout.Inference.optimized in
  { prog_name = name;
    size_unopt = size_of m;
    size_oz = size_of m_oz;
    size_model = size_of m_model;
    time_oz = (if measure_time then run_time m_oz else None);
    time_model = (if measure_time then run_time m_model else None);
    predicted = rollout.Inference.actions }

(* --- parallel suite evaluation (pool) --------------------------------------

   Programs are independent: each worker builds its module fresh (the
   workload generators carry their own seeded RNGs), runs the greedy
   rollout and sizes the three binaries. Results come back in input
   order from [Pool.map_timed], so the output — and everything derived
   from it (eval.json) — is byte-identical to the sequential path. Each
   program runs inside one [posetrl.eval.program] span opened on the
   domain that evaluates it, so a trace's self-times add up to its wall
   time on every domain; the owner then feeds the [posetrl.pool.*]
   series from the recorded task timings. *)

module Pool = Posetrl_support.Pool

let m_pool_jobs = Obs.Metrics.gauge "posetrl.pool.jobs"
let m_pool_tasks = Obs.Metrics.counter "posetrl.pool.eval_tasks"
let m_pool_task_s = Obs.Metrics.histogram "posetrl.pool.task_seconds"
let m_pool_batch_s = Obs.Metrics.histogram "posetrl.pool.batch_seconds"

let evaluate_programs ?(sanitize = Posetrl_analysis.Sanitize.Off) ?pool
    ~(agent : Rl.Dqn.t) ~(actions : Posetrl_odg.Action_space.t)
    ~(target : Posetrl_codegen.Target.t)
    (programs : (string * (unit -> Modul.t)) list) : program_result list =
  (* the sanitizer keeps all its state per-call (see Posetrl_analysis),
     so sanitized evaluation is safe on pool workers *)
  let eval_one (name, mk) =
    Obs.Span.with_ ~attrs:[ ("program", Obs.Event.S name) ]
      "posetrl.eval.program" (fun _ ->
        evaluate_program ~sanitize ~agent ~actions ~target ~name (mk ()))
  in
  match pool with
  | None -> List.map eval_one programs
  | Some p ->
    Obs.Metrics.set m_pool_jobs (float_of_int (Pool.jobs p));
    (* pool timing stamps tick on Pool.clock, which Obs.Clock mirrors —
       one clock for the batch bracket and the per-task stamps, so the
       utilization aggregates are exact under a fake clock too *)
    let t0 = Obs.Clock.now () in
    let results, timings = Pool.map_timed p eval_one (Array.of_list programs) in
    let t1 = Obs.Clock.now () in
    Obs.Metrics.observe m_pool_batch_s (t1 -. t0);
    ignore (Obs.Prof.note_pool_batch ~jobs:(Pool.jobs p) ~t0 ~t1 timings);
    Array.iter
      (fun (tm : Pool.timing) ->
        Obs.Metrics.inc m_pool_tasks;
        Obs.Metrics.observe m_pool_task_s tm.Pool.t_dur)
      timings;
    Array.to_list results

type suite_summary = {
  suite : string;
  n : int;
  min_red : float;
  avg_red : float;
  max_red : float;
  avg_time_impr : float option;
}

let summarize_suite ~(suite : string) (results : program_result list) :
    suite_summary =
  let reds = List.map size_reduction_pct results in
  let times = List.filter_map time_improvement_pct results in
  { suite;
    n = List.length results;
    min_red = Posetrl_support.Stats.minimum reds;
    avg_red = Posetrl_support.Stats.mean reds;
    max_red = Posetrl_support.Stats.maximum reds;
    avg_time_impr =
      (if times = [] then None else Some (Posetrl_support.Stats.mean times)) }

(* --- run-ledger serialization (eval.json) --------------------------------- *)

module Json = Posetrl_obs.Json

let opt_int = function Some i -> Json.Int i | None -> Json.Null
let opt_float = function Some f -> Json.Float f | None -> Json.Null

let result_to_json (r : program_result) : Json.t =
  Json.Obj
    [ ("name", Json.Str r.prog_name);
      ("size_unopt", Json.Int r.size_unopt);
      ("size_oz", Json.Int r.size_oz);
      ("size_model", Json.Int r.size_model);
      ("size_red_pct", Json.Float (size_reduction_pct r));
      ("time_oz", opt_int r.time_oz);
      ("time_model", opt_int r.time_model);
      ("time_impr_pct", opt_float (time_improvement_pct r));
      ("predicted", Json.Arr (List.map (fun a -> Json.Int a) r.predicted)) ]

let summary_to_json (s : suite_summary) : Json.t =
  Json.Obj
    [ ("suite", Json.Str s.suite);
      ("n", Json.Int s.n);
      ("min_red", Json.Float s.min_red);
      ("avg_red", Json.Float s.avg_red);
      ("max_red", Json.Float s.max_red);
      ("avg_time_impr", opt_float s.avg_time_impr) ]

(* The eval.json document: per-suite summaries (the compare side keys on
   "suite"/"avg_red") with the per-program rows nested under each. *)
let suites_to_json (suites : (suite_summary * program_result list) list) :
    Json.t =
  Json.Obj
    [ ("suites",
       Json.Arr
         (List.map
            (fun (s, results) ->
              match summary_to_json s with
              | Json.Obj fields ->
                Json.Obj
                  (fields
                   @ [ ("programs", Json.Arr (List.map result_to_json results)) ])
              | j -> j)
            suites)) ]
