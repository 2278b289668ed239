(* POSET-RL experiment harness.

   Regenerates every table and figure of the paper's evaluation (plus the
   design ablations called out in DESIGN.md) against the OCaml
   reproduction, and finishes with bechamel micro-benchmarks of the hot
   components.

   Usage:  dune exec bench/main.exe [-- section ...]
   Sections: fig1 tables123 fig4 table4 table5 fig5 table6 ablations micro
   parallel analysis obs serve (default: all). The training budget per
   model is configurable with POSETRL_BENCH_STEPS (default 12000). *)

open Posetrl_ir
open Posetrl_support
module P = Posetrl_passes
module W = Posetrl_workloads
module C = Posetrl_core
module O = Posetrl_odg
module CG = Posetrl_codegen
module I = Posetrl_interp.Interp
module Obs = Posetrl_obs

let x86 = CG.Target.x86_64
let arm = CG.Target.aarch64

let default_bench_steps = 12000

let bench_steps =
  match Sys.getenv_opt "POSETRL_BENCH_STEPS" with
  | Some s -> (try int_of_string s with _ -> default_bench_steps)
  | None -> default_bench_steps

(* Headline numbers accumulated by the sections below and written through
   the run ledger as BENCH_runledger.json — the persistent perf
   trajectory a future run can `posetrl runs compare` against. *)
let headline : (string * Obs.Json.t) list ref = ref []

let record_headline key (j : Obs.Json.t) =
  headline := !headline @ [ (key, j) ]

let section_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let run_cycles m =
  match I.run m with
  | o -> Some o.I.cycles
  | exception I.Trap _ -> None

let opt level m = P.Pass_manager.run_level level m

(* ======================================================================== *)
(* Fig 1: O3 vs Oz runtime and code size                                     *)
(* ======================================================================== *)

let fig1 () =
  section_header "Fig 1 - O3 vs Oz: runtime and code size (x86)";
  let t =
    Table.create ~title:"runtime (interp cycles) and object size (bytes)"
      ~headers:[ "benchmark"; "time O3"; "time Oz"; "Oz slowdown %"; "size O3"; "size Oz"; "Oz size gain %" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let slowdowns = ref [] and gains = ref [] in
  List.iter
    (fun (name, m) ->
      let m3 = opt P.Pipelines.O3 m and mz = opt P.Pipelines.Oz m in
      let t3 = run_cycles m3 and tz = run_cycles mz in
      let s3 = CG.Objfile.size x86 m3 and sz = CG.Objfile.size x86 mz in
      let slow =
        match t3, tz with
        | Some a, Some b when a > 0 -> 100.0 *. float_of_int (b - a) /. float_of_int a
        | _ -> nan
      in
      let gain = 100.0 *. float_of_int (s3 - sz) /. float_of_int s3 in
      if Float.is_finite slow then slowdowns := slow :: !slowdowns;
      gains := gain :: !gains;
      Table.add_row t
        [ name;
          (match t3 with Some v -> string_of_int v | None -> "-");
          (match tz with Some v -> string_of_int v | None -> "-");
          Printf.sprintf "%.2f" slow;
          string_of_int s3;
          string_of_int sz;
          Printf.sprintf "%.2f" gain ])
    (W.Suites.all_programs ());
  Table.print t;
  record_headline "fig1_oz_slowdown_pct" (Obs.Json.Float (Stats.mean !slowdowns));
  record_headline "fig1_oz_size_gain_pct" (Obs.Json.Float (Stats.mean !gains));
  Printf.printf
    "average: Oz runs %.2f%% slower than O3 while being %.2f%% smaller\n\
     (paper Fig 1 reports ~10%% slower / ~3.5%% smaller on real SPEC)\n"
    (Stats.mean !slowdowns) (Stats.mean !gains)

(* ======================================================================== *)
(* Tables I-III: the Oz sequence and both action spaces                      *)
(* ======================================================================== *)

let tables123 () =
  section_header "Table I - reconstructed -Oz sequence";
  Printf.printf "%d pass instances, %d unique passes\n"
    (List.length P.Pipelines.oz_sequence)
    (List.length P.Pipelines.unique_passes);
  Printf.printf "%s\n" (String.concat " " (List.map (fun p -> "-" ^ p) P.Pipelines.oz_sequence));
  section_header "Table II - 15 manual sub-sequences";
  List.iteri
    (fun k g -> Printf.printf "%2d | %s\n" (k + 1) (String.concat " " (List.map (fun p -> "-" ^ p) g)))
    P.Pipelines.manual_groups;
  section_header "Table III - 34 ODG sub-sequences (canonical)";
  Array.iteri
    (fun k a -> Printf.printf "%2d | %s\n" (k + 1) (String.concat " " (List.map (fun p -> "-" ^ p) a)))
    O.Action_space.odg.O.Action_space.actions;
  let derived = O.Walks.derive ~k:8 (Lazy.force O.Graph.default) in
  let canonical = Array.to_list O.Action_space.odg.O.Action_space.actions in
  let matches = List.length (List.filter (fun w -> List.mem w canonical) derived) in
  Printf.printf
    "\nwalk derivation: %d sub-sequences derived from the ODG; %d/34 match the\n\
     canonical table verbatim (the rest differ only in the paper's own\n\
     barrier/mem2reg placement inconsistencies)\n"
    (List.length derived) matches

(* ======================================================================== *)
(* Fig 4: the ODG                                                            *)
(* ======================================================================== *)

let fig4 () =
  section_header "Fig 4 - Oz Dependence Graph";
  let g = Lazy.force O.Graph.default in
  Printf.printf "nodes: %d   edges: %d\n" (O.Graph.node_count g) (O.Graph.edge_count g);
  Printf.printf "critical nodes (k >= 8):\n";
  List.iter
    (fun (n, d) -> Printf.printf "  %-14s degree %d\n" n d)
    (O.Graph.critical_nodes ~k:8 g);
  let dot = O.Graph.to_dot g in
  let path = "odg.dot" in
  let oc = open_out path in
  output_string oc dot;
  close_out oc;
  Printf.printf "graphviz rendering written to %s (%d bytes)\n" path (String.length dot)

(* ======================================================================== *)
(* model training                                                            *)
(* ======================================================================== *)

type trained = {
  space : O.Action_space.t;
  target : CG.Target.t;
  agent : Posetrl_rl.Dqn.t;
}

let train_model ~seed (space : O.Action_space.t) (target : CG.Target.t)
    (corpus : Modul.t array) : trained =
  let hp =
    { C.Trainer.fast with
      C.Trainer.total_steps = bench_steps;
      C.Trainer.epsilon =
        Posetrl_rl.Schedule.create ~start:1.0 ~stop:0.05
          ~decay_steps:(bench_steps * 3 / 4) () }
  in
  Printf.printf "training %s/%s model (%d steps)... %!" space.O.Action_space.name
    target.CG.Target.name hp.C.Trainer.total_steps;
  let t0 = Unix.gettimeofday () in
  let res = C.Trainer.train ~hp ~seed ~corpus ~actions:space ~target () in
  Printf.printf "done in %.1fs (%d episodes, mean episode reward %.2f)\n%!"
    (Unix.gettimeofday () -. t0) res.C.Trainer.episodes res.C.Trainer.final_mean_reward;
  { space; target; agent = res.C.Trainer.agent }

let models = ref ([] : trained list)

let get_model space target =
  match
    List.find_opt
      (fun t ->
        t.space.O.Action_space.name = space.O.Action_space.name
        && t.target.CG.Target.name = target.CG.Target.name)
      !models
  with
  | Some t -> t
  | None ->
    let corpus = W.Suites.training_corpus () in
    let t = train_model ~seed:20220522 space target corpus in
    models := t :: !models;
    t

let eval_suite (t : trained) ~measure_time (suite : W.Suites.suite) :
    C.Evaluate.program_result list =
  List.map
    (fun (name, mk) ->
      C.Evaluate.evaluate_program ~measure_time ~agent:t.agent ~actions:t.space
        ~target:t.target ~name (mk ()))
    suite.W.Suites.programs

(* ======================================================================== *)
(* Table IV: size reduction vs Oz                                            *)
(* ======================================================================== *)

let table4 () =
  section_header "Table IV - % size reduction vs -Oz (min / avg / max)";
  let tbl =
    Table.create
      ~title:"size reduction relative to Oz (positive = model smaller)"
      ~headers:[ "target"; "benchmark suite"; "space"; "min"; "avg"; "max" ]
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun target ->
      List.iter
        (fun space ->
          let model = get_model space target in
          List.iter
            (fun suite ->
              let rs = eval_suite model ~measure_time:false suite in
              let s = C.Evaluate.summarize_suite ~suite:suite.W.Suites.suite_name rs in
              record_headline
                (Printf.sprintf "table4_%s_%s_%s_avg_red"
                   target.CG.Target.name space.O.Action_space.name
                   suite.W.Suites.suite_name)
                (Obs.Json.Float s.C.Evaluate.avg_red);
              Table.add_row tbl
                [ target.CG.Target.name;
                  suite.W.Suites.suite_name;
                  space.O.Action_space.name;
                  Printf.sprintf "%.2f" s.C.Evaluate.min_red;
                  Printf.sprintf "%.2f" s.C.Evaluate.avg_red;
                  Printf.sprintf "%.2f" s.C.Evaluate.max_red ])
            W.Suites.validation_suites)
        [ O.Action_space.manual; O.Action_space.odg ])
    [ x86; arm ];
  Table.print tbl;
  print_endline
    "(paper Table IV: ODG avg positive on every suite and above the manual\n\
     space; occasional negative minima persist)"

(* ======================================================================== *)
(* Table V: execution-time improvement (x86)                                 *)
(* ======================================================================== *)

let table5 () =
  section_header "Table V - % execution-time improvement vs -Oz (x86)";
  let tbl =
    Table.create ~title:"runtime improvement (positive = model faster)"
      ~headers:[ "benchmark suite"; "manual"; "odg" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ] ()
  in
  let per_space space =
    let model = get_model space x86 in
    List.map
      (fun suite ->
        let rs = eval_suite model ~measure_time:true suite in
        let s = C.Evaluate.summarize_suite ~suite:suite.W.Suites.suite_name rs in
        Option.iter
          (fun t ->
            record_headline
              (Printf.sprintf "table5_%s_%s_time_impr"
                 space.O.Action_space.name suite.W.Suites.suite_name)
              (Obs.Json.Float t))
          s.C.Evaluate.avg_time_impr;
        (suite.W.Suites.suite_name, s.C.Evaluate.avg_time_impr))
      W.Suites.validation_suites
  in
  let manual = per_space O.Action_space.manual in
  let odg = per_space O.Action_space.odg in
  List.iter
    (fun (suite, mi) ->
      let oi = List.assoc suite odg in
      let fmt = function Some v -> Printf.sprintf "%.2f" v | None -> "-" in
      Table.add_row tbl [ suite; fmt mi; fmt oi ])
    manual;
  Table.print tbl;
  print_endline
    "(paper Table V: ODG +11.99% on SPEC-2017, -4.19% on SPEC-2006, +6.00%\n\
     on MiBench)"

(* ======================================================================== *)
(* Fig 5: per-benchmark runtime and size, Oz vs ODG model                     *)
(* ======================================================================== *)

let fig5 () =
  section_header "Fig 5 - per-benchmark runtime and size, Oz vs ODG model (x86)";
  let model = get_model O.Action_space.odg x86 in
  List.iter
    (fun suite ->
      if suite.W.Suites.suite_name <> "MiBench" then begin
        let rs = eval_suite model ~measure_time:true suite in
        let tbl =
          Table.create
            ~title:(Printf.sprintf "%s: runtime (cycles) and size (bytes)" suite.W.Suites.suite_name)
            ~headers:[ "benchmark"; "time Oz"; "time model"; "dt %"; "size Oz"; "size model"; "ds %" ]
            ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
            ()
        in
        List.iter
          (fun (r : C.Evaluate.program_result) ->
            Table.add_row tbl
              [ r.C.Evaluate.prog_name;
                (match r.C.Evaluate.time_oz with Some v -> string_of_int v | None -> "-");
                (match r.C.Evaluate.time_model with Some v -> string_of_int v | None -> "-");
                (match C.Evaluate.time_improvement_pct r with
                 | Some v -> Printf.sprintf "%+.2f" v
                 | None -> "-");
                string_of_int r.C.Evaluate.size_oz;
                string_of_int r.C.Evaluate.size_model;
                Printf.sprintf "%+.2f" (C.Evaluate.size_reduction_pct r) ])
          rs;
        Table.print tbl
      end)
    W.Suites.validation_suites

(* ======================================================================== *)
(* Table VI: predicted sub-sequences                                          *)
(* ======================================================================== *)

let table6 () =
  section_header "Table VI - predicted action sequences (ODG space)";
  let cases =
    [ ("508.namd", x86); ("525.x264", x86); ("susan", x86);
      ("508.namd", arm); ("511.povray", arm) ]
  in
  List.iteri
    (fun k (name, target) ->
      match W.Suites.find_program name with
      | None -> Printf.printf "%d | %s: program not found\n" (k + 1) name
      | Some mk ->
        let model = get_model O.Action_space.odg target in
        let roll =
          C.Inference.predict ~agent:model.agent ~actions:O.Action_space.odg
            ~target (mk ())
        in
        Printf.printf "%d | %-10s (%s): %s\n" (k + 1) name target.CG.Target.name
          (String.concat " -> " (List.map string_of_int roll.C.Inference.actions)))
    cases;
  print_endline
    "(action indices refer to Table III rows, 0-based; the paper's examples\n\
     likewise mix loop, inliner and cleanup sub-sequences)"

(* ======================================================================== *)
(* Ablations                                                                  *)
(* ======================================================================== *)

let ablations () =
  section_header "Ablations - reward weights, DDQN vs DQN, episode length";
  let corpus = W.Suites.training_corpus ~n:60 () in
  let steps = max 1500 (bench_steps / 4) in
  let probe ~double ~max_steps label =
    let hp =
      { C.Trainer.fast with
        C.Trainer.total_steps = steps;
        C.Trainer.double;
        C.Trainer.max_episode_steps = max_steps;
        C.Trainer.epsilon =
          Posetrl_rl.Schedule.create ~start:1.0 ~stop:0.05
            ~decay_steps:(steps * 3 / 4) () }
    in
    let res = C.Trainer.train ~hp ~seed:777 ~corpus ~actions:O.Action_space.odg ~target:x86 () in
    let rs =
      List.concat_map
        (fun suite ->
          eval_suite { space = O.Action_space.odg; target = x86; agent = res.C.Trainer.agent }
            ~measure_time:false suite)
        W.Suites.validation_suites
    in
    let reds = List.map C.Evaluate.size_reduction_pct rs in
    Printf.printf "  %-24s avg size reduction vs Oz: %+.2f%%\n%!" label (Stats.mean reds)
  in
  print_endline "episode length (steps per episode):";
  probe ~double:true ~max_steps:5 "5 steps";
  probe ~double:true ~max_steps:15 "15 steps (paper)";
  print_endline "agent flavour:";
  probe ~double:false ~max_steps:15 "vanilla DQN";
  probe ~double:true ~max_steps:15 "double DQN (paper)";
  print_endline "reward weights (alpha: size, beta: throughput), random-policy probe:";
  List.iter
    (fun (alpha, beta) ->
      let weights = { C.Reward.alpha; C.Reward.beta } in
      let env =
        C.Environment.create ~weights ~target:x86 ~actions:O.Action_space.odg ()
      in
      let rng = Rng.create 4242 in
      let totals = ref [] in
      Array.iter
        (fun m ->
          ignore (C.Environment.reset env m);
          let total = ref 0.0 in
          for _ = 1 to 15 do
            let r = C.Environment.step env (Rng.int rng 34) in
            total := !total +. r.C.Environment.reward
          done;
          totals := !total :: !totals)
        (Array.sub corpus 0 12);
      Printf.printf "  alpha=%2.0f beta=%2.0f: mean random-policy episode reward %+.3f\n%!"
        alpha beta (Stats.mean !totals))
    [ (10.0, 5.0); (1.0, 0.0); (0.0, 1.0); (5.0, 10.0) ]

(* ======================================================================== *)
(* bechamel micro-benchmarks                                                  *)
(* ======================================================================== *)

(* Run a grouped test set on the fixed budget and return (name, ns/run)
   rows, OLS-estimated against the monotonic clock. *)
let bechamel_run tests : (string * float) list =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _clock tbl ->
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some (est :: _) -> rows := (name, est) :: !rows
          | _ -> ())
        tbl)
    merged;
  List.sort compare !rows

let print_bechamel_rows rows =
  List.iter (fun (name, est) -> Printf.printf "  %-38s %14.1f ns/run\n" name est) rows

(* --- the gated sections' shared path ---------------------------------------

   Each gated section (parallel, analysis, obs, serve)
   writes BENCH_<what>.json for the bench-regression CI job. Raw ns/run
   numbers don't transfer between machines, so every gated cost is
   reported relative to a calibration row benched in the same process:
   an untiled 4k dot product, one dependent chain of scalar float adds,
   which tracks the machine's clock, so the ratio mostly cancels machine
   speed and the committed baseline stays portable (see
   .github/scripts/bench_gate.py). It is not the learner kernels'
   bottleneck: those are 2-lane SIMD blocks of independent sums
   (lib/nn/kernels.c), bound by float throughput, not add latency, so
   their ratios also move with a runner's vector units. *)

(* Bench the calibration row then [tests] as group [group] and print
   every row; returns the rows and their ns/run lookup by short name. *)
let bench_gated ~(group : string) (tests : Bechamel.Test.t list) :
    (string * float) list * (string -> float) =
  let open Bechamel in
  let calib =
    Test.make ~name:"calib-dot-4k"
      (let u = Array.init 4096 (fun i -> float_of_int i *. 1e-3) in
       let v = Array.init 4096 (fun i -> float_of_int (i mod 7)) in
       Staged.stage (fun () ->
           let acc = ref 0.0 in
           for i = 0 to 4095 do
             acc := !acc +. (u.(i) *. v.(i))
           done;
           ignore (Sys.opaque_identity !acc)))
  in
  let rows = bechamel_run (Test.make_grouped ~name:group (calib :: tests)) in
  print_bechamel_rows rows;
  let ns suffix =
    match List.find_opt (fun (n, _) -> Filename.basename n = suffix) rows with
    | Some (_, v) -> v
    | None -> 0.0
  in
  (rows, ns)

(* Write BENCH_<what>.json: its kind, [head], the raw [micro_ns] rows
   (every benched row unless [micro] is given), the [gate] object —
   calib_ns, then each (key, ns) as a calibration-relative cost — and
   [tail]. *)
let write_gated ~(what : string) ?(head = []) ?micro
    ~(gate : (string * float) list) ?(tail = [])
    ((rows, ns) : (string * float) list * (string -> float)) : unit =
  let calib = ns "calib-dot-4k" in
  let rel v = if calib > 0.0 then v /. calib else 0.0 in
  let micro =
    Option.value micro
      ~default:(List.map (fun (n, v) -> (Filename.basename n, v)) rows)
  in
  let floats = List.map (fun (k, v) -> (k, Obs.Json.Float v)) in
  let path = Printf.sprintf "BENCH_%s.json" what in
  Obs.Runlog.write_json_file path
    (Obs.Json.Obj
       ((("kind", Obs.Json.Str ("bench-" ^ what)) :: head)
        @ [ ("micro_ns", Obs.Json.Obj (floats micro));
            ("gate",
             Obs.Json.Obj
               (("calib_ns", Obs.Json.Float calib)
                :: floats (List.map (fun (k, v) -> (k, rel v)) gate))) ]
        @ tail));
  Printf.printf "  %s bench baseline written to %s\n" what path

let micro () =
  section_header "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let m = W.Mibench.crc32 () in
  let env = C.Environment.create ~target:x86 ~actions:O.Action_space.odg () in
  ignore (C.Environment.reset env m);
  let rng = Rng.create 99 in
  let agent =
    Posetrl_rl.Dqn.create rng ~state_dim:300 ~hidden:[ 128; 64 ] ~n_actions:34
  in
  let mz = opt P.Pipelines.Oz m in
  let state_vec = Array.make 300 0.1 in
  let tests =
    Test.make_grouped ~name:"posetrl"
      [ Test.make ~name:"ir2vec-embed(crc32)"
          (Staged.stage (fun () -> ignore (Posetrl_ir2vec.Encoder.embed_program mz)));
        Test.make ~name:"objfile-size(crc32)"
          (Staged.stage (fun () -> ignore (CG.Objfile.size x86 mz)));
        Test.make ~name:"mca-throughput(crc32)"
          (Staged.stage (fun () -> ignore (Posetrl_mca.Mca.throughput x86 mz)));
        Test.make ~name:"dqn-forward(300->34)"
          (Staged.stage (fun () -> ignore (Posetrl_rl.Dqn.q_values agent state_vec)));
        Test.make ~name:"env-step(odg action 30)"
          (Staged.stage (fun () ->
               ignore (C.Environment.reset env m);
               ignore (C.Environment.step env 30)));
        (* observability overhead: a disabled span must cost a closure
           call, and a counter increment a float add *)
        Test.make ~name:"obs-span(no sink installed)"
          (Staged.stage (fun () -> Obs.Span.with_ "bench.noop" (fun _ -> ())));
        Test.make ~name:"obs-counter-inc"
          (let c = Obs.Metrics.counter "posetrl.bench.ticks" in
           Staged.stage (fun () -> Obs.Metrics.inc c));
        (* live-telemetry rendering: a /metrics scrape of a populated
           registry, and the chrome export of a medium trace — both sit
           on a request path, never the training hot path *)
        Test.make ~name:"expo-scrape(32 series)"
          (let r = Obs.Metrics.create () in
           for i = 0 to 23 do
             Obs.Metrics.set
               (Obs.Metrics.gauge ~r
                  ~labels:[ ("action", string_of_int i) ]
                  "posetrl.bench.gauge")
               (float_of_int i)
           done;
           for i = 0 to 7 do
             let h =
               Obs.Metrics.histogram ~r
                 ~labels:[ ("pass", string_of_int i) ]
                 "posetrl.bench.hist"
             in
             for j = 1 to 16 do Obs.Metrics.observe h (float_of_int j *. 1e-4) done
           done;
           Staged.stage (fun () -> ignore (Obs.Expo.scrape ~r ())));
        Test.make ~name:"chrome-export(256 events)"
          (let events =
             List.init 256 (fun i ->
                 { Obs.Event.name = "posetrl.pass.run";
                   attrs = [ ("pass", Obs.Event.S "dce") ];
                   t_start = float_of_int i *. 1e-3;
                   dur = 5e-4; self = 5e-4; depth = i mod 4; tid = 0 })
           in
           Staged.stage (fun () -> ignore (Obs.Chrome.to_string events))) ]
  in
  print_bechamel_rows (bechamel_run tests)

(* ======================================================================== *)
(* parallel engine: pool + batched gemm micro-benches and speedup probe       *)
(* ======================================================================== *)

(* Benches the multicore execution engine and writes BENCH_parallel.json. *)
let parallel () =
  section_header "Parallel engine (domain pool + batched gemm)";
  let open Bechamel in
  let module M = Posetrl_nn.Matrix in
  let jobs =
    match Sys.getenv_opt "POSETRL_BENCH_JOBS" with
    | Some s -> (try max 1 (int_of_string s) with _ -> 4)
    | None -> min 4 (Domain.recommended_domain_count ())
  in
  let rng = Rng.create 7 in
  let x = M.init 64 300 (fun _ _ -> Rng.normal rng) in
  let w = M.init 128 300 (fun _ _ -> Rng.normal rng) in
  let a = M.init 64 300 (fun _ _ -> Rng.normal rng) in
  let b = M.init 300 128 (fun _ _ -> Rng.normal rng) in
  (* the weight gradient of the same 300 -> 128 layer: gw += dpreᵀ · x;
     a dense dpre (no ReLU zeros to skip) is the kernel's worst case *)
  let gw = M.create 128 300 in
  let dpre = M.init 64 128 (fun _ _ -> Rng.normal rng) in
  (* a single state's layer-0 forward: gemm_nt's unpacked path below 4
     rows, where the 64-row row above takes the packed one *)
  let x1 = M.init 1 300 (fun _ _ -> Rng.normal rng) in
  (* one Adam step over the DQN's net; the step zeroes the gradients, so
     each run first restores them (a 49k-float blit) *)
  let module L = Posetrl_nn.Layer in
  let net = Posetrl_nn.Mlp.create rng [ 300; 128; 64; 34 ] in
  let grads =
    Array.map
      (fun (l : L.t) ->
        ( Array.map (fun _ -> Rng.normal rng) l.L.gw.M.data,
          Array.map (fun _ -> Rng.normal rng) l.L.gb ))
      net.Posetrl_nn.Mlp.layers
  in
  let optim = Posetrl_nn.Optim.create () in
  let adam_step () =
    Array.iteri
      (fun k (l : L.t) ->
        let gw, gb = grads.(k) in
        Array.blit gw 0 l.L.gw.M.data 0 (Array.length gw);
        Array.blit gb 0 l.L.gb 0 (Array.length gb))
      net.Posetrl_nn.Mlp.layers;
    Posetrl_nn.Optim.step optim net
  in
  let noops = Array.make 64 () in
  let pool = Pool.create ~name:"bench" ~jobs () in
  let bench =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        bench_gated ~group:"parallel"
          [ Test.make ~name:"gemm-64x300x128"
              (Staged.stage (fun () -> ignore (M.gemm a b)));
            Test.make ~name:"gemm-nt-64x300x128"
              (Staged.stage (fun () -> ignore (M.gemm_nt x w)));
            Test.make ~name:"gemm-nt-1x300x128"
              (Staged.stage (fun () -> ignore (M.gemm_nt x1 w)));
            Test.make ~name:"gemm-tn-acc-64x300x128"
              (Staged.stage (fun () -> M.gemm_tn_acc gw dpre x));
            Test.make ~name:"adam-300-128-64-34" (Staged.stage adam_step);
            Test.make ~name:"pool-dispatch-64-noops"
              (Staged.stage (fun () ->
                   ignore (Pool.map pool (fun () -> ()) noops)));
            Test.make ~name:"expo-scrape-32-series"
              (let r = Obs.Metrics.create () in
               for i = 0 to 31 do
                 Obs.Metrics.set
                   (Obs.Metrics.gauge ~r
                      ~labels:[ ("action", string_of_int i) ]
                      "posetrl.bench.gauge")
                   (float_of_int i)
               done;
               Staged.stage (fun () -> ignore (Obs.Expo.scrape ~r ()))) ])
  in
  let _, ns = bench in
  (* eval-shaped speedup probe: the Oz pipeline over every validation
     program, sequential vs pool — the wall-clock shape `posetrl eval
     --jobs N` parallelizes (informational; the CI gate keys on the
     micro rows above) *)
  let progs =
    Array.of_list
      (List.concat_map (fun s -> s.W.Suites.programs) W.Suites.validation_suites)
  in
  let work (_name, mk) = ignore (opt P.Pipelines.Oz (mk ())) in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let seq_s = time (fun () -> Array.iter work progs) in
  let par_s =
    Pool.with_pool ~name:"bench-speedup" ~jobs (fun p ->
        time (fun () -> ignore (Pool.map p work progs)))
  in
  let speedup = if par_s > 0.0 then seq_s /. par_s else 0.0 in
  Printf.printf
    "  oz-pipeline over %d programs: seq %.3fs  pool(j%d) %.3fs  speedup %.2fx\n"
    (Array.length progs) seq_s jobs par_s speedup;
  (* gated (25% tolerance): the three learner kernels, the one-row
     forward, the Adam step and pool dispatch, plus the scrape row for
     context *)
  write_gated ~what:"parallel" bench
    ~head:[ ("jobs", Obs.Json.Int jobs) ]
    ~gate:
      [ ("gemm_rel", ns "gemm-64x300x128");
        ("gemm_nt_rel", ns "gemm-nt-64x300x128");
        ("gemm_nt_1row_rel", ns "gemm-nt-1x300x128");
        ("gemm_tn_acc_rel", ns "gemm-tn-acc-64x300x128");
        ("adam_rel", ns "adam-300-128-64-34");
        ("pool_dispatch_rel", ns "pool-dispatch-64-noops");
        ("expo_scrape_rel", ns "expo-scrape-32-series") ]
    ~tail:
      [ ("speedup",
         Obs.Json.Obj
           [ ("programs", Obs.Json.Int (Array.length progs));
             ("seq_s", Obs.Json.Float seq_s);
             ("pool_s", Obs.Json.Float par_s);
             ("speedup_x", Obs.Json.Float speedup) ]) ]

(* ======================================================================== *)
(* static analysis, interpreter and pass-pipeline benches                     *)
(* ======================================================================== *)

(* Benches Posetrl_analysis, the interpreter, the control-flow facts and
   the -Oz pipeline on the largest bundled workload and writes
   BENCH_analysis.json. *)
let analysis () =
  section_header
    "Static analysis (dataflow solver + sanitizer + lint + interpreter + cfg facts + passes)";
  let open Bechamel in
  let module A = Posetrl_analysis in
  (* largest validation program by instruction count — the worst case
     the sanitizer sees once per pass under --sanitize *)
  let name, big =
    List.fold_left
      (fun (bn, bm) (n, m) ->
        if Modul.insn_count m > Modul.insn_count bm then (n, m) else (bn, bm))
      ("?", Modul.mk ~name:"empty" [])
      (W.Suites.all_programs ())
  in
  let big_oz = opt P.Pipelines.Oz big in
  Printf.printf "subject: %s (%d insns raw, %d after Oz)\n" name
    (Modul.insn_count big) (Modul.insn_count big_oz);
  let funcs = Modul.defined_funcs big in
  let bench =
    bench_gated ~group:"analysis"
      [ Test.make ~name:"effects-summary"
          (Staged.stage (fun () -> ignore (A.Effects.summarize big)));
        Test.make ~name:"absint-largest"
          (Staged.stage (fun () ->
               List.iter (fun f -> ignore (A.Absint.of_func f)) funcs));
        Test.make ~name:"sanitize-ssa-largest"
          (Staged.stage (fun () ->
               ignore (A.Sanitize.check_module A.Sanitize.Ssa big_oz)));
        Test.make ~name:"equiv-validate-func"
          (* one changed harnessable function: measures the fixed
             per-function cost of the Equiv tier (harness build +
             seeded interpreter runs on both sides), which is what
             every pass application pays per changed definition *)
          (let fn body =
             Parser.parse_module
               (Printf.sprintf
                  "module equivbench\n\nfunc @f(%%0: i64, %%1: i64): i64 {\nentry:\n  %%2 = %s\n  ret i64 %%2\n}\n"
                  body)
           in
           let eb = fn "add i64 %0, %1" in
           let ea = fn "add i64 %1, %0" in
           Staged.stage (fun () ->
               ignore (A.Equiv.validate ~fuel:50_000 ~before:eb ea)));
        Test.make ~name:"lint-largest"
          (Staged.stage (fun () -> ignore (A.Lint.lint_module big_oz)));
        Test.make ~name:"interp-largest"
          (* one run of the subject at Oz: the interpreter the equiv
             tier simulates with and eval times programs by *)
          (Staged.stage (fun () -> ignore (I.run big_oz)));
        Test.make ~name:"cfg-facts-largest"
          (* the control-flow facts of every defined function, raw and at
             -Oz; each function is a distinct object, so consecutive calls
             never hit Loops.compute's one-entry memo *)
          (let fs =
             List.map
               (fun f -> { f with Func.name = f.Func.name })
               (funcs @ Modul.defined_funcs big_oz)
           in
           Staged.stage (fun () ->
               List.iter
                 (fun f ->
                   ignore (Dom.compute (Cfg.of_func f));
                   ignore (Loops.compute f))
                 fs));
        Test.make ~name:"oz-pipeline-largest"
          (* all 90 pass runs of -Oz on the raw subject *)
          (Staged.stage (fun () -> ignore (opt P.Pipelines.Oz big)));
        Test.make ~name:"oz-pipeline(crc32)"
          (let m = W.Mibench.crc32 () in
           Staged.stage (fun () -> ignore (opt P.Pipelines.Oz m))) ]
  in
  let _, ns = bench in
  write_gated ~what:"analysis" bench
    ~head:
      [ ("subject", Obs.Json.Str name);
        ("subject_insns", Obs.Json.Int (Modul.insn_count big)) ]
    ~gate:
      [ ("sanitize_rel", ns "sanitize-ssa-largest");
        ("lint_rel", ns "lint-largest");
        ("absint_rel", ns "absint-largest");
        ("equiv_rel", ns "equiv-validate-func");
        ("interp_rel", ns "interp-largest");
        ("passes_rel", ns "oz-pipeline-largest");
        ("cfg_rel", ns "cfg-facts-largest");
        ("effects_rel", ns "effects-summary") ]

(* ======================================================================== *)
(* obs: the telemetry every run pays, per hook                               *)
(* ======================================================================== *)

(* Benches the observability hooks that run whether or not anyone looks
   and writes BENCH_obs.json for the bench-regression CI job. Gated rows:
   - the *disabled* profiling costs — a span with no sink and an atomic
     counter/histogram update;
   - the full watchdog rule pass (once per 200-step trainer tick), on
     healthy samples: the gate bounds a quiet watchdog, the common case;
   - the streaming attribution and coverage folds (once per environment
     step), the latter over the real ODG universe.
   Each batches 100 operations so the calibration-relative ratio sits
   well above timer noise. Context rows, not gated: a gauge set, the
   profile collector's per-event fold and the GC sample (they run only
   when profiling is requested, or once per tick), the coverage state
   sketch (a handful of dot products per step) and the per-tick entropy
   sample. *)
let obs_bench () =
  section_header "Observability overhead (profiling, health, coverage hooks)";
  let open Bechamel in
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~r "posetrl.bench.ctr" in
  let g = Obs.Metrics.gauge ~r "posetrl.bench.g" in
  let h = Obs.Metrics.histogram ~r "posetrl.bench.h" in
  let collector = Obs.Prof.create () in
  let ev =
    { Obs.Event.name = "posetrl.bench.span";
      attrs = [];
      t_start = 0.0; dur = 1e-5; self = 1e-5; depth = 0; tid = 0 }
  in
  let watchdog = Obs.Health.create ~registry:r () in
  let healthy step =
    { Obs.Health.s_step = step;
      s_episode = step / 15;
      s_loss = 0.5;
      s_mean_reward = 5.0;
      s_q_max = 12.0;
      s_replay_size = 4096;
      s_replay_capacity = 10_000;
      s_replay_age_mean = 800.0;
      s_weights_finite = true;
      s_actions = Array.init 34 (fun i -> (i * 7) mod 13) }
  in
  let attrib = Posetrl_rl.Attrib.create ~n_actions:34 ~max_pos:15 () in
  let universe = C.Trainer.coverage_universe O.Action_space.odg in
  let cov = Obs.Coverage.create ~state_dim:C.Environment.state_dim universe in
  let n_actions = Array.length universe.Obs.Coverage.action_paths in
  let state =
    Array.init C.Environment.state_dim (fun i -> Float.sin (float_of_int i))
  in
  let tick = ref 0 in
  let step = ref 0 in
  let bench =
    bench_gated ~group:"obs"
      [ Test.make ~name:"span-disabled-100"
          (Staged.stage (fun () ->
               for _i = 1 to 100 do
                 Obs.Span.with_ "posetrl.bench.noop" (fun _ -> ())
               done));
        Test.make ~name:"counter-inc-100"
          (Staged.stage (fun () ->
               for _i = 1 to 100 do Obs.Metrics.inc c done));
        Test.make ~name:"gauge-set-100"
          (Staged.stage (fun () ->
               for _i = 1 to 100 do Obs.Metrics.set g 42.0 done));
        Test.make ~name:"hist-observe-100"
          (Staged.stage (fun () ->
               for _i = 1 to 100 do Obs.Metrics.observe h 1e-4 done));
        Test.make ~name:"prof-add-event"
          (Staged.stage (fun () -> Obs.Prof.add collector ev));
        Test.make ~name:"sample-gc"
          (Staged.stage (fun () -> ignore (Obs.Prof.sample_gc ~r ())));
        Test.make ~name:"watchdog-check-100"
          (Staged.stage (fun () ->
               for _i = 1 to 100 do
                 incr tick;
                 ignore (Obs.Health.check watchdog (healthy (!tick * 200)))
               done));
        Test.make ~name:"attrib-observe-100"
          (Staged.stage (fun () ->
               for i = 1 to 100 do
                 Posetrl_rl.Attrib.observe attrib ~action:(i mod 34) ~pos:(i mod 15)
                   ~reward:0.25 ~r_binsize:0.1 ~r_throughput:0.03
               done));
        Test.make ~name:"coverage-observe-100"
          (Staged.stage (fun () ->
               for _i = 1 to 100 do
                 incr step;
                 Obs.Coverage.observe cov ~action:(!step mod n_actions)
                   ~pos:(!step mod 15) ~reward:0.25 ~r_binsize:0.1
                   ~r_throughput:0.03
               done));
        Test.make ~name:"coverage-state-sketch"
          (Staged.stage (fun () -> Obs.Coverage.observe_state cov state));
        Test.make ~name:"coverage-sample"
          (Staged.stage (fun () -> Obs.Coverage.sample cov ~step:!step)) ]
  in
  let _, ns = bench in
  write_gated ~what:"obs" bench
    ~gate:
      [ ("span_disabled_rel", ns "span-disabled-100");
        ("counter_inc_rel", ns "counter-inc-100");
        ("hist_observe_rel", ns "hist-observe-100");
        ("gauge_set_rel", ns "gauge-set-100");
        ("prof_add_rel", ns "prof-add-event");
        ("sample_gc_rel", ns "sample-gc");
        ("watchdog_tick_rel", ns "watchdog-check-100");
        ("attrib_observe_rel", ns "attrib-observe-100");
        ("coverage_observe_rel", ns "coverage-observe-100") ]

(* ======================================================================== *)
(* serve: in-process load generator against the optimization daemon         *)
(* ======================================================================== *)

(* Benches `posetrl serve` end to end — socket in, admission,
   policy rollout, JSON out — and writes BENCH_serve.json for the
   bench-regression CI job. Two phases: a *cold* sweep where every
   request is a distinct suite module (all cache misses, fired in
   concurrent waves so misses coalesce into batched rollouts) and a
   *hot* sweep re-requesting one module (all IR-hash cache hits). The
   gated series are the calibration-relative per-request costs; the
   hot/cold ratio is the headline the cache exists for and CI asserts
   it stays >= 10x. *)
let serve_bench () =
  section_header "Serve daemon (IR-hash cache + batched inference + load gen)";
  let bench = bench_gated ~group:"serve" [] in
  let rng = Rng.create 0 in
  let agent =
    Posetrl_rl.Dqn.create rng ~state_dim:C.Environment.state_dim
      ~hidden:[ 128; 64 ]
      ~n_actions:(O.Action_space.n_actions O.Action_space.odg)
  in
  let engine =
    Posetrl_serve.Engine.create ~agent ~actions:O.Action_space.odg ~target:x86 ()
  in
  let srv = Posetrl_serve.Server.create ~port:0 ~engine () in
  Fun.protect
    ~finally:(fun () -> Posetrl_serve.Server.close srv)
    (fun () ->
      let port = Posetrl_serve.Server.port srv in
      let send text =
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let raw =
          Printf.sprintf
            "POST /optimize HTTP/1.1\r\nHost: b\r\nContent-Length: %d\r\n\r\n%s"
            (String.length text) text
        in
        ignore (Unix.write_substring sock raw 0 (String.length raw));
        sock
      in
      let drain sock =
        Fun.protect
          ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
          (fun () ->
            let chunk = Bytes.create 65536 in
            let eof = ref false in
            while not !eof do
              match Unix.read sock chunk 0 (Bytes.length chunk) with
              | 0 -> eof := true
              | _ -> ()
            done)
      in
      let texts =
        List.map
          (fun (_, m) -> Printer.module_to_string m)
          (W.Suites.all_programs ())
      in
      let wave = 8 in
      (* cold: every request a distinct module, fired in waves of 8 so
         concurrent misses share one batched rollout per pump *)
      let t0 = Unix.gettimeofday () in
      let rec waves = function
        | [] -> ()
        | texts ->
          let now, rest =
            ( List.filteri (fun i _ -> i < wave) texts,
              List.filteri (fun i _ -> i >= wave) texts )
          in
          let socks = List.map send now in
          Posetrl_serve.Server.pump srv;
          List.iter drain socks;
          waves rest
      in
      waves texts;
      let cold_s = Unix.gettimeofday () -. t0 in
      let n_cold = List.length texts in
      (* hot: one module over and over — after the cold sweep every
         request is an IR-hash cache hit, timed individually for p99 *)
      let hot_text = List.hd texts in
      let n_hot = 200 in
      let lats = Array.make n_hot 0.0 in
      let t0 = Unix.gettimeofday () in
      for i = 0 to n_hot - 1 do
        let t = Unix.gettimeofday () in
        let sock = send hot_text in
        Posetrl_serve.Server.pump srv;
        drain sock;
        lats.(i) <- Unix.gettimeofday () -. t
      done;
      let hot_s = Unix.gettimeofday () -. t0 in
      Array.sort compare lats;
      let hot_p50_ns = lats.(n_hot / 2) *. 1e9 in
      let hot_p99_ns = lats.(n_hot * 99 / 100) *. 1e9 in
      let cold_ns = cold_s /. float_of_int n_cold *. 1e9 in
      let hot_ns = hot_s /. float_of_int n_hot *. 1e9 in
      let cold_rps = float_of_int n_cold /. cold_s in
      let hot_rps = float_of_int n_hot /. hot_s in
      let hot_over_cold = if hot_ns > 0.0 then cold_ns /. hot_ns else 0.0 in
      let cache = Posetrl_serve.Engine.cache engine in
      let hits = Posetrl_serve.Cache.hits cache in
      let misses = Posetrl_serve.Cache.misses cache in
      let hit_pct =
        100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses))
      in
      Printf.printf
        "  cold (distinct modules): %d reqs in %.3fs = %.1f req/s\n\
        \  hot  (cache hits):       %d reqs in %.3fs = %.1f req/s  \
         p50 %.2fms  p99 %.2fms\n\
        \  hot/cold speedup %.1fx   cache hit rate %.1f%%\n"
        n_cold cold_s cold_rps n_hot hot_s hot_rps (hot_p50_ns /. 1e6)
        (hot_p99_ns /. 1e6) hot_over_cold hit_pct;
      record_headline "serve_hot_over_cold_x" (Obs.Json.Float hot_over_cold);
      let _, ns = bench in
      write_gated ~what:"serve" bench
        ~micro:
          [ ("calib-dot-4k", ns "calib-dot-4k");
            ("serve-cold-req", cold_ns);
            ("serve-hot-req", hot_ns);
            ("serve-hot-p99", hot_p99_ns) ]
        ~gate:
          [ ("serve_cold_cost_rel", cold_ns);
            ("serve_hot_cost_rel", hot_ns);
            ("serve_hot_p99_rel", hot_p99_ns) ]
        ~tail:
          [ ("load",
             Obs.Json.Obj
               [ ("cold_requests", Obs.Json.Int n_cold);
                 ("hot_requests", Obs.Json.Int n_hot);
                 ("cold_req_s", Obs.Json.Float cold_rps);
                 ("hot_req_s", Obs.Json.Float hot_rps);
                 ("hot_p50_ms", Obs.Json.Float (hot_p50_ns /. 1e6));
                 ("hot_p99_ms", Obs.Json.Float (hot_p99_ns /. 1e6));
                 ("hot_over_cold_x", Obs.Json.Float hot_over_cold);
                 ("cache_hit_pct", Obs.Json.Float hit_pct) ]) ])

(* ======================================================================== *)

let sections : (string * (unit -> unit)) list =
  [ ("fig1", fig1);
    ("tables123", tables123);
    ("fig4", fig4);
    ("table4", table4);
    ("table5", table5);
    ("fig5", fig5);
    ("table6", table6);
    ("ablations", ablations);
    ("micro", micro);
    ("parallel", parallel);
    ("analysis", analysis);
    ("obs", obs_bench);
    ("serve", serve_bench) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst sections
  in
  Printf.printf "POSET-RL reproduction bench (training budget: %d steps/model)\n" bench_steps;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.printf "unknown section %s (available: %s)\n" name
          (String.concat " " (List.map fst sections)))
    requested;
  (* everything above ran instrumented; the registry doubles as a sanity
     check that counters moved only where work actually happened *)
  section_header "Metrics summary (Posetrl_obs registry)";
  Obs.Console.print_metrics ~title:"metrics (posetrl.*)" ();
  let wall = Unix.gettimeofday () -. t0 in
  (* persist the headline numbers through the ledger so runs of this
     harness are diffable (`posetrl runs compare` reads the same schema
     from a run dir; this flat file seeds the BENCH_ perf trajectory) *)
  let ledger_path = "BENCH_runledger.json" in
  Obs.Runlog.write_json_file ledger_path
    (Obs.Json.Obj
       [ ("kind", Obs.Json.Str "bench");
         ("sections", Obs.Json.Arr (List.map (fun s -> Obs.Json.Str s) requested));
         ("bench_steps", Obs.Json.Int bench_steps);
         ("wall_s", Obs.Json.Float wall);
         ("result", Obs.Json.Obj !headline) ]);
  Printf.printf "\nheadline numbers written to %s\n" ledger_path;
  Printf.printf "total bench time: %.1fs\n" wall
