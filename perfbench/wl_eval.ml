(* eval: [Evaluate.evaluate_program] (time measured, sanitizer off) with
   the fixed agent over the 31 validation programs plus seeded generated
   programs that the training corpus never contains. Every program is
   evaluated exactly once, so nothing repeats; the interpreter timing of
   the Oz and model binaries is most of the cost. An op is one program.

   [--seconds] sets how many generated programs join the validation set
   (three per second); the validation programs always run. *)

open Common
module T = Trace
module W = Posetrl_workloads
module P = Posetrl_passes
module Interp = Posetrl_interp.Interp

(* Seeds far above any training-corpus seed; templates and random
   structured programs alternate, as in the training corpus. *)
let generated ~seed ~count : (string * Posetrl_ir.Modul.t) list =
  List.init count (fun k ->
      let s = 1_000_000 + (seed * 1000) + k in
      if k mod 2 = 0 then (Printf.sprintf "gen/tmpl-%d" s, W.Templates.generate ~seed:s)
      else (Printf.sprintf "gen/prog-%d" s, W.Genprog.generate ~seed:s))

let setup ~seed ~seconds ~lap =
  let agent = fixed_agent ~lap in
  lap ();
  let programs = W.Suites.all_programs () @ generated ~seed ~count:(3 * seconds) in
  (agent, programs)

let setup_reps = 5

(* [evaluate_program] re-driven through each layer's public call. *)
let redrive (cx : Step.ctx) agent name (m : Posetrl_ir.Modul.t) : C.Evaluate.program_result =
  let tr = cx.Step.tr in
  let m_oz =
    Step.run_passes cx (P.Pipelines.config_of P.Pipelines.Oz)
      (P.Pipelines.sequence_of P.Pipelines.Oz) m
  in
  let e, s0 = Step.reset cx m in
  let s = ref s0 and taken = ref [] and fin = ref false in
  while not !fin do
    let a = Step.greedy cx agent !s in
    taken := a :: !taken;
    let r = Step.step e a in
    s := r.C.Environment.state;
    fin := r.C.Environment.terminal
  done;
  let m_model = e.Step.cur in
  let size_of m = T.span tr "codegen.objfile" (fun () -> Posetrl_codegen.Objfile.size target m) in
  let time_of m =
    T.span tr "interp" (fun () ->
        match Interp.run m with
        | o -> Some o.Interp.cycles
        | exception Interp.Trap _ -> None)
  in
  let size_unopt = size_of m in
  let size_oz = size_of m_oz in
  let size_model = size_of m_model in
  let time_oz = time_of m_oz in
  let time_model = time_of m_model in
  { C.Evaluate.prog_name = name;
    size_unopt;
    size_oz;
    size_model;
    time_oz;
    time_model;
    predicted = List.rev !taken }

(* Output check: the interpreter's observable behaviour (return value and
   printed output) of the Oz and model binaries equals that of the
   unoptimized module. The reference comes from the interpreter on the
   unoptimized IR, not from the passes under test. *)
let check_outputs (c : checks) (r : C.Evaluate.program_result) (m : Posetrl_ir.Modul.t) : bool =
  let run x =
    match Interp.run x with
    | o -> Some ((o.Interp.ret, o.Interp.output), o.Interp.cycles)
    | exception Interp.Trap _ -> None
  in
  let ok = ref true in
  let bad what = ok := false; fail c "%s: %s" r.C.Evaluate.prog_name what in
  let against reference label x cycles =
    match run x with
    | Some (obs, cyc) ->
      if compare obs reference <> 0 then bad (label ^ " output differs from unoptimized");
      if Some cyc <> cycles then bad (label ^ " cycles not reproducible")
    | None -> bad (label ^ " binary traps")
  in
  (match run m with
   | None -> bad "unoptimized module traps"
   | Some (reference, _) ->
     against reference "Oz" (P.Pass_manager.run_level P.Pipelines.Oz m) r.C.Evaluate.time_oz;
     against reference "model"
       (C.Inference.apply_sequence ~actions r.C.Evaluate.predicted m)
       r.C.Evaluate.time_model);
  !ok

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let row (r : C.Evaluate.program_result) : Json.t =
  let opt = function Some i -> Json.Int i | None -> Json.Null in
  Json.Obj
    [ ("program", Json.Str r.C.Evaluate.prog_name);
      ("size_unopt", Json.Int r.C.Evaluate.size_unopt);
      ("size_oz", Json.Int r.C.Evaluate.size_oz);
      ("size_model", Json.Int r.C.Evaluate.size_model);
      ("cycles_oz", opt r.C.Evaluate.time_oz);
      ("cycles_model", opt r.C.Evaluate.time_model);
      ("schedule", Json.Arr (List.map (fun a -> Json.Int a) r.C.Evaluate.predicted)) ]

let run ~seed ~seconds ~trace : result =
  let (agent, programs), setup_metrics = timed_setup ~reps:setup_reps (setup ~seed ~seconds) in
  let n = List.length programs in
  (* a speed probe before every program and after the last *)
  let sp = Speed.create () in
  let pieces = Array.make n (0.0, 0) in
  let results =
    List.mapi
      (fun i (name, m) ->
        Speed.tick sp;
        let t0 = now () in
        let r =
          C.Evaluate.evaluate_program ~measure_time:true
            ~sanitize:Posetrl_analysis.Sanitize.Off ~agent ~actions ~target ~name m
        in
        pieces.(i) <- (now () -. t0, Speed.segment sp);
        r)
      programs
  in
  Speed.tick sp;
  let lat = Array.map fst pieces and norm_lat = Speed.normalize_all sp pieces in
  let wall = sum lat and norm_wall = sum norm_lat in
  let c = checks () in
  let bad = Array.make n false in
  List.iteri
    (fun i (r, (_, m)) -> if not (check_outputs c r m) then bad.(i) <- true)
    (List.combine results programs);
  let layer_metrics =
    if not trace then []
    else begin
      let tr = T.create ~enabled:true in
      let cx = Step.create tr in
      let (), raw_s, norm_s =
        Speed.timed_laps (fun lap ->
            List.iteri
              (fun i (r, (name, m)) ->
                let again = ref r in
                T.op tr (fun () -> again := redrive cx agent name m);
                lap ();
                if !again <> r then begin
                  fail c "%s: re-driven evaluation differs from evaluate_program" name;
                  bad.(i) <- true
                end)
              (List.combine results programs))
      in
      T.write_jsonl tr (Printf.sprintf "perfbench/out/trace-eval-seed%d.jsonl" seed);
      Step.layer_metrics tr ~untraced_op_s:(norm_wall *. raw_s /. norm_s)
    end
  in
  let failed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bad in
  let sizes = List.map C.Evaluate.size_reduction_pct results in
  let cycles = List.filter_map C.Evaluate.time_improvement_pct results in
  let validation = List.filteri (fun i _ -> i < 31) sizes in
  { attempted = n;
    failed;
    metrics =
      setup_metrics
      @ throughput_metrics ~ops:n ~raw_s:wall ~norm_s:norm_wall
      @ latency_metrics ~raw:lat norm_lat
      @ heap_metrics [ sp ]
      @ [ m "fail_frac" "ratio" (float_of_int failed /. float_of_int n);
          m "size_vs_oz_pct" "%" (mean sizes);
          m "cycles_vs_oz_pct" "%" (mean cycles);
          m "validation_size_vs_oz_pct" "%" (mean validation) ]
      @ layer_metrics;
    rows = [ ("programs", Json.Arr (List.map row results)) ];
    notes =
      [ ("agent_weights_digest", Json.Str (weights_digest agent));
        ("programs", Json.Int n) ];
    failures = List.rev c.msgs }
