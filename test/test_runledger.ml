(* Tests for the run ledger: the Runlog persistence format, the Run
   directory lifecycle (create → progress → finish → load), cross-run
   regression comparison, the crash-tolerant JSONL sink, the sparkline
   renderer behind [posetrl runs show], and the recompute contract of
   the trainer's step-stream folds. *)

module Obs = Posetrl_obs
module Json = Obs.Json
module Runlog = Obs.Runlog
module Run = Obs.Run
module Stats = Posetrl_support.Stats

let check_float = Alcotest.(check (float 1e-9))

(* --- scratch directories ---------------------------------------------------- *)

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_temp_dir (f : string -> 'a) : 'a =
  let dir = Filename.temp_file "posetrl_ledger" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- sparkline --------------------------------------------------------------- *)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Stats.sparkline []);
  (* a flat series renders at mid-height, one glyph per sample *)
  let flat = Stats.sparkline [ 2.0; 2.0; 2.0 ] in
  Alcotest.(check string) "flat mid-height" "▄▄▄" flat;
  (* a monotone ramp starts at the lowest block and ends at the highest *)
  let ramp =
    Stats.sparkline (List.init 8 (fun i -> float_of_int i))
  in
  Alcotest.(check string) "monotone ramp" "▁▂▃▄▅▆▇█" ramp;
  (* downsampling: 100 points into 10 columns of some block character *)
  let wide =
    Stats.sparkline ~width:10 (List.init 100 (fun i -> float_of_int i))
  in
  (* each block glyph is 3 bytes of UTF-8 *)
  Alcotest.(check int) "downsampled to width" (10 * 3) (String.length wide);
  (* non-finite samples are dropped, not rendered *)
  Alcotest.(check string) "nan dropped" "▁█"
    (Stats.sparkline [ 0.0; Float.nan; 1.0 ])

(* --- Runlog: files and records ----------------------------------------------- *)

let test_json_file_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "doc.json" in
      let doc =
        Json.Obj
          [ ("id", Json.Str "r1");
            ("seed", Json.Int 42);
            ("result", Json.Obj [ ("final_mean_reward", Json.Float 15.25) ]) ]
      in
      Runlog.write_json_file path doc;
      Alcotest.(check bool) "round trip" true (Runlog.read_json_file path = doc);
      (* no tmp file left behind by the atomic write *)
      Alcotest.(check (list string)) "no temp litter" [ "doc.json" ]
        (Array.to_list (Sys.readdir dir) |> List.sort compare);
      check_float "path_num" 15.25
        (Option.get (Runlog.path_num [ "result"; "final_mean_reward" ] doc)))

let test_read_jsonl_torn_line () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "progress.jsonl" in
      let oc = open_out path in
      Runlog.append_jsonl_line oc (Json.Obj [ ("step", Json.Int 1) ]);
      Runlog.append_jsonl_line oc (Json.Obj [ ("step", Json.Int 2) ]);
      (* a killed process tears the last line mid-object *)
      output_string oc "{\"step\": 3, \"mean_rew";
      close_out oc;
      let records, dropped = Runlog.read_jsonl Option.some path in
      Alcotest.(check int) "intact records kept" 2 (List.length records);
      Alcotest.(check int) "torn line counted" 1 dropped;
      Alcotest.(check (option (float 0.0))) "records parse" (Some 2.0)
        (Runlog.num "step" (List.nth records 1)))

let test_progress_records_and_series () =
  let ticks =
    List.init 4 (fun i ->
        Runlog.tick_record ~step:(i * 100) ~episode:i ~epsilon:0.9
          ~mean_reward:(float_of_int i) ~mean_size_gain:1.0
          ~r_binsize:0.1 ~r_throughput:0.2 ~loss:0.5 ())
  in
  let eps =
    [ Runlog.episode_record ~episode:0 ~step:15 ~reward:3.0 ~r_binsize:0.2
        ~r_throughput:0.2 ~size_gain_pct:10.0 ~thru_gain_pct:2.0 ~epsilon:0.8
        ~loss:0.4 () ]
  in
  let records = ticks @ eps in
  (* series selects one kind and skips the other *)
  let s = Runlog.series ~kind:"tick" ~x:"step" ~y:"mean_reward" records in
  Alcotest.(check int) "tick series length" 4 (List.length s);
  check_float "last x" 300.0 (fst (List.nth s 3));
  check_float "last y" 3.0 (snd (List.nth s 3));
  let e = Runlog.series ~kind:"episode" ~x:"episode" ~y:"reward" records in
  Alcotest.(check int) "episode series length" 1 (List.length e);
  (* the episode record carries the reward decomposition *)
  let ep = List.hd eps in
  check_float "r_binsize persisted" 0.2 (Option.get (Runlog.num "r_binsize" ep));
  check_float "r_throughput persisted" 0.2
    (Option.get (Runlog.num "r_throughput" ep))

let episode ?step_rewards ~actions ~step () =
  Runlog.episode_record ?step_rewards ~actions ~episode:0 ~step ~reward:0.0
    ~r_binsize:0.0 ~r_throughput:0.0 ~size_gain_pct:0.0 ~thru_gain_pct:0.0
    ~epsilon:1.0 ~loss:0.0 ()

let test_episode_actions_without_steps () =
  (* a pre-attribution ledger: actions but no per-step rewards *)
  let ep = episode ~actions:[ 3; 1; 4 ] ~step:3 () in
  Alcotest.(check (list int)) "actions read back" [ 3; 1; 4 ]
    (Runlog.episode_actions ep);
  Alcotest.(check int) "no step stream" 0 (List.length (Obs.Fold.episode_steps ep));
  let tick = Runlog.tick_record ~step:0 ~episode:0 ~epsilon:1.0 ~mean_reward:0.0
      ~mean_size_gain:0.0 ~r_binsize:0.0 ~r_throughput:0.0 ~loss:0.0 () in
  Alcotest.(check (list int)) "no actions on a tick" [] (Runlog.episode_actions tick)

let test_replay_interleaves_ticks () =
  (* episode 1 is steps 1-3; the tick at step 5 lands mid-episode 2
     (steps 4-7) but after it in the file; action 9 is out of range *)
  let steps n = List.init n (fun i -> (float_of_int i, 0.0, 0.0)) in
  let tick step =
    Runlog.tick_record ~step ~episode:1 ~epsilon:1.0 ~mean_reward:0.0
      ~mean_size_gain:0.0 ~r_binsize:0.0 ~r_throughput:0.0 ~loss:0.0 ()
  in
  let records =
    [ episode ~actions:[ 0; 1; 2 ] ~step_rewards:(steps 3) ~step:3 ();
      tick 5;
      episode ~actions:[ 3; 9; 4; 5 ] ~step_rewards:(steps 4) ~step:7 ();
      tick 8 ]
  in
  let log = ref [] in
  Obs.Fold.replay ~n_actions:8
    ~observe:(fun (s : Obs.Fold.step) ->
      log := Printf.sprintf "a%d@%d" s.action s.pos :: !log)
    ~sample:(fun ~step -> log := Printf.sprintf "tick%d" step :: !log)
    records;
  Alcotest.(check (list string)) "trainer order"
    [ "a0@0"; "a1@1"; "a2@2"; "a3@0"; "tick5"; "a4@2"; "a5@3"; "tick8" ]
    (List.rev !log)

(* --- the trainer's folds: streaming = ledger recompute ------------------------ *)

(* Every fold of the default list, so a fold added later is covered by
   its list entry; the health and coverage suites each check theirs. *)
let prop_folds_eq_recompute =
  Testutil.prop_folds_eq_recompute
    ~name:"streaming folds = ledger recompute" ()

(* --- Run: directory lifecycle ------------------------------------------------- *)

let test_run_lifecycle () =
  with_temp_dir (fun root ->
      Obs.Clock.with_fake (fun advance ->
          let dir = Filename.concat root "r1" in
          let run =
            Run.create ~dir ~name:"trainA"
              ~meta:[ ("kind", Json.Str "train"); ("seed", Json.Int 7) ] ()
          in
          (* a "running" manifest exists from the start *)
          let m0 = Runlog.read_json_file (Run.manifest_path dir) in
          Alcotest.(check (option string)) "status running" (Some "running")
            (Runlog.str "status" m0);
          Alcotest.(check (option string)) "name" (Some "trainA")
            (Runlog.str "name" m0);
          for i = 0 to 19 do
            Run.progress run
              (Runlog.tick_record ~step:i ~episode:0 ~epsilon:1.0
                 ~mean_reward:(float_of_int i) ~mean_size_gain:0.0
                 ~r_binsize:0.0 ~r_throughput:0.0 ~loss:0.0 ())
          done;
          advance 2.5;
          Run.finish ~result:[ ("final_mean_reward", Json.Float 19.0) ] run;
          Run.finish run; (* idempotent *)
          let info = Run.load dir in
          Alcotest.(check string) "run_id is the dir name" "r1" info.Run.run_id;
          Alcotest.(check (option string)) "status complete" (Some "complete")
            (Runlog.str "status" info.Run.manifest);
          check_float "wall_s from the fake clock" 2.5
            (Option.get (Runlog.num "wall_s" info.Run.manifest));
          check_float "result preserved" 19.0
            (Option.get
               (Runlog.path_num [ "result"; "final_mean_reward" ]
                  info.Run.manifest));
          let records, dropped = Run.read_progress info in
          Alcotest.(check int) "all records flushed on finish" 20
            (List.length records);
          Alcotest.(check int) "no torn lines" 0 dropped;
          (* list/find resolve it under the root *)
          (match Run.list_runs ~root () with
           | [ only ] -> Alcotest.(check string) "listed" "r1" only.Run.run_id
           | l -> Alcotest.failf "expected 1 run, got %d" (List.length l));
          Alcotest.(check string) "find by id" dir
            (Run.find ~root "r1").Run.run_dir;
          Alcotest.(check string) "find by path" dir (Run.find dir).Run.run_dir))

(* --- attrib.json / alerts.jsonl hardening ------------------------------------
   The health-layer files follow the same robustness contract as the
   rest of the ledger: missing or corrupt → "no data" (None), never an
   exception — `posetrl runs show` and `watch` must render any ledger,
   including PR 2–6 runs that predate these files. *)

let test_attrib_alerts_lifecycle () =
  with_temp_dir (fun root ->
      let dir = Filename.concat root "r1" in
      let run = Run.create ~dir ~name:"t" ~meta:[] () in
      (* alerts.jsonl exists (empty) from create: a healthy finished run
         is distinguishable from one predating the watchdog *)
      Alcotest.(check bool) "alerts file created empty" true
        (Sys.file_exists (Run.alerts_path dir));
      Run.alert run
        (Json.Obj [ ("kind", Json.Str "alert"); ("rule", Json.Str "nan_loss");
                    ("step", Json.Int 200) ]);
      Run.write run (Run.Fold "attrib.json")
        (Json.Obj [ ("kind", Json.Str "attrib"); ("steps", Json.Int 3) ]);
      Run.finish run;
      let info = Run.load dir in
      (match Run.read info (Run.Fold "attrib.json") with
       | Some doc ->
         Alcotest.(check (option (float 0.0))) "attrib read back" (Some 3.0)
           (Runlog.num "steps" doc)
       | None -> Alcotest.fail "attrib.json should read back");
      match Run.read_alerts info with
      | Some ([ a ], 0) ->
        Alcotest.(check (option string)) "alert read back" (Some "nan_loss")
          (Runlog.str "rule" a)
      | _ -> Alcotest.fail "expected one alert, no torn lines")

let test_attrib_alerts_missing_is_none () =
  with_temp_dir (fun root ->
      (* a pre-watchdog run: manifest only, neither file present *)
      let dir = Filename.concat root "old" in
      Unix.mkdir dir 0o755;
      Runlog.write_json_file (Run.manifest_path dir)
        (Json.Obj [ ("id", Json.Str "old"); ("status", Json.Str "complete") ]);
      let info = Run.load dir in
      Alcotest.(check bool) "attrib None" true
        (Run.read info (Run.Fold "attrib.json") = None);
      Alcotest.(check bool) "alerts None" true (Run.read_alerts info = None))

let test_attrib_corrupt_is_none () =
  with_temp_dir (fun root ->
      let dir = Filename.concat root "r1" in
      let run = Run.create ~dir ~name:"t" ~meta:[] () in
      Run.finish run;
      let tear doc =
        let oc = open_out (Run.doc_path doc dir) in
        output_string oc "{ torn mid-write";
        close_out oc
      in
      tear (Run.Fold "attrib.json");
      tear Run.Eval;
      let info = Run.load dir in
      Alcotest.(check bool) "corrupt attrib is None, not an exception" true
        (Run.read info (Run.Fold "attrib.json") = None);
      Alcotest.(check bool) "torn eval.json is None, not an exception" true
        (Run.read info Run.Eval = None);
      (* `runs compare` on the torn run: the suite metrics are missing,
         never an exception *)
      Alcotest.(check bool) "compare survives a torn eval.json" false
        (Run.has_regression (Run.compare_runs ~base:info ~cand:info ())))

let test_alerts_torn_line_skipped () =
  with_temp_dir (fun root ->
      let dir = Filename.concat root "r1" in
      let run = Run.create ~dir ~name:"t" ~meta:[] () in
      Run.alert run (Json.Obj [ ("rule", Json.Str "q_explosion") ]);
      Run.finish run;
      (* simulate a crash tearing the last line *)
      let oc =
        open_out_gen [ Open_append ] 0o644 (Run.alerts_path dir)
      in
      output_string oc "{\"rule\": \"nan_lo";
      close_out oc;
      let info = Run.load dir in
      match Run.read_alerts info with
      | Some ([ a ], 1) ->
        Alcotest.(check (option string)) "intact alert kept"
          (Some "q_explosion") (Runlog.str "rule" a)
      | Some (l, d) ->
        Alcotest.failf "expected 1 alert + 1 torn, got %d + %d"
          (List.length l) d
      | None -> Alcotest.fail "present file must not read as None")

let test_alerts_empty_is_healthy () =
  with_temp_dir (fun root ->
      let dir = Filename.concat root "r1" in
      let run = Run.create ~dir ~name:"t" ~meta:[] () in
      Run.finish run;
      let info = Run.load dir in
      Alcotest.(check bool) "present-but-empty is Some ([], 0)" true
        (Run.read_alerts info = Some ([], 0)))

let test_run_progress_flush_prefix () =
  (* a run killed before finish still leaves a readable flushed prefix *)
  with_temp_dir (fun root ->
      let dir = Filename.concat root "killed" in
      let run = Run.create ~dir ~name:"killed" ~meta:[] () in
      for i = 0 to 9 do
        Run.progress run
          (Runlog.tick_record ~step:i ~episode:0 ~epsilon:1.0 ~mean_reward:0.0
             ~mean_size_gain:0.0 ~r_binsize:0.0 ~r_throughput:0.0 ~loss:0.0 ())
      done;
      (* no finish, no close: read what made it to disk *)
      let records, _ = Runlog.read_jsonl Option.some (Run.progress_path dir) in
      Alcotest.(check bool)
        (Printf.sprintf "flushed prefix (%d records)" (List.length records))
        true
        (List.length records >= 8);
      Run.finish run)

(* --- Run: listing robustness --------------------------------------------------
   [posetrl runs list] / [posetrl watch] must survive a missing, empty or
   partially-corrupt ledger root without raising Sys_error. *)

let test_list_runs_missing_root () =
  with_temp_dir (fun dir ->
      let missing = Filename.concat dir "never-created" in
      Alcotest.(check (list string)) "missing root yields []" []
        (List.map (fun i -> i.Run.run_id) (Run.list_runs ~root:missing ())));
  (* a root that is a regular file, not a directory *)
  with_temp_dir (fun dir ->
      let file = Filename.concat dir "plain" in
      let oc = open_out file in
      output_string oc "not a directory\n";
      close_out oc;
      Alcotest.(check (list string)) "file root yields []" []
        (List.map (fun i -> i.Run.run_id) (Run.list_runs ~root:file ())))

let test_list_runs_skips_corrupt () =
  with_temp_dir (fun root ->
      (* one good run, one directory with a corrupt manifest, one with no
         manifest at all, one stray regular file *)
      let good = Filename.concat root "good" in
      Run.finish (Run.create ~dir:good ~name:"good" ~meta:[] ());
      let corrupt = Filename.concat root "corrupt" in
      Unix.mkdir corrupt 0o755;
      let oc = open_out (Run.manifest_path corrupt) in
      output_string oc "{ torn json\n";
      close_out oc;
      Unix.mkdir (Filename.concat root "empty") 0o755;
      let oc = open_out (Filename.concat root "stray.txt") in
      output_string oc "hello\n";
      close_out oc;
      Alcotest.(check (list string)) "only the readable run is listed"
        [ "good" ]
        (List.map (fun i -> i.Run.run_id) (Run.list_runs ~root ())))

let test_list_runs_same_second_order () =
  (* manifests written within the same clock second must still list in a
     stable order: mtime first, run id as the tiebreak *)
  with_temp_dir (fun root ->
      List.iter
        (fun id ->
          Run.finish
            (Run.create ~dir:(Filename.concat root id) ~name:id ~meta:[] ()))
        [ "b"; "c"; "a" ];
      (* force identical mtimes, as a same-second burst would produce *)
      let t = Unix.time () in
      List.iter
        (fun id ->
          Unix.utimes (Run.manifest_path (Filename.concat root id)) t t)
        [ "a"; "b"; "c" ];
      Alcotest.(check (list string)) "run id breaks the mtime tie"
        [ "a"; "b"; "c" ]
        (List.map (fun i -> i.Run.run_id) (Run.list_runs ~root ())))

(* --- Run: comparison / regression gate ---------------------------------------- *)

let mk_run ~root ~id ~reward ~suites () =
  let dir = Filename.concat root id in
  let run = Run.create ~dir ~name:id ~meta:[] () in
  (match suites with
   | [] -> ()
   | s ->
     Run.write run Run.Eval
       (Json.Obj
          [ ("suites",
             Json.Arr
               (List.map
                  (fun (name, red) ->
                    Json.Obj
                      [ ("suite", Json.Str name); ("avg_red", Json.Float red) ])
                  s)) ]));
  (match reward with
   | Some r -> Run.finish ~result:[ ("final_mean_reward", Json.Float r) ] run
   | None -> Run.finish run);
  Run.load dir

let test_compare_within_thresholds () =
  with_temp_dir (fun root ->
      let base =
        mk_run ~root ~id:"base" ~reward:(Some 15.0)
          ~suites:[ ("mibench", 10.0); ("genprog", 8.0) ] ()
      in
      let cand =
        mk_run ~root ~id:"cand" ~reward:(Some 14.2)
          ~suites:[ ("mibench", 9.5); ("genprog", 8.5) ] ()
      in
      let deltas = Run.compare_runs ~base ~cand () in
      (* reward drop 5.3% < 10%, size drops < 2pts: within thresholds *)
      Alcotest.(check bool) "no regression" false (Run.has_regression deltas);
      Alcotest.(check int) "reward + 2 suites + wall" 4 (List.length deltas))

let test_compare_reward_regression () =
  with_temp_dir (fun root ->
      let base = mk_run ~root ~id:"base" ~reward:(Some 15.0) ~suites:[] () in
      let cand = mk_run ~root ~id:"cand" ~reward:(Some 10.0) ~suites:[] () in
      let deltas = Run.compare_runs ~base ~cand () in
      Alcotest.(check bool) "33% reward drop regresses" true
        (Run.has_regression deltas);
      (* a lenient threshold lets the same pair pass *)
      let lenient =
        { Run.default_thresholds with Run.max_reward_drop_pct = 50.0 }
      in
      Alcotest.(check bool) "lenient threshold passes" false
        (Run.has_regression (Run.compare_runs ~thresholds:lenient ~base ~cand ())))

let test_compare_size_regression () =
  with_temp_dir (fun root ->
      let base =
        mk_run ~root ~id:"base" ~reward:None ~suites:[ ("mibench", 12.0) ] ()
      in
      let cand =
        mk_run ~root ~id:"cand" ~reward:None ~suites:[ ("mibench", 7.0) ] ()
      in
      let deltas = Run.compare_runs ~base ~cand () in
      Alcotest.(check bool) "5pt size drop regresses" true
        (Run.has_regression deltas);
      match List.find_opt (fun d -> d.Run.d_regressed) deltas with
      | Some d ->
        Alcotest.(check string) "on the suite metric" "size_red.mibench"
          d.Run.d_metric
      | None -> Alcotest.fail "regressed delta missing")

let test_compare_missing_never_regresses () =
  with_temp_dir (fun root ->
      (* base has an eval + reward, candidate has neither: reported, not failed *)
      let base =
        mk_run ~root ~id:"base" ~reward:(Some 15.0)
          ~suites:[ ("mibench", 12.0) ] ()
      in
      let cand = mk_run ~root ~id:"cand" ~reward:None ~suites:[] () in
      let deltas = Run.compare_runs ~base ~cand () in
      Alcotest.(check bool) "missing metrics never regress" false
        (Run.has_regression deltas);
      Alcotest.(check bool) "still reported" true (deltas <> []))

(* [max_wall_factor] gates the manifests' wall_s only when set *)
let test_compare_wall_factor () =
  with_temp_dir (fun root ->
      let timed id secs =
        Obs.Clock.with_fake (fun advance ->
            let run = Run.create ~dir:(Filename.concat root id) ~name:id ~meta:[] () in
            advance secs;
            Run.finish run);
        Run.load (Filename.concat root id)
      in
      let base = timed "base" 10.0 in
      let wall deltas =
        List.find (fun d -> d.Run.d_metric = "wall_s") deltas
      in
      let strict = { Run.default_thresholds with Run.max_wall_factor = 1.5 } in
      let slow = timed "slow" 20.0 in
      let d = wall (Run.compare_runs ~thresholds:strict ~base ~cand:slow ()) in
      Alcotest.(check bool) "2x base flagged at 1.5" true d.Run.d_regressed;
      Alcotest.(check (option (float 1e-9))) "base wall_s" (Some 10.0) d.Run.d_base;
      Alcotest.(check (option (float 1e-9))) "cand wall_s" (Some 20.0) d.Run.d_cand;
      let near = timed "near" 12.0 in
      Alcotest.(check bool) "1.2x base passes at 1.5" false
        (wall (Run.compare_runs ~thresholds:strict ~base ~cand:near ()))
          .Run.d_regressed;
      let d = wall (Run.compare_runs ~base ~cand:slow ()) in
      Alcotest.(check bool) "default 0 never flags" false d.Run.d_regressed;
      Alcotest.(check string) "default 0 is informational" "informational"
        d.Run.d_note)

(* --- Sink.jsonl: crash tolerance ---------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let mk_event name =
  { Obs.Event.name; attrs = []; t_start = 0.0; dur = 1.0; self = 1.0; depth = 0;
    tid = 0 }

let test_sink_flush_every () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "trace.jsonl" in
      let sink = Obs.Sink.jsonl ~flush_every:4 path in
      for i = 1 to 10 do
        sink.Obs.Sink.emit (mk_event (Printf.sprintf "e%d" i))
      done;
      (* before close: the two full flush batches are on disk *)
      Alcotest.(check int) "flushed batches visible" 8
        (List.length (read_lines path));
      sink.Obs.Sink.close ();
      Alcotest.(check int) "close flushes the tail" 10
        (List.length (read_lines path)))

let test_sink_truncates () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "trace.jsonl" in
      let s1 = Obs.Sink.jsonl path in
      s1.Obs.Sink.emit (mk_event "first");
      s1.Obs.Sink.close ();
      (* a second sink on the same path starts the trace over *)
      let s2 = Obs.Sink.jsonl path in
      s2.Obs.Sink.emit (mk_event "second");
      s2.Obs.Sink.close ();
      let events, dropped = Obs.Report.read_trace path in
      Alcotest.(check int) "nothing dropped" 0 dropped;
      Alcotest.(check (list string)) "only the second sink's event" [ "second" ]
        (List.map (fun e -> e.Obs.Event.name) events))

let suite =
  [ Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "json file round trip" `Quick test_json_file_roundtrip;
    Alcotest.test_case "jsonl torn line" `Quick test_read_jsonl_torn_line;
    Alcotest.test_case "progress records + series" `Quick
      test_progress_records_and_series;
    Alcotest.test_case "episode actions without steps" `Quick
      test_episode_actions_without_steps;
    Alcotest.test_case "replay interleaves ticks" `Quick
      test_replay_interleaves_ticks;
    QCheck_alcotest.to_alcotest prop_folds_eq_recompute;
    Alcotest.test_case "run lifecycle" `Quick test_run_lifecycle;
    Alcotest.test_case "killed run keeps prefix" `Quick
      test_run_progress_flush_prefix;
    Alcotest.test_case "attrib/alerts lifecycle" `Quick
      test_attrib_alerts_lifecycle;
    Alcotest.test_case "attrib/alerts missing → None" `Quick
      test_attrib_alerts_missing_is_none;
    Alcotest.test_case "corrupt attrib → None" `Quick
      test_attrib_corrupt_is_none;
    Alcotest.test_case "torn alert line skipped" `Quick
      test_alerts_torn_line_skipped;
    Alcotest.test_case "empty alerts = healthy" `Quick
      test_alerts_empty_is_healthy;
    Alcotest.test_case "list_runs missing root" `Quick
      test_list_runs_missing_root;
    Alcotest.test_case "list_runs skips corrupt" `Quick
      test_list_runs_skips_corrupt;
    Alcotest.test_case "list_runs same-second order" `Quick
      test_list_runs_same_second_order;
    Alcotest.test_case "compare within thresholds" `Quick
      test_compare_within_thresholds;
    Alcotest.test_case "compare reward regression" `Quick
      test_compare_reward_regression;
    Alcotest.test_case "compare size regression" `Quick
      test_compare_size_regression;
    Alcotest.test_case "compare missing metrics" `Quick
      test_compare_missing_never_regresses;
    Alcotest.test_case "compare max_wall_factor" `Quick test_compare_wall_factor;
    Alcotest.test_case "sink flush_every" `Quick test_sink_flush_every;
    Alcotest.test_case "sink truncates an existing trace" `Quick
      test_sink_truncates ]
