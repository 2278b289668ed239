(* The benchmark executable: runs one workload (train, eval or serve)
   for one seed, checks its outputs, prints every metric with its unit,
   writes the full result under perfbench/out/, and ends with one JSON
   line holding every metric, which perfbench/run.py narrows to the
   metrics BENCHMARK.json names.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--commit SHA] [--nproc K]

   --trace 0 measures the workload with tracing off (end-to-end
   metrics); --trace 1 also re-drives the same ops through each layer's
   public call with spans around them (per-layer metrics). *)

open Common

(* The calib-dot-4k kernel's time: a machine-speed reference for
   reading numbers across machines, not a gate. *)
let calib_dot_4k_ns () : float =
  let reps = 200 in
  median
    (Array.init 31 (fun _ ->
         let t0 = now () in
         for _ = 1 to reps do
           Speed.dot_4k ()
         done;
         (now () -. t0) *. 1e9 /. float_of_int reps))

let usage () =
  prerr_endline
    "usage: main.exe --workload train|eval|serve --seed N --seconds S --trace 0|1 \
     [--commit SHA] [--nproc K]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let commit = ref "unknown" and nproc = ref 0 in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
    | "--seconds" :: v :: tl -> seconds := int_of_string v; parse tl
    | "--trace" :: v :: tl -> trace := int_of_string v; parse tl
    | "--commit" :: v :: tl -> commit := v; parse tl
    | "--nproc" :: v :: tl -> nproc := int_of_string v; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let run =
    match !workload with
    | "train" -> Wl_train.run
    | "eval" -> Wl_eval.run
    | "serve" -> Wl_serve.run
    | _ -> usage ()
  in
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let trace = !trace = 1 in
  let r = run ~seed:!seed ~seconds:!seconds ~trace in
  let machine =
    [ ("nproc", Json.Int !nproc);
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("git_commit", Json.Str !commit);
      ("workload_seed", Json.Int !seed);
      ("calib_dot_4k_ns", Json.Float (calib_dot_4k_ns ())) ]
  in
  Printf.printf "perfbench %s  seed %d  trace %d\n" !workload !seed (if trace then 1 else 0);
  List.iter (fun (k, v) -> Printf.printf "  %-26s %s\n" k (Json.to_string v)) (machine @ r.notes);
  List.iter (fun x -> Printf.printf "  %-42s %14.6g %s\n" x.name x.value x.unit_) r.metrics;
  List.iter (fun (name, rows) ->
      Printf.printf "  rows: %s\n" name;
      match rows with
      | Json.Arr xs -> List.iter (fun x -> Printf.printf "    %s\n" (Json.to_string x)) xs
      | x -> Printf.printf "    %s\n" (Json.to_string x))
    r.rows;
  List.iter (fun s -> Printf.printf "  CHECK FAILED: %s\n" s) r.failures;
  let correct = r.failed = 0 && r.failures = [] in
  let metrics =
    Json.Obj
      (List.map
         (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ]))
         r.metrics)
  in
  let doc =
    Json.Obj
      [ ("workload", Json.Str !workload);
        ("trace", Json.Bool trace);
        ("correct", Json.Bool correct);
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("machine", Json.Obj machine);
        ("notes", Json.Obj r.notes);
        ("metrics", metrics);
        ("rows", Json.Obj r.rows);
        ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures)) ]
  in
  Posetrl_obs.Runlog.write_json_file
    (Printf.sprintf "perfbench/out/result-%s-seed%d-trace%d.json" !workload !seed
       (if trace then 1 else 0))
    doc;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", metrics) ]))
