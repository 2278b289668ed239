(* The run ledger: a persistent record of every training / eval / bench
   run, so finished runs can be listed, replotted and diffed — the
   bookkeeping behind "did this change make the agent worse?".

   One run owns one directory (default runs/<timestamp>-<name>/):

     manifest.json    id, name, kind, status, created, seed, hyperparams,
                      wall_s, final result — rewritten atomically at
                      create/meta-merge/finish
     progress.jsonl   per-tick / per-episode records (Runlog schema),
                      flushed every few records so a killed run keeps a
                      readable prefix
     eval.json        per-suite size/throughput tables (Evaluate)
     trace.jsonl      span trace, when the caller installs one

   The reading side (list/find/compare) works on any directory that has
   a manifest.json, so CI gates can diff run dirs produced anywhere. *)

let default_root = "runs"

let manifest_file = "manifest.json"

let manifest_path dir = Filename.concat dir manifest_file
let progress_path dir = Filename.concat dir "progress.jsonl"
let trace_path dir = Filename.concat dir "trace.jsonl"
let alerts_path dir = Filename.concat dir "alerts.jsonl"

(* The whole-document files a run may hold, each replaced atomically. *)
type doc = Eval | Serve | Fold of string

let doc_path (d : doc) dir =
  Filename.concat dir
    (match d with Eval -> "eval.json" | Serve -> "serve.json" | Fold file -> file)

let iso8601 (t : float) : string =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let timestamp_id (t : float) (name : string) : string =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d%02d%02d-%02d%02d%02d-%s" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec name

(* --- writing side --------------------------------------------------------- *)

type t = {
  r_dir : string;
  r_created : float;
  mutable r_meta : (string * Json.t) list;
  r_progress : out_channel;
  r_alerts : out_channel;
  mutable r_pending : int;
  mutable r_finished : bool;
}

let dir (t : t) = t.r_dir

(* merge [extra] into [base], later keys overriding earlier ones *)
let merge_fields (base : (string * Json.t) list) (extra : (string * Json.t) list) =
  List.filter (fun (k, _) -> not (List.mem_assoc k extra)) base @ extra

let write_manifest (t : t) ~(status : string) : unit =
  let doc =
    Json.Obj
      (merge_fields
         [ ("id", Json.Str (Filename.basename t.r_dir));
           ("status", Json.Str status);
           ("created", Json.Str (iso8601 t.r_created));
           ("created_unix", Json.Float t.r_created) ]
         t.r_meta)
  in
  Runlog.write_json_file (manifest_path t.r_dir) doc

let create ?(root = default_root) ?dir ~(name : string)
    ~(meta : (string * Json.t) list) () : t =
  let created = Clock.now () in
  let dir =
    match dir with
    | Some d -> d
    | None -> Filename.concat root (timestamp_id created name)
  in
  Runlog.mkdir_p dir;
  let t =
    { r_dir = dir;
      r_created = created;
      r_meta = merge_fields [ ("name", Json.Str name) ] meta;
      r_progress = open_out (progress_path dir);
      (* alerts.jsonl exists (empty) from creation: "no alerts" and
         "run predates the watchdog" stay distinguishable on disk *)
      r_alerts = open_out (alerts_path dir);
      r_pending = 0;
      r_finished = false }
  in
  write_manifest t ~status:"running";
  t

let progress_flush_every = 8

let progress (t : t) (record : Json.t) : unit =
  Runlog.append_jsonl_line t.r_progress record;
  t.r_pending <- t.r_pending + 1;
  if t.r_pending >= progress_flush_every then begin
    flush t.r_progress;
    t.r_pending <- 0
  end

let write (t : t) (d : doc) (json : Json.t) : unit =
  Runlog.write_json_file (doc_path d t.r_dir) json

(* Alerts are rare and each one matters, so unlike progress records they
   flush immediately — a crash right after an alert keeps it on disk. *)
let alert (t : t) (record : Json.t) : unit =
  Runlog.append_jsonl_line t.r_alerts record;
  flush t.r_alerts

let finish ?(result = []) (t : t) : unit =
  if not t.r_finished then begin
    t.r_finished <- true;
    close_out t.r_progress;
    close_out t.r_alerts;
    t.r_meta <-
      merge_fields t.r_meta
        [ ("wall_s", Json.Float (Clock.now () -. t.r_created));
          ("result", Json.Obj result) ];
    write_manifest t ~status:"complete"
  end

(* --- reading side --------------------------------------------------------- *)

type info = {
  run_dir : string;
  run_id : string;
  manifest : Json.t;
}

let load (dir : string) : info =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then
    failwith (Printf.sprintf "%s: not a run directory (no %s)" dir manifest_file);
  (* the directory name, not the manifest "id", names the run: copied or
     renamed run dirs should list under their current name *)
  { run_dir = dir;
    run_id = Filename.basename dir;
    manifest = Runlog.read_json_file path }

let list_runs ?(root = default_root) () : info list =
  (* missing/unreadable roots and corrupt manifests yield an empty (or
     shorter) listing, never an exception: `posetrl runs list` and
     `posetrl watch` must stay usable while a ledger is half-written *)
  match
    if Sys.file_exists root && Sys.is_directory root then Sys.readdir root
    else [||]
  with
  | exception Sys_error _ -> []
  | entries ->
    (* creation order: manifest mtime first, run id as the tiebreak —
       same-second manifests (parallel CI jobs, fast smoke runs) would
       otherwise list in filesystem order, which is not stable across
       machines or reruns *)
    Array.to_list entries
    |> List.filter_map (fun entry ->
           let dir = Filename.concat root entry in
           if Sys.file_exists (manifest_path dir) then
             match load dir with
             | info ->
               let mtime =
                 try (Unix.stat (manifest_path dir)).Unix.st_mtime
                 with Unix.Unix_error _ -> 0.0
               in
               Some (mtime, info)
             | exception (Sys_error _ | Failure _ | Json.Parse_error _) -> None
           else None)
    |> List.sort (fun (ma, a) (mb, b) ->
           match compare ma mb with
           | 0 -> compare a.run_id b.run_id
           | c -> c)
    |> List.map snd

let find ?(root = default_root) (id_or_dir : string) : info =
  if Sys.file_exists (manifest_path id_or_dir) then load id_or_dir
  else
    let dir = Filename.concat root id_or_dir in
    if Sys.file_exists (manifest_path dir) then load dir
    else
      failwith
        (Printf.sprintf "no run %s (looked for %s and %s)" id_or_dir
           (manifest_path id_or_dir) (manifest_path dir))

let read_progress (i : info) : Json.t list * int =
  let path = progress_path i.run_dir in
  if Sys.file_exists path then Runlog.read_jsonl Option.some path else ([], 0)

(* The document readers follow the [list_runs] hardening contract: runs
   that predate a layer (no file) and runs whose file is torn or corrupt
   both render as "no data", never an exception — `posetrl runs` and
   `watch` must work on any ledger. *)
let read (i : info) (d : doc) : Json.t option =
  let path = doc_path d i.run_dir in
  if not (Sys.file_exists path) then None
  else
    match Runlog.read_json_file path with
    | json -> Some json
    | exception (Sys_error _ | Json.Parse_error _) -> None

let read_alerts (i : info) : (Json.t list * int) option =
  let path = alerts_path i.run_dir in
  if not (Sys.file_exists path) then None
  else
    match Runlog.read_jsonl Option.some path with
    | records -> Some records
    | exception Sys_error _ -> None

(* --- cross-run comparison / regression detection --------------------------- *)

type thresholds = {
  max_reward_drop_pct : float;
  (* % drop of final mean reward vs base that counts as a regression *)
  max_size_drop_pts : float;
  (* drop of per-suite avg size reduction, in percentage points *)
  max_wall_factor : float;
  (* candidate wall time > factor × base wall time; <= 0 disables
     (wall time is noisy — off by default so CI gates stay deterministic) *)
}

let default_thresholds =
  { max_reward_drop_pct = 10.0; max_size_drop_pts = 2.0; max_wall_factor = 0.0 }

type delta = {
  d_metric : string;
  d_base : float option;
  d_cand : float option;
  d_regressed : bool;
  d_note : string;
}

let mk_delta metric base cand regressed note =
  { d_metric = metric; d_base = base; d_cand = cand;
    d_regressed = regressed; d_note = note }

(* suite list out of an eval.json document: (name, avg_red) *)
let eval_suite_reds (doc : Json.t) : (string * float) list =
  match Runlog.field "suites" doc with
  | Some (Json.Arr suites) ->
    List.filter_map
      (fun s ->
        match Runlog.str "suite" s, Runlog.num "avg_red" s with
        | Some name, Some red -> Some (name, red)
        | _ -> None)
      suites
  | _ -> []

let compare_runs ?(thresholds = default_thresholds) ~(base : info)
    ~(cand : info) () : delta list =
  let deltas = ref [] in
  let push d = deltas := d :: !deltas in
  (* final mean reward (train runs) *)
  let reward i = Runlog.path_num [ "result"; "final_mean_reward" ] i.manifest in
  (match reward base, reward cand with
   | Some b, Some c ->
     let drop = 100.0 *. (b -. c) /. Float.max (Float.abs b) 1e-9 in
     let regressed = c < b && drop > thresholds.max_reward_drop_pct in
     push
       (mk_delta "final_mean_reward" (Some b) (Some c) regressed
          (Printf.sprintf "drop %.2f%% (max %.2f%%)" (Float.max 0.0 drop)
             thresholds.max_reward_drop_pct))
   | b, c ->
     if b <> None || c <> None then
       push (mk_delta "final_mean_reward" b c false "missing on one side"));
  (* per-suite avg size reduction (eval.json) *)
  (match read base Eval, read cand Eval with
   | Some eb, Some ec ->
     let cand_reds = eval_suite_reds ec in
     List.iter
       (fun (suite, b) ->
         match List.assoc_opt suite cand_reds with
         | Some c ->
           let drop = b -. c in
           let regressed = drop > thresholds.max_size_drop_pts in
           push
             (mk_delta ("size_red." ^ suite) (Some b) (Some c) regressed
                (Printf.sprintf "drop %.2fpts (max %.2fpts)"
                   (Float.max 0.0 drop) thresholds.max_size_drop_pts))
         | None ->
           push
             (mk_delta ("size_red." ^ suite) (Some b) None false
                "suite missing in candidate"))
       (eval_suite_reds eb)
   | Some _, None -> push (mk_delta "size_red" None None false "candidate has no eval.json")
   | None, _ -> ());
  (* wall time *)
  let wall i = Runlog.num "wall_s" i.manifest in
  (match wall base, wall cand with
   | Some b, Some c ->
     let regressed =
       thresholds.max_wall_factor > 0.0 && c > thresholds.max_wall_factor *. b
     in
     push
       (mk_delta "wall_s" (Some b) (Some c) regressed
          (if thresholds.max_wall_factor > 0.0 then
             Printf.sprintf "max %.1fx base" thresholds.max_wall_factor
           else "informational"))
   | _ -> ());
  List.rev !deltas

let has_regression (deltas : delta list) : bool =
  List.exists (fun d -> d.d_regressed) deltas
