(* posetrl — command-line interface to the POSET-RL reproduction.

   One Cmdliner command per subcommand; `posetrl --help` lists them from
   each command's [Cmd.info] doc. A flag several commands take is
   defined once below, as a term over a converter ("shared terms"), and
   train, eval and serve run inside one ledger + telemetry + trace +
   metrics lifecycle, [with_session]. *)

open Cmdliner
open Posetrl_ir
module P = Posetrl_passes
module W = Posetrl_workloads
module C = Posetrl_core
module O = Posetrl_odg
module CG = Posetrl_codegen
module Obs = Posetrl_obs
module A = Posetrl_analysis

let read_module path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  try Parser.parse_module s
  with Parser.Parse_error msg ->
    failwith (Printf.sprintf "%s: parse error: %s" path msg)

let plural n = if n = 1 then "" else "s"

(* --- shared terms: one definition per flag several commands take --------- *)

(* A converter over a table of spellings; help prints a value's first one. *)
let spellings ~(what : string) (table : (string list * 'a) list) : 'a Arg.conv =
  let parse s =
    match List.find_opt (fun (names, _) -> List.mem s names) table with
    | Some (_, v) -> Ok v
    | None -> Error (Printf.sprintf "unknown %s %s" what s)
  in
  let print ppf v =
    match List.find_opt (fun (_, v') -> v' == v) table with
    | Some (name :: _, _) -> Format.pp_print_string ppf name
    | _ -> ()
  in
  Arg.conv' (parse, print)

let target_conv =
  spellings ~what:"target"
    [ ([ "x86"; "x86-64"; "x86_64" ], CG.Target.x86_64);
      ([ "aarch64"; "arm" ], CG.Target.aarch64) ]

let target_arg =
  Arg.(value & opt target_conv CG.Target.x86_64 & info [ "target" ]
         ~docv:"TARGET" ~doc:"x86 or aarch64.")

(* The action spaces by name: --space's spellings, and the names a run's
   manifest records as its "action_space". *)
let spaces = [ ([ "odg" ], O.Action_space.odg); ([ "manual" ], O.Action_space.manual) ]

let space_arg =
  Arg.(value & opt (spellings ~what:"action space" spaces) O.Action_space.odg
       & info [ "space" ] ~docv:"SPACE" ~doc:"Action space: odg or manual.")

let sanitize_arg ~(default : A.Sanitize.level) ~(doc : string) =
  let print ppf l = Format.pp_print_string ppf (A.Sanitize.level_to_string l) in
  Arg.(value
       & opt (conv' (A.Sanitize.level_of_string, print)) default
       & info [ "sanitize" ] ~docv:"LEVEL" ~doc)

(* The exit codes a command's --help lists under EXIT STATUS, besides
   Cmdliner's own (0, 123, 124, 125). Every command can exit 1 through
   the handler at the end of this file. *)
let exit_error =
  Cmd.Exit.info 1
    ~doc:"on an error reported on standard error as $(b,posetrl: error:) \
          (a missing or malformed input file, a missing run, a module that \
          traps)."

let exit_sanitizer =
  Cmd.Exit.info 2
    ~doc:"when a sanitizer check fails; standard error names the pass and \
          the minimized repro."

let exits more = (exit_error :: more) @ Cmd.Exit.defaults

let sanitize_doc =
  "Semantic sanitizer level: off, structural (re-verify after every pass), \
   ssa (structural + SSA dominance checking), or equiv (ssa + translation \
   validation: each pass application is differentially simulated against \
   its input on seeded concrete inputs). On failure a delta-minimized repro \
   is written to the run ledger's repros/ directory (or runs/repros without \
   a ledger run) and the command aborts."

let level_conv =
  let parse s =
    Option.to_result ~none:("unknown level " ^ s) (P.Pipelines.level_of_string s)
  in
  let print ppf l = Format.pp_print_string ppf (P.Pipelines.level_to_string l) in
  Arg.conv' (parse, print)

(* -O/--level over [conv]: [level_conv] itself, [Arg.some level_conv],
   or validate's variant that also takes `all`. *)
let level_arg ~(doc : string) level default =
  Arg.(value & opt level default & info [ "O"; "level" ] ~docv:"LEVEL" ~doc)

(* A benchmark name from the suites, or a path to a textual module. The
   module is built on demand, afresh on each call. *)
let program_conv : (string * (unit -> Modul.t)) Arg.conv =
  let parse spec =
    match W.Suites.find_program spec with
    | Some mk -> Ok (spec, mk)
    | None when Sys.file_exists spec -> Ok (spec, fun () -> read_module spec)
    | None ->
      Error (Printf.sprintf "unknown program %s (not a benchmark, not a file)" spec)
  in
  Arg.conv' (parse, fun ppf (spec, _) -> Format.pp_print_string ppf spec)

let program_pos ~(doc : string) =
  Arg.(pos 0 (some program_conv) None & info [] ~docv:"PROGRAM" ~doc)

let run_pos ?(doc = "Run id (under --root) or a run directory path.") () =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN" ~doc)

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

(* A count that must be at least 1: 0 or a negative value is a usage
   error naming the flag. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (Printf.sprintf "%s is not a positive integer" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let top_arg ~(default : int) ~(doc : string) =
  Arg.(value & opt int default & info [ "top" ] ~docv:"K" ~doc)

let dot_arg ~(doc : string) =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"OUT.dot" ~doc)

let output_arg ~(doc : string) path default =
  Arg.(value & opt path default & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.jsonl"
         ~doc:"Write a JSONL span trace to $(docv) (analyse with `posetrl report`).")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the metrics registry snapshot on exit.")

(* Run [f] with the observability surface requested on the command line:
   a JSONL sink while [f] runs, a metrics table after it. Both notes go
   to [oc], so a command whose stdout carries data (`opt --emit`) keeps
   them off it. *)
let with_obs ?(oc = stdout) ~(trace : string option) ~(metrics : bool)
    (f : unit -> 'a) : 'a =
  let r =
    match trace with
    | None -> f ()
    | Some path ->
      let r = Obs.Span.with_sink (Obs.Sink.jsonl path) f in
      Printf.fprintf oc "trace written to %s\n" path;
      r
  in
  if metrics then Obs.Console.print_metrics ~oc ~title:"metrics (posetrl.*)" ();
  r

(* Repros land next to the ledger run when one is open. *)
let repro_dir_of_run (run : Obs.Run.t option) : string =
  match run with
  | Some r -> Filename.concat (Obs.Run.dir r) "repros"
  | None -> Filename.concat "runs" "repros"

(* The one place a sanitizer failure's minimized repro reaches the disk;
   [None] for an input that failed before any pass ran. *)
let write_repro ~(dir : string) : exn -> string option = function
  | A.Sanitize.Failed { pass; level; errors; repro = Some m } ->
    Some (A.Sanitize.write_repro ~dir ~pass ~level ~errors m)
  | _ -> None

(* A sanitizer failure escaping [f] leaves its repro in [dir] and names
   it on stderr, then aborts the command (exit 2, see the handler at the
   end of this file) once every enclosing scope has closed. *)
let with_repro ~(dir : string) (f : unit -> 'a) : 'a =
  try f ()
  with A.Sanitize.Failed _ as e ->
    Option.iter (Printf.eprintf "posetrl: repro written to %s\n%!")
      (write_repro ~dir e);
    raise e

(* The policy network eval and serve roll out: the trainer's
   architecture from a seeded init, loaded from [weights] when given. *)
let load_agent ?(seed = 0) ?weights (actions : O.Action_space.t) =
  let agent =
    Posetrl_rl.Dqn.create (Posetrl_support.Rng.create seed)
      ~state_dim:C.Environment.state_dim ~hidden:C.Trainer.paper.C.Trainer.hidden
      ~n_actions:(O.Action_space.n_actions actions)
  in
  Option.iter (Posetrl_rl.Dqn.load_weights agent) weights;
  agent

(* --- run session: ledger + trace + metrics (train, eval, serve) ------------ *)

type session = {
  run_dir : string option;
  run_name : string option;
  trace : string option;
  metrics : bool;
}

let session_term =
  let run_dir =
    Arg.(value & opt (some string) None & info [ "run-dir" ] ~docv:"DIR"
           ~doc:"Persist this run in the ledger at $(docv): manifest.json, \
                 progress.jsonl, eval.json, trace.jsonl. Inspect with `posetrl runs`.")
  in
  let run_name =
    Arg.(value & opt (some string) None & info [ "run" ] ~docv:"NAME"
           ~doc:"Persist this run in the ledger under runs/<timestamp>-$(docv).")
  in
  Term.(const (fun run_dir run_name trace metrics ->
            { run_dir; run_name; trace; metrics })
        $ run_dir $ run_name $ trace_arg $ metrics_arg)

(* Live telemetry over HTTP while a train or eval run is in flight. *)
type telemetry = { port : int option; grace : float }

let telemetry_term =
  let port =
    Arg.(value & opt (some int) None & info [ "serve" ] ~docv:"PORT"
           ~doc:"Serve live telemetry over HTTP on 127.0.0.1:$(docv) while the \
                 run is in flight: GET /metrics (Prometheus exposition), \
                 /healthz, /runs, /runs/ID/progress.")
  in
  let grace =
    Arg.(value & opt float 5.0 & info [ "serve-grace" ] ~docv:"SECS"
           ~doc:"With --serve: keep answering requests for $(docv) seconds \
                 after the run finishes, so a scraper can observe the final \
                 'done' /healthz state and the last metric values.")
  in
  Term.(const (fun port grace -> { port; grace }) $ port $ grace)

(* Wrap [f] in a telemetry server's lifecycle: bind before, report
   status "running" until [f] returns and "done" during the grace
   window after. [f] receives a pump thunk to call from its hot loop
   (the server is single-threaded — nothing is served between pumps). *)
let with_telemetry ~docs (tm : telemetry) ~(kind : string)
    ~(run_dir : string option) (f : pump:(unit -> unit) -> 'a) : 'a =
  match tm.port with
  | None -> f ~pump:(fun () -> ())
  | Some port ->
    let status = ref "running" in
    let started = Obs.Clock.now () in
    let metric name = Option.value ~default:0.0 (Obs.Metrics.value name) in
    let health () =
      let open Obs.Json in
      Obj
        [ ("status", Str !status);
          ("kind", Str kind);
          ("uptime_s", Float (Obs.Clock.now () -. started));
          ("step", Int (int_of_float (metric "posetrl.train.steps")));
          ("episode", Int (int_of_float (metric "posetrl.train.episodes")));
          ("epsilon", Float (metric "posetrl.train.epsilon"));
          ("mean_reward", Float (metric "posetrl.train.mean_reward"));
          ("run", match run_dir with Some d -> Str d | None -> Null) ]
    in
    let handler = Obs.Httpd.telemetry_handler ~docs ~health () in
    let server = Obs.Httpd.create ~port () in
    Obs.Console.info "telemetry on http://127.0.0.1:%d  (/metrics /healthz %s /runs)\n%!"
      (Obs.Httpd.port server)
      (String.concat " " (List.map (fun (name, _) -> "/" ^ name) docs));
    Fun.protect
      ~finally:(fun () -> Obs.Httpd.close server)
      (fun () ->
        let r = f ~pump:(fun () -> Obs.Httpd.pump server handler) in
        status := "done";
        if tm.grace > 0.0 then begin
          Obs.Console.info "%s done; serving final state for %.1fs\n%!" kind
            tm.grace;
          let deadline = Obs.Clock.now () +. tm.grace in
          while Obs.Clock.now () < deadline do
            Obs.Httpd.pump server handler;
            Unix.sleepf 0.05
          done
        end;
        r)

(* The one lifecycle of train, eval and serve: open a ledger run when
   --run-dir or --run asks for one (--run-dir wins), serve live
   telemetry around it, and run [work] with the run's trace.jsonl and
   any --trace sink capturing the span stream.
   [finish] then gets [work]'s result once the trace and metrics are
   out, and returns the manifest's result fields; the manifest is
   finished even when either raises. [folds] are written to the run and
   served live, like [alerts]. A sanitizer failure leaves its repro in
   the run's repros/ ([runs/repros] without a run). *)
let with_session ?(telemetry = { port = None; grace = 0.0 })
    ?(alerts = fun () -> []) ?(folds = []) (s : session)
    ~(kind : string) ~(meta : (string * Obs.Json.t) list)
    (work : Obs.Run.t option -> pump:(unit -> unit) -> 'a)
    (finish : Obs.Run.t option -> 'a -> (string * Obs.Json.t) list) : unit =
  let run =
    match s.run_dir, s.run_name with
    | None, None -> None
    | dir, name ->
      let name = Option.value name ~default:kind in
      Some (Obs.Run.create ?dir ~name ~meta:(("kind", Obs.Json.Str kind) :: meta) ())
  in
  let body ~pump () =
    with_repro ~dir:(repro_dir_of_run run) (fun () ->
        finish run
          (with_obs ~trace:s.trace ~metrics:s.metrics (fun () -> work run ~pump)))
  in
  let alerts = ("alerts", fun () -> Some (Obs.Json.Arr (alerts ()))) in
  with_telemetry ~docs:(alerts :: List.map Obs.Fold.route folds) telemetry ~kind
    ~run_dir:(Option.map Obs.Run.dir run) (fun ~pump ->
      match run with
      | None -> ignore (body ~pump ())
      | Some r ->
        let result = ref [] in
        Fun.protect
          ~finally:(fun () -> Obs.Run.finish ~result:!result r)
          (fun () ->
            Obs.Span.with_sink
              (Obs.Sink.jsonl (Obs.Run.trace_path (Obs.Run.dir r)))
              (fun () ->
                result := body ~pump ();
                List.iter (Obs.Fold.write r) folds));
        Obs.Console.info "run recorded in %s\n" (Obs.Run.dir r))

let json_of_hp (hp : C.Trainer.hyperparams) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [ ("total_steps", Int hp.C.Trainer.total_steps);
      ("epsilon_start", Float hp.C.Trainer.epsilon.Posetrl_rl.Schedule.start);
      ("epsilon_stop", Float hp.C.Trainer.epsilon.Posetrl_rl.Schedule.stop);
      ("epsilon_decay_steps", Int hp.C.Trainer.epsilon.Posetrl_rl.Schedule.decay_steps);
      ("batch_size", Int hp.C.Trainer.batch_size);
      ("train_every", Int hp.C.Trainer.train_every);
      ("target_sync_every", Int hp.C.Trainer.target_sync_every);
      ("replay_capacity", Int hp.C.Trainer.replay_capacity);
      ("warmup_steps", Int hp.C.Trainer.warmup_steps);
      ("gamma", Float hp.C.Trainer.gamma);
      ("lr", Float hp.C.Trainer.lr);
      ("hidden", Arr (List.map (fun h -> Int h) hp.C.Trainer.hidden));
      ("max_episode_steps", Int hp.C.Trainer.max_episode_steps);
      ("double", Bool hp.C.Trainer.double);
      ("reward_scale", Float hp.C.Trainer.reward_scale);
      ("snapshot_every", Int hp.C.Trainer.snapshot_every);
      ("alpha", Float C.Reward.paper_weights.C.Reward.alpha);
      ("beta", Float C.Reward.paper_weights.C.Reward.beta) ]

let report_module (oc : out_channel) (target : CG.Target.t) (label : string) (m : Modul.t) =
  let { Posetrl_mca.Mca.size; text; throughput } = Posetrl_mca.Mca.measure target m in
  Printf.fprintf oc "%-10s insns=%-5d size=%-6dB text=%-6dB mca-throughput=%.3f\n"
    label (Modul.insn_count m) size text throughput

(* --- opt ------------------------------------------------------------------ *)

let opt_cmd =
  (* every name must be a registered pass: an unknown or empty one is a
     usage error naming --passes *)
  let passes_conv =
    let parse s =
      let names = String.split_on_char ',' s |> List.map String.trim in
      match List.find_opt (fun n -> Option.is_none (P.Registry.find n)) names with
      | None -> Ok names
      | Some n -> Error (Printf.sprintf "unknown pass %S" n)
    in
    Arg.conv' (parse, fun ppf names -> Format.pp_print_string ppf (String.concat "," names))
  in
  let passes =
    Arg.(value & opt (some passes_conv) None & info [ "passes" ] ~docv:"P1,P2,..."
           ~doc:"Explicit comma-separated pass list (overrides --level).")
  in
  let emit =
    Arg.(value & flag & info [ "emit" ]
           ~doc:"Print the optimized module alone on stdout (summary lines on stderr).")
  in
  let inject_bug =
    Arg.(value & flag & info [ "inject-bug" ]
           ~doc:"Append a deliberately miscompiling sink pass (first add in \
                 each function flipped to sub) after the pipeline. The sink \
                 passes the structural and ssa sanitizer tiers; only \
                 --sanitize equiv catches it. Testing hook for the \
                 translation-validation tier.")
  in
  let run (_, mk) level passes tgt emit sanitize inject_bug trace metrics =
    let oc = if emit then stderr else stdout in
    let m = mk () in
    report_module oc tgt "input" m;
    let m' =
      with_repro ~dir:(repro_dir_of_run None) @@ fun () ->
      with_obs ~oc ~trace ~metrics (fun () ->
          let m' =
            match passes with
            | Some names -> P.Pass_manager.run ~sanitize P.Config.oz names m
            | None ->
              P.Pass_manager.run ~sanitize
                (P.Pipelines.config_of level)
                (P.Pipelines.sequence_of level) m
          in
          if inject_bug then
            P.Pass_manager.run_pass ~sanitize P.Sink.pass P.Config.oz m'
          else m')
    in
    report_module oc tgt "output" m';
    if emit then print_string (Printer.module_to_string m')
  in
  Cmd.v
    (Cmd.info "opt" ~exits:(exits [ exit_sanitizer ])
       ~doc:"Apply an optimization pipeline to a module")
    Term.(const run
          $ Arg.required
              (program_pos
                 ~doc:"Benchmark name (e.g. 541.leela, crc32) or path to a \
                       textual MiniIR file.")
          $ level_arg ~doc:"Pipeline level: O0 O1 O2 O3 Os Oz." level_conv
              P.Pipelines.Oz
          $ passes $ target_arg $ emit
          $ sanitize_arg ~default:A.Sanitize.Structural ~doc:sanitize_doc
          $ inject_bug $ trace_arg $ metrics_arg)

(* --- run ------------------------------------------------------------------- *)

let run_cmd =
  let go (spec, mk) level =
    let m = mk () in
    let m = Option.fold ~none:m ~some:(fun l -> P.Pass_manager.run_level l m) level in
    let main =
      match Modul.find_func m "main" with
      | Some f -> f
      | None -> failwith (Printf.sprintf "%s: no function @main to run" spec)
    in
    let module I = Posetrl_interp.Interp in
    let o =
      try I.run m with I.Trap e -> failwith (Printf.sprintf "%s: trap: %s" spec e)
    in
    let rec show = function
      | I.VInt v -> Int64.to_string v
      | I.VFloat f -> string_of_float f
      | I.VPtr p -> Printf.sprintf "ptr:%d" p
      | I.VVec vs -> "<" ^ String.concat ", " (Array.to_list (Array.map show vs)) ^ ">"
      | I.VUndef -> "undef"
    in
    print_string o.I.output;
    Printf.printf "return: %s\ncycles: %d\ndynamic instructions: %d\n"
      (if Types.equal main.Func.ret Types.Void then "void" else show o.I.ret)
      o.I.cycles o.I.dyn_insns
  in
  Cmd.v (Cmd.info "run" ~exits:(exits []) ~doc:"Interpret a module")
    Term.(const go
          $ Arg.required
              (program_pos ~doc:"Benchmark name or path to a textual MiniIR file.")
          $ level_arg ~doc:"Optimize before running." (Arg.some level_conv) None)

(* --- train ----------------------------------------------------------------- *)

let train_cmd =
  let steps =
    Arg.(value & opt (some positive_int) None & info [ "steps" ] ~docv:"N"
           ~doc:"Total training timesteps (default: 20100, the paper budget; \
                 with --fast, the fast schedule's 1800).")
  in
  let fast =
    Arg.(value & flag & info [ "fast" ]
           ~doc:"Use the scaled-down fast hyperparameters instead of the paper schedule.")
  in
  let corpus_size =
    Arg.(value & opt positive_int 130 & info [ "corpus" ] ~docv:"N"
           ~doc:"Training corpus size (paper: 130).")
  in
  let inject_nan =
    Arg.(value & opt (some int) None & info [ "inject-nan" ] ~docv:"STEP"
           ~doc:"Fault injection: poison one online-network weight with NaN at \
                 global step $(docv), so the training-health watchdog's \
                 nan_loss rule fires. CI uses this to exercise the alert \
                 pipeline end to end; never set it for real training.")
  in
  let go out actions tgt steps fast seed corpus_size inject_nan sanitize session
      telemetry =
    let corpus = W.Suites.training_corpus ~n:corpus_size () in
    let base = if fast then C.Trainer.fast else C.Trainer.paper in
    let hp =
      match steps with
      | None -> base
      | Some s ->
        { base with
          C.Trainer.total_steps = s;
          C.Trainer.epsilon =
            (if fast then
               Posetrl_rl.Schedule.create ~start:1.0 ~stop:0.05
                 ~decay_steps:(max 1 (s * 2 / 3)) ()
             else
               Posetrl_rl.Schedule.create ~start:1.0 ~stop:0.01
                 ~decay_steps:(max 1 (s - 100)) ()) }
    in
    Obs.Console.info "training %s/%s for %d steps on %d programs...\n%!"
      actions.O.Action_space.name
      (Format.asprintf "%a" (Arg.conv_printer target_conv) tgt)
      hp.C.Trainer.total_steps corpus_size;
    (* watchdog alerts: persist each one as it fires (crash-tolerant),
       warn on the console, and keep the JSON forms live for /alerts *)
    let live_alerts = ref [] in
    (* built here (not inside the trainer) so the live routes, the
       ledger writes and the trainer share the same tables *)
    let folds = C.Trainer.default_folds hp actions in
    let work run ~pump =
      (* the trainer builds the ledger's records; persist each one and
         print the progress line from each tick *)
      let on_record r =
        Option.iter (fun run -> Obs.Run.progress run r) run;
        if Obs.Runlog.str "kind" r = Some "tick" then
          let f k = Option.value ~default:0.0 (Obs.Runlog.num k r) in
          Obs.Console.info
            "  step %6d  episode %5d  eps %.3f  mean-reward %7.2f  mean-size-gain %6.2f%%  loss %.4f\n%!"
            (int_of_float (f "step")) (int_of_float (f "episode")) (f "epsilon")
            (f "mean_reward") (f "mean_size_gain") (f "loss")
      in
      let on_alert (a : Obs.Health.alert) =
        let j = Obs.Health.alert_to_json a in
        live_alerts := j :: !live_alerts;
        Option.iter (fun r -> Obs.Run.alert r j) run;
        Obs.Console.info "  ALERT [%s] %s step %d: %s\n%!" a.Obs.Health.a_severity
          a.Obs.Health.a_rule a.Obs.Health.a_step a.Obs.Health.a_message
      in
      C.Trainer.train ~hp ~on_record
        ~on_step:(fun _ -> pump ()) ~on_alert ?inject_nan_at:inject_nan ~folds
        ~sanitize ~seed ~corpus ~actions ~target:tgt ()
    in
    let finish _ (res : C.Trainer.result) =
      Posetrl_rl.Dqn.save_weights res.C.Trainer.agent out;
      let n_alerts = List.length res.C.Trainer.alerts in
      if n_alerts > 0 then
        Obs.Console.info "training-health: %d alert%s fired (see \
                          alerts.jsonl / `posetrl runs show`)\n"
          n_alerts (plural n_alerts);
      let lines, fields = List.split (List.map Obs.Fold.summary folds) in
      List.iter (Obs.Console.info "%s") lines;
      Obs.Console.info "saved weights to %s (%d episodes)\n" out
        res.C.Trainer.episodes;
      [ ("episodes", Obs.Json.Int res.C.Trainer.episodes);
        ("final_mean_reward", Obs.Json.Float res.C.Trainer.final_mean_reward) ]
      @ List.concat fields
      @ [ ("alerts", Obs.Json.Int n_alerts); ("weights", Obs.Json.Str out) ]
    in
    with_session session ~telemetry
      ~alerts:(fun () -> List.rev !live_alerts)
      ~folds ~kind:"train"
      ~meta:
        [ ("seed", Obs.Json.Int seed);
          ("action_space", Obs.Json.Str actions.O.Action_space.name);
          ("target", Obs.Json.Str tgt.CG.Target.name);
          ("corpus",
           Obs.Json.Obj
             [ ("n", Obs.Json.Int (Array.length corpus));
               ("source", Obs.Json.Str "Suites.training_corpus") ]);
          ("hyperparams", json_of_hp hp) ]
      work finish
  in
  Cmd.v
    (Cmd.info "train" ~exits:(exits [ exit_sanitizer ])
       ~doc:"Train a phase-ordering model")
    Term.(const go
          $ output_arg ~doc:"Where to save the trained weights." Arg.string
              "posetrl.weights"
          $ space_arg $ target_arg $ steps $ fast $ seed_arg $ corpus_size
          $ inject_nan
          $ sanitize_arg ~default:A.Sanitize.Off ~doc:sanitize_doc
          $ session_term $ telemetry_term)

(* --- eval ------------------------------------------------------------------- *)

let eval_cmd =
  let weights =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WEIGHTS"
           ~doc:"Weights file saved by `posetrl train`.")
  in
  let jobs =
    Arg.(value & opt positive_int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains that evaluate the suite programs in parallel. \
                 Results are byte-identical to --jobs 1 (see DESIGN.md §9). \
                 Default 1 (sequential, no domains spawned).")
  in
  let go weights actions tgt sanitize jobs session telemetry =
    (* more domains than cores can run slower than --jobs 1 (DESIGN.md §9);
       the answer is the same, so this only warns *)
    let cores = Domain.recommended_domain_count () in
    if jobs > cores then
      Printf.eprintf
        "posetrl: warning: --jobs %d is above the %d domain%s this machine \
         recommends; the pool may run slower than --jobs 1\n%!"
        jobs cores (if cores = 1 then "" else "s");
    let agent = load_agent ~weights actions in
    (* eval coverage: the greedy rollout sequences folded as episodes
       (reward components are not re-derived — counts/entropy only);
       results come back in input order, so the table is byte-identical
       across --jobs settings like eval.json itself *)
    let coverage = C.Trainer.make_coverage ~registry:Obs.Metrics.global actions in
    let folds = [ Obs.Fold.Fold ((module Obs.Coverage), coverage) ] in
    (* eval is the domain pool's one client: [Some pool] only when
       parallelism was requested, so --jobs 1 stays domain-free *)
    let evaluate ~pump pool =
      List.map
        (fun suite ->
          pump ();
          let results =
            C.Evaluate.evaluate_programs ?pool ~sanitize ~agent ~actions
              ~target:tgt suite.W.Suites.programs
          in
          ( C.Evaluate.summarize_suite ~suite:suite.W.Suites.suite_name results,
            results ))
        W.Suites.validation_suites
    in
    let work _ ~pump =
      if jobs = 1 then evaluate ~pump None
      else
        Posetrl_support.Pool.with_pool ~name:"posetrl" ~jobs (fun p ->
            evaluate ~pump (Some p))
    in
    let finish run evaluated =
      List.iter
        (fun ((s : C.Evaluate.suite_summary), results) ->
          Printf.printf "%-10s size reduction vs Oz: min %6.2f%%  avg %6.2f%%  max %6.2f%%"
            s.C.Evaluate.suite s.C.Evaluate.min_red s.C.Evaluate.avg_red s.C.Evaluate.max_red;
          (match s.C.Evaluate.avg_time_impr with
           | Some t -> Printf.printf "  time improvement: %6.2f%%\n" t
           | None -> print_newline ());
          List.iter
            (fun r ->
              Printf.printf "    %-16s oz=%6dB model=%6dB (%+.2f%%) seq=%s\n"
                r.C.Evaluate.prog_name r.C.Evaluate.size_oz r.C.Evaluate.size_model
                (C.Evaluate.size_reduction_pct r)
                (String.concat "->" (List.map string_of_int r.C.Evaluate.predicted)))
            results)
        evaluated;
      let step pos action =
        { Obs.Fold.action; pos; reward = 0.0; r_binsize = 0.0; r_throughput = 0.0;
          state = None }
      in
      let steps =
        List.concat_map
          (fun (r : C.Evaluate.program_result) -> List.mapi step r.C.Evaluate.predicted)
          (List.concat_map snd evaluated)
      in
      List.iter (Obs.Fold.observe folds) steps;
      Obs.Fold.sample folds ~step:(List.length steps);
      Option.iter
        (fun r -> Obs.Run.write r Obs.Run.Eval (C.Evaluate.suites_to_json evaluated))
        run;
      let avg_reds =
        List.map (fun ((s : C.Evaluate.suite_summary), _) -> s.C.Evaluate.avg_red)
          evaluated
      in
      [ ("suites", Obs.Json.Int (List.length evaluated));
        ("overall_avg_size_red",
         Obs.Json.Float (Posetrl_support.Stats.mean avg_reds)) ]
    in
    with_session session ~telemetry ~folds ~kind:"eval"
      ~meta:
        [ ("weights", Obs.Json.Str weights);
          ("action_space", Obs.Json.Str actions.O.Action_space.name);
          ("target", Obs.Json.Str tgt.CG.Target.name) ]
      work finish
  in
  Cmd.v
    (Cmd.info "eval" ~exits:(exits [ exit_sanitizer ])
       ~doc:"Evaluate a trained model on the validation suites")
    Term.(const go $ weights $ space_arg $ target_arg
          $ sanitize_arg ~default:A.Sanitize.Off ~doc:sanitize_doc
          $ jobs $ session_term $ telemetry_term)

(* --- report ------------------------------------------------------------------ *)

let report_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.jsonl"
           ~doc:"Trace file written by --trace (a run's trace.jsonl).")
  in
  let other =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"OTHER.jsonl"
           ~doc:"A second trace: after FILE's tables, compare per-span \
                 self-time of FILE (A) against $(docv) (B), e.g. an eval \
                 run at --jobs 1 against one at --jobs 4.")
  in
  let chrome =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"OUT.json"
           ~doc:"Also export the trace as Chrome trace-event JSON — load it \
                 in ui.perfetto.dev or chrome://tracing for a flamegraph view.")
  in
  let folded =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"OUT.folded"
           ~doc:"Also export the trace as folded stacks (self-time in µs) \
                 for flamegraph.pl / inferno / speedscope.")
  in
  (* a killed run tears its trace's last line: skip it and say so *)
  let read path =
    let events, dropped = Obs.Report.read_trace path in
    if events = [] && dropped > 0 then
      failwith (Printf.sprintf "%s: no trace events" path);
    let note =
      if dropped = 0 then None
      else Some (Printf.sprintf "%d torn trace line%s skipped" dropped (plural dropped))
    in
    (events, note)
  in
  let go file other top_k chrome folded =
    let events, note = read file in
    let other = Option.map (fun path -> (path, read path)) other in
    Option.iter (Printf.printf "(%s)\n") note;
    (match chrome with
     | Some out ->
       Obs.Chrome.write ~path:out events;
       Printf.printf "chrome trace written to %s (%d events)\n" out
         (List.length events)
     | None -> ());
    (match folded with
     | Some out ->
       Obs.Prof.write_folded ~path:out (Obs.Prof.of_events events);
       Printf.printf "folded stacks written to %s (%d events)\n" out
         (List.length events)
     | None -> ());
    print_string (Obs.Report.render ~top_k events);
    Option.iter
      (fun (path, (events_b, note_b)) ->
        print_newline ();
        Option.iter (Printf.printf "(%s: %s)\n" path) note_b;
        print_string
          (Obs.Prof.render_compare ~top:top_k ~a:file ~b:path
             (Obs.Prof.of_events events) (Obs.Prof.of_events events_b)))
      other
  in
  Cmd.v
    (Cmd.info "report" ~exits:(exits [])
       ~doc:"Aggregate a span trace (e.g. a run's trace.jsonl) into a \
             hotspot table plus per-pass and per-action tables; given a \
             second trace, also compare per-span self-time")
    Term.(const go $ file $ other
          $ top_arg ~default:20 ~doc:"Rows in the hotspot and comparison tables."
          $ chrome $ folded)

(* --- runs (the ledger) ------------------------------------------------------- *)

module Tbl = Posetrl_support.Table

(* The step-stream folds a run's ledger may hold, in report order. *)
let ledger_folds : (module Obs.Fold.S) list =
  [ (module Posetrl_rl.Attrib); (module Obs.Coverage) ]

let root_arg =
  Arg.(value & opt string Obs.Run.default_root & info [ "root" ] ~docv:"DIR"
         ~doc:"Ledger root directory scanned for run ids.")

let json_scalar : Obs.Json.t -> string = function
  | Obs.Json.Str s -> s
  | Obs.Json.Int i -> string_of_int i
  | Obs.Json.Float f -> Printf.sprintf "%g" f
  | Obs.Json.Bool b -> string_of_bool b
  | Obs.Json.Null -> "-"
  | (Obs.Json.Arr _ | Obs.Json.Obj _) as j -> Obs.Json.to_string j

let fmt_num = function Some v -> Printf.sprintf "%.3f" v | None -> "-"

(* A run's progress records; torn lines are reported, never fatal. *)
let read_progress (info : Obs.Run.info) : Obs.Json.t list =
  let records, dropped = Obs.Run.read_progress info in
  if dropped > 0 then
    Printf.printf "  (%d torn progress line%s skipped)\n" dropped (plural dropped);
  records

let runs_list_cmd =
  let go root =
    match Obs.Run.list_runs ~root () with
    | [] -> Printf.printf "no runs under %s\n" root
    | runs ->
      let t =
        Tbl.create ~title:(Printf.sprintf "run ledger (%s)" root)
          ~headers:[ "id"; "kind"; "status"; "wall s"; "mean reward"; "avg size red %" ]
          ~aligns:[ Tbl.Left; Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right ]
          ()
      in
      List.iter
        (fun (i : Obs.Run.info) ->
          let m = i.Obs.Run.manifest in
          let get k = Option.value ~default:"-" (Obs.Runlog.str k m) in
          Tbl.add_row t
            [ i.Obs.Run.run_id;
              get "kind";
              get "status";
              (match Obs.Runlog.num "wall_s" m with
               | Some w -> Printf.sprintf "%.1f" w
               | None -> "-");
              fmt_num (Obs.Runlog.path_num [ "result"; "final_mean_reward" ] m);
              fmt_num (Obs.Runlog.path_num [ "result"; "overall_avg_size_red" ] m) ])
        runs;
      Tbl.print t
  in
  Cmd.v (Cmd.info "list" ~exits:(exits []) ~doc:"List past runs in the ledger")
    Term.(const go $ root_arg)

let print_eval_tables (doc : Obs.Json.t) =
  match Obs.Runlog.field "suites" doc with
  | Some (Obs.Json.Arr suites) ->
    let t =
      Tbl.create ~title:"eval: size reduction vs Oz (eval.json)"
        ~headers:[ "suite"; "n"; "min"; "avg"; "max"; "time impr" ]
        ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
        ()
    in
    List.iter
      (fun s ->
        let num k = Obs.Runlog.num k s in
        Tbl.add_row t
          [ Option.value ~default:"?" (Obs.Runlog.str "suite" s);
            (match num "n" with Some n -> Printf.sprintf "%.0f" n | None -> "-");
            fmt_num (num "min_red"); fmt_num (num "avg_red");
            fmt_num (num "max_red"); fmt_num (num "avg_time_impr") ])
      suites;
    Tbl.print t
  | _ -> ()

(* A run's alerts as [Health.alert_of_json] decodes them, with the torn
   line count; [None] when the run predates the watchdog. *)
let read_alerts (info : Obs.Run.info) : (Obs.Health.alert list * int) option =
  Option.map
    (fun (records, torn) -> (List.filter_map Obs.Health.alert_of_json records, torn))
    (Obs.Run.read_alerts info)

(* The run report, one section per ledger document: the manifest,
   training curves and eval tables; top schedules, the drift timeline
   and watchdog alerts; then each fold's table (per-action reward
   attribution, decision-space coverage) with its recompute check. A
   section whose document the run lacks says so in one line. *)
let runs_show_cmd =
  let schedules =
    Arg.(value & opt int 5 & info [ "schedules" ] ~docv:"K"
           ~doc:"Top schedules (episodes ranked by reward) to break down per pass.")
  in
  let go root id top schedules dot =
    let info = Obs.Run.find ~root id in
    let manifest = info.Obs.Run.manifest in
    Printf.printf "run %s (%s)\n" info.Obs.Run.run_id info.Obs.Run.run_dir;
    (match manifest with
     | Obs.Json.Obj fields ->
       List.iter
         (fun (k, v) ->
           if k <> "id" then Printf.printf "  %-18s %s\n" k (json_scalar v))
         fields
     | _ -> ());
    let records = read_progress info in
    if records <> [] then begin
      Printf.printf "\ntraining curves (%d progress records):\n" (List.length records);
      print_string (Obs.Dashboard.curves records)
    end;
    (match Obs.Run.read info Obs.Run.Eval with
     | Some doc -> print_newline (); print_eval_tables doc
     | None -> ());
    print_string (Obs.Dashboard.schedules ~k:schedules records);
    (* the drift windows span the run's action space: no known space,
       no timeline *)
    Option.iter
      (fun name ->
        match List.find_opt (fun (names, _) -> List.mem name names) spaces with
        | Some (_, space) ->
          print_string
            (Obs.Dashboard.drift ~n_actions:(O.Action_space.n_actions space) records)
        | None -> ())
      (Obs.Runlog.str "action_space" manifest);
    print_string (Obs.Health.render (read_alerts info));
    List.iter
      (fun fold -> print_string (Obs.Fold.section ~top info records fold))
      ledger_folds;
    match dot, Obs.Fold.read (module Obs.Coverage) info with
    | Some out, Some cov ->
      Out_channel.with_open_text out (fun oc -> output_string oc (Obs.Coverage.to_dot cov));
      Printf.printf "coverage heat dot written to %s\n" out
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "show" ~exits:(exits [])
       ~doc:"Show a run: manifest, ASCII training curves, eval tables, the \
             per-action reward-attribution table (verified against the \
             episode stream), top schedules with per-pass reward breakdown, \
             the action-distribution drift timeline, watchdog alerts, and \
             decision-space coverage (verified against the step stream). \
             Degrades gracefully on runs predating these ledger files.")
    Term.(const go $ root_arg $ run_pos ()
          $ top_arg ~default:10
              ~doc:"Rows in the attribution, edge and transition tables."
          $ schedules
          $ dot_arg
              ~doc:"Write a heat-annotated ODG rendering to $(docv): visited \
                    edges colour-ramp grey to red by visit count, unvisited \
                    edges dashed (same layout as `posetrl odg --dot`).")

let runs_compare_cmd =
  let base =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE"
           ~doc:"Baseline run id or directory.")
  in
  let cand =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CANDIDATE"
           ~doc:"Candidate run id or directory.")
  in
  let d = Obs.Run.default_thresholds in
  let reward_drop =
    Arg.(value & opt float d.Obs.Run.max_reward_drop_pct
         & info [ "max-reward-drop" ] ~docv:"PCT"
             ~doc:"Regression when final mean reward drops more than $(docv)% vs base.")
  in
  let size_drop =
    Arg.(value & opt float d.Obs.Run.max_size_drop_pts
         & info [ "max-size-drop" ] ~docv:"PTS"
             ~doc:"Regression when a suite's avg size reduction drops more than $(docv) points.")
  in
  let wall_factor =
    Arg.(value & opt float d.Obs.Run.max_wall_factor
         & info [ "max-wall-factor" ] ~docv:"X"
             ~doc:"Regression when candidate wall time exceeds $(docv) times base (0 disables).")
  in
  let go root base cand reward_drop size_drop wall_factor =
    let b = Obs.Run.find ~root base in
    let c = Obs.Run.find ~root cand in
    let thresholds =
      { Obs.Run.max_reward_drop_pct = reward_drop;
        Obs.Run.max_size_drop_pts = size_drop;
        Obs.Run.max_wall_factor = wall_factor }
    in
    let deltas = Obs.Run.compare_runs ~thresholds ~base:b ~cand:c () in
    if deltas = [] then
      Printf.printf "no comparable metrics between %s and %s\n"
        b.Obs.Run.run_id c.Obs.Run.run_id
    else begin
      let t =
        Tbl.create
          ~title:(Printf.sprintf "%s (base) vs %s (candidate)"
                    b.Obs.Run.run_id c.Obs.Run.run_id)
          ~headers:[ "metric"; "base"; "candidate"; "delta"; "status"; "note" ]
          ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Left; Tbl.Left ]
          ()
      in
      List.iter
        (fun (dl : Obs.Run.delta) ->
          let delta =
            match dl.Obs.Run.d_base, dl.Obs.Run.d_cand with
            | Some b, Some c -> Printf.sprintf "%+.3f" (c -. b)
            | _ -> "-"
          in
          Tbl.add_row t
            [ dl.Obs.Run.d_metric;
              fmt_num dl.Obs.Run.d_base;
              fmt_num dl.Obs.Run.d_cand;
              delta;
              (if dl.Obs.Run.d_regressed then "REGRESSED" else "ok");
              dl.Obs.Run.d_note ])
        deltas;
      Tbl.print t
    end;
    (* informational only: attribution and exploration shifts explain a
       reward delta, they never affect the exit code *)
    List.iter
      (fun (module F : Obs.Fold.S) ->
        let read = Obs.Fold.read (module F) in
        print_string (Obs.Fold.shift (module F) ~base:(read b) ~cand:(read c)))
      ledger_folds;
    if Obs.Run.has_regression deltas then begin
      Printf.printf "regression detected\n";
      exit 3
    end
    else Printf.printf "within thresholds\n"
  in
  Cmd.v
    (Cmd.info "compare"
       ~exits:
         (exits
            [ Cmd.Exit.info 3
                ~doc:"when the candidate run regresses past a threshold." ])
       ~doc:"Diff two runs against regression thresholds; exits 3 on regression \
             (usable as a CI gate). Also diffs their per-action reward \
             attribution (attrib.json) and decision-space coverage \
             (coverage.json); these shifts are informational and never \
             fail the comparison")
    Term.(const go $ root_arg $ base $ cand $ reward_drop $ size_drop
          $ wall_factor)

let runs_cmd =
  Cmd.group
    (Cmd.info "runs" ~exits:(exits [])
       ~doc:"The run ledger: list, inspect and compare persisted runs")
    [ runs_list_cmd; runs_show_cmd; runs_compare_cmd ]

(* --- watch (live dashboard) -------------------------------------------------- *)

let watch_cmd =
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECS"
           ~doc:"Redraw period.")
  in
  let once =
    Arg.(value & flag & info [ "once" ]
           ~doc:"Render a single frame and exit (no polling, no screen \
                 clearing; exits 1 if the run does not exist).")
  in
  let go root id interval once =
    let interval = Float.max 0.05 interval in
    let clear () = print_string "\027[H\027[2J" in
    let frame (info : Obs.Run.info) =
      let records, dropped = Obs.Run.read_progress info in
      (* None = run predates the watchdog; the dashboard renders a
         placeholder row for it, not a blank or garbled line *)
      let alerts = Option.map fst (read_alerts info) in
      let coverage = Obs.Fold.read (module Obs.Coverage) info in
      let serve = Obs.Run.read info Obs.Run.Serve in
      Obs.Dashboard.render ~alerts ~coverage ~serve ~id:info.Obs.Run.run_id
        ~manifest:info.Obs.Run.manifest ~records ~dropped ()
    in
    let rec loop () =
      match Obs.Run.find ~root id with
      | exception Failure msg ->
        if once then failwith ("no run to watch: " ^ msg)
        else begin
          clear ();
          Printf.printf "waiting for run %s...\n(%s)\n%!" id msg;
          Unix.sleepf interval;
          loop ()
        end
      | info ->
        if once then print_string (frame info)
        else begin
          clear ();
          print_string (frame info);
          flush stdout;
          match Obs.Runlog.str "status" info.Obs.Run.manifest with
          | Some "running" ->
            Unix.sleepf interval;
            loop ()
          | status ->
            Printf.printf "\nrun %s is %s; watch done\n" info.Obs.Run.run_id
              (Option.value ~default:"finished" status)
        end
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "watch" ~exits:(exits [])
       ~doc:"Live terminal dashboard for a ledger run: tails progress.jsonl \
             and redraws reward/epsilon/loss sparklines and the action \
             histogram until the run leaves 'running'")
    Term.(const go $ root_arg
          $ run_pos
              ~doc:"Run id (under --root) or a run directory path. The run \
                    may not exist yet; watch waits for it." ()
          $ interval $ once)

(* --- odg -------------------------------------------------------------------- *)

let odg_cmd =
  let k = Arg.(value & opt int 8 & info [ "k" ] ~doc:"Critical-node degree threshold.") in
  let walks = Arg.(value & flag & info [ "walks" ] ~doc:"Print the derived sub-sequences.") in
  let go dot k walks =
    let g = Lazy.force O.Graph.default in
    Printf.printf "ODG: %d nodes, %d edges\n" (O.Graph.node_count g) (O.Graph.edge_count g);
    Printf.printf "critical nodes (k >= %d):\n" k;
    List.iter (fun (n, d) -> Printf.printf "  %-16s degree %d\n" n d)
      (O.Graph.critical_nodes ~k g);
    if walks then begin
      let ws = O.Walks.derive ~k g in
      Printf.printf "%d derived sub-sequences:\n" (List.length ws);
      List.iteri
        (fun i w -> Printf.printf "%2d | %s\n" (i + 1) (String.concat " " w))
        ws
    end;
    match dot with
    | Some path ->
      let oc = open_out path in
      output_string oc (O.Graph.to_dot ~k g);
      close_out oc;
      Printf.printf "wrote %s\n" path
    | None -> ()
  in
  Cmd.v (Cmd.info "odg" ~exits:(exits []) ~doc:"Inspect the Oz Dependence Graph")
    Term.(const go $ dot_arg ~doc:"Write a graphviz rendering to $(docv)."
          $ k $ walks)

(* --- list ------------------------------------------------------------------- *)

let list_cmd =
  let what =
    Arg.(value & pos 0 string "passes" & info [] ~docv:"WHAT"
           ~doc:"What to list: passes, benchmarks, oz.")
  in
  let go what =
    match what with
    | "passes" ->
      List.iter
        (fun (p : P.Pass.t) -> Printf.printf "%-28s %s\n" p.P.Pass.name p.P.Pass.description)
        P.Registry.all
    | "benchmarks" ->
      List.iter
        (fun s ->
          Printf.printf "%s:\n" s.W.Suites.suite_name;
          List.iter (fun (n, _) -> Printf.printf "  %s\n" n) s.W.Suites.programs)
        W.Suites.validation_suites
    | "oz" ->
      List.iter (fun p -> Printf.printf "-%s " p) P.Pipelines.oz_sequence;
      print_newline ()
    | w -> failwith ("unknown listing " ^ w)
  in
  Cmd.v
    (Cmd.info "list" ~exits:(exits [])
       ~doc:"List passes, benchmarks or the Oz sequence")
    Term.(const go $ what)

(* --- dump -------------------------------------------------------------------- *)

let dump_cmd =
  let go (_, mk) out =
    let text = Printer.module_to_string (mk ()) in
    match out with
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
    | None -> print_string text
  in
  Cmd.v
    (Cmd.info "dump" ~exits:(exits [])
       ~doc:"Print a bundled benchmark (or a parsed file) as MiniIR text — \
             the wire format `posetrl serve`'s POST /optimize accepts")
    Term.(const go
          $ Arg.required
              (program_pos
                 ~doc:"Benchmark name (e.g. crc32) or path to a textual MiniIR \
                       file.")
          $ output_arg ~doc:"Write to $(docv) instead of stdout."
              Arg.(some string) None)

(* --- serve (optimization-as-a-service daemon) -------------------------------- *)

let serve_cmd =
  let port =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"PORT"
           ~doc:"Listen on 127.0.0.1:$(docv) (0 picks a free port).")
  in
  let weights =
    Arg.(value & opt (some string) None & info [ "weights" ] ~docv:"FILE"
           ~doc:"Weights file saved by `posetrl train`; without it the daemon \
                 serves a fresh seed-0 policy (deterministic, untrained).")
  in
  let cache_mb =
    Arg.(value & opt int 16 & info [ "cache-mb" ] ~docv:"MB"
           ~doc:"Byte bound of the IR-hash result cache (LRU beyond it).")
  in
  let queue =
    Arg.(value & opt positive_int Posetrl_serve.Server.default_queue_cap
         & info [ "queue" ] ~docv:"N"
             ~doc:"Max cache-missing requests admitted per pump; beyond it \
                   clients get 429 + Retry-After (backpressure).")
  in
  let max_body_kb =
    Arg.(value & opt positive_int 1024 & info [ "max-body-kb" ] ~docv:"KB"
           ~doc:"Reject POST bodies larger than $(docv) KiB with a 413.")
  in
  let max_requests =
    Arg.(value & opt (some positive_int) None & info [ "max-requests" ] ~docv:"N"
           ~doc:"Exit after answering $(docv) requests (CI smoke hooks); \
                 default: serve until SIGINT/SIGTERM.")
  in
  let go port weights actions tgt cache_mb queue max_body_kb max_requests
      sanitize session =
    let stop = ref false in
    let handle = Sys.Signal_handle (fun _ -> stop := true) in
    Sys.set_signal Sys.sigint handle;
    Sys.set_signal Sys.sigterm handle;
    let started = Unix.gettimeofday () in
    let work run ~pump:_ =
      let agent = load_agent ?weights actions in
      let engine =
        Posetrl_serve.Engine.create ~cache_bytes:(cache_mb * 1024 * 1024)
          ~sanitize ~agent ~actions ~target:tgt ()
      in
      let srv = ref None in
      let health () =
        let reqs =
          match !srv with Some s -> Posetrl_serve.Server.requests s | None -> 0
        in
        Obs.Json.Obj
          [ ("status", Obs.Json.Str "running");
            ("kind", Obs.Json.Str "serve");
            ("uptime_s", Obs.Json.Float (Unix.gettimeofday () -. started));
            ("requests", Obs.Json.Int reqs);
            ("run",
             match run with
             | Some r -> Obs.Json.Str (Obs.Run.dir r)
             | None -> Obs.Json.Null) ]
      in
      let telemetry = Obs.Httpd.telemetry_handler ~health () in
      let s =
        Posetrl_serve.Server.create ~max_body:(max_body_kb * 1024)
          ~queue_cap:queue ~telemetry ~port ~engine ()
      in
      srv := Some s;
      Obs.Console.info
        "optimization service on http://127.0.0.1:%d  \
         (POST /optimize /optimize/batch; GET /metrics /healthz /serve)\n%!"
        (Posetrl_serve.Server.port s);
      let last_snapshot = ref 0.0 in
      let snapshot () =
        Option.iter
          (fun r -> Obs.Run.write r Obs.Run.Serve (Posetrl_serve.Server.stats_json s))
          run
      in
      Fun.protect
        ~finally:(fun () ->
          snapshot ();
          Posetrl_serve.Server.close s)
        (fun () ->
          let done_ () =
            !stop
            || match max_requests with
               | Some n -> Posetrl_serve.Server.requests s >= n
               | None -> false
          in
          while not (done_ ()) do
            Posetrl_serve.Server.pump s;
            let now = Unix.gettimeofday () in
            if now -. !last_snapshot > 1.0 then begin
              last_snapshot := now;
              snapshot ()
            end;
            try Unix.sleepf 0.005 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done);
      [ ("requests", Obs.Json.Int (Posetrl_serve.Server.requests s));
        ("stats", Posetrl_serve.Server.stats_json s) ]
    in
    with_session session ~kind:"serve"
      ~meta:
        [ ("action_space", Obs.Json.Str actions.O.Action_space.name);
          ("target", Obs.Json.Str tgt.CG.Target.name);
          ("weights",
           match weights with Some w -> Obs.Json.Str w | None -> Obs.Json.Null) ]
      work
      (fun _ result -> result)
  in
  Cmd.v
    (Cmd.info "serve" ~exits:(exits [ exit_sanitizer ])
       ~doc:"Optimization-as-a-service daemon: POST MiniIR to /optimize and \
             get back optimized IR, the predicted pass schedule and \
             size/throughput deltas as JSON, with an IR-hash LRU result \
             cache, admission sanitizing (400 + lint diagnostics), bounded \
             queueing (429 + Retry-After) and batched policy inference \
             across concurrent requests")
    Term.(const go $ port $ weights $ space_arg $ target_arg
          $ cache_mb $ queue $ max_body_kb $ max_requests
          $ sanitize_arg ~default:A.Sanitize.Ssa
              ~doc:"Sanitizer level for admission and every rollout pass \
                    application: off, structural, ssa (default) or equiv \
                    (translation validation of each pass the policy applies)."
          $ session_term)

(* --- validate --------------------------------------------------------------

   Translation-validate pipelines over the bundled suite (or one
   program): every pass application is checked at the requested
   sanitizer level (default equiv — differential simulation against the
   pass input). The CI acceptance gate for the Equiv tier. *)

let validate_cmd =
  (* -O takes `all` (the default) on top of the six levels *)
  let levels =
    let all = P.Pipelines.[ O0; O1; O2; O3; Os; Oz ] in
    let parse = function
      | "all" -> Ok all
      | s -> Result.map (fun l -> [ l ]) (Arg.conv_parser level_conv s)
    in
    let print ppf = function
      | [ l ] -> Arg.conv_printer level_conv ppf l
      | _ -> Format.pp_print_string ppf "all"
    in
    level_arg (Arg.conv (parse, print)) all
      ~doc:"Pipeline level to validate (O0 O1 O2 O3 Os Oz) or `all`."
  in
  let go program levels sanitize trace metrics =
    let programs =
      match program with
      | Some p -> [ p ]
      | None ->
        List.concat_map (fun s -> s.W.Suites.programs) W.Suites.validation_suites
    in
    let failures = ref 0 and checked = ref 0 in
    with_obs ~trace ~metrics (fun () ->
        List.iter
          (fun l ->
            List.iter
              (fun (name, mk) ->
                incr checked;
                match P.Pass_manager.run_level ~sanitize l (mk ()) with
                | _ -> ()
                | exception (A.Sanitize.Failed { pass; errors; _ } as e) ->
                  incr failures;
                  Printf.printf "FAIL  %-22s %-3s pass %s (%d error%s)%s\n%!"
                    name
                    (P.Pipelines.level_to_string l)
                    pass (List.length errors)
                    (plural (List.length errors))
                    (match write_repro ~dir:(repro_dir_of_run None) e with
                     | Some p -> "  repro " ^ p
                     | None -> ""))
              programs;
            Printf.printf "  -%s: %d program(s) validated\n%!"
              (P.Pipelines.level_to_string l)
              (List.length programs))
          levels);
    Printf.printf "validate: %d pipeline run(s) at --sanitize %s, %d failure(s)\n"
      !checked
      (A.Sanitize.level_to_string sanitize)
      !failures;
    if !failures > 0 then exit 3
  in
  Cmd.v
    (Cmd.info "validate"
       ~exits:(exits [ Cmd.Exit.info 3 ~doc:"when any pipeline run fails validation." ])
       ~doc:"Translation-validate optimization pipelines over the bundled \
             suite: every pass application is differentially simulated \
             against its input (--sanitize equiv, the default) or checked \
             at a lower sanitizer tier")
    Term.(const go
          $ Arg.value
              (program_pos
                 ~doc:"Benchmark name or path to a textual MiniIR file \
                       (default: every program of the bundled suites).")
          $ levels
          $ sanitize_arg ~default:A.Sanitize.Equiv
              ~doc:"Sanitizer level to validate at (default equiv)."
          $ trace_arg $ metrics_arg)

let lint_cmd =
  let suite =
    Arg.(value & flag & info [ "suite" ]
           ~doc:"Lint every program of the bundled validation suites.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the findings as a JSON document instead of a table.")
  in
  let fail_on =
    let print ppf sev = Format.pp_print_string ppf (A.Lint.severity_to_string sev) in
    Arg.(value
         & opt (some (conv' (A.Lint.severity_of_string, print))) None
         & info [ "fail-on" ] ~docv:"SEVERITY"
             ~doc:"Exit 4 when any finding of severity $(docv) (error, \
                   warning or info) or higher is present — the CI gate.")
  in
  let go program suite level json threshold trace metrics =
    let programs =
      if suite then
        List.concat_map (fun s -> s.W.Suites.programs) W.Suites.validation_suites
      else
        match program with
        | Some p -> [ p ]
        | None -> failwith "lint: give a PROGRAM or --suite"
    in
    let reports =
      with_obs ~trace ~metrics (fun () ->
          List.map
            (fun (name, mk) ->
              let m = mk () in
              let m =
                Option.fold ~none:m ~some:(fun l -> P.Pass_manager.run_level l m) level
              in
              (name, A.Lint.lint_module m))
            programs)
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("kind", Obs.Json.Str "lint-run");
                ("level",
                 match level with
                 | Some l -> Obs.Json.Str (P.Pipelines.level_to_string l)
                 | None -> Obs.Json.Null);
                ("modules",
                 Obs.Json.Arr
                   (List.map (fun (n, fs) -> A.Lint.to_json ~name:n fs) reports)) ]))
    else begin
      let t =
        Tbl.create ~title:"posetrl lint"
          ~headers:[ "module"; "severity"; "rule"; "location"; "message" ]
          ~aligns:[ Tbl.Left; Tbl.Left; Tbl.Left; Tbl.Left; Tbl.Left ]
          ()
      in
      let total = ref 0 in
      List.iter
        (fun (name, fs) ->
          List.iter
            (fun (f : A.Lint.finding) ->
              incr total;
              Tbl.add_row t
                [ name;
                  A.Lint.severity_to_string f.A.Lint.severity;
                  f.A.Lint.rule;
                  (f.A.Lint.func
                   ^ match f.A.Lint.block with Some b -> "/" ^ b | None -> "");
                  f.A.Lint.message ])
            fs)
        reports;
      if !total > 0 then Tbl.print t;
      let all = List.concat_map snd reports in
      Printf.printf "%d module%s linted: %d error%s, %d warning%s, %d info\n"
        (List.length reports)
        (plural (List.length reports))
        (A.Lint.count A.Lint.Error all)
        (plural (A.Lint.count A.Lint.Error all))
        (A.Lint.count A.Lint.Warning all)
        (plural (A.Lint.count A.Lint.Warning all))
        (A.Lint.count A.Lint.Info all)
    end;
    match threshold with
    | Some sev when A.Lint.reaches sev (List.concat_map snd reports) ->
      Printf.eprintf "lint: findings at or above --fail-on %s\n"
        (A.Lint.severity_to_string sev);
      exit 4
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "lint"
       ~exits:
         (exits
            [ Cmd.Exit.info 4
                ~doc:"when a finding reaches the $(b,--fail-on) severity." ])
       ~doc:"Static findings over a module or the bundled suites: verifier \
             and SSA dominance errors, attribute contradictions, dead \
             stores, unreachable blocks, dead code")
    Term.(const go
          $ Arg.value
              (program_pos
                 ~doc:"Benchmark name or path to a textual MiniIR file (omit \
                       with --suite).")
          $ suite
          $ level_arg (Arg.some level_conv) None
              ~doc:"Run pipeline $(docv) (O0 O1 O2 O3 Os Oz) before linting — \
                    `--suite -O Oz --fail-on error` is the CI gate over the \
                    optimized workloads."
          $ json $ fail_on $ trace_arg $ metrics_arg)

let () =
  let doc = "POSET-RL: phase ordering for size and execution time with RL" in
  let info =
    Cmd.info "posetrl" ~version:"1.0.0" ~doc
      ~exits:
        (exits
           [ Cmd.Exit.info 2
               ~doc:"when a sanitizer check fails ($(b,opt), $(b,train), \
                     $(b,eval), $(b,serve)).";
             Cmd.Exit.info 3
               ~doc:"when $(b,validate) finds a failure or $(b,runs compare) \
                     a regression.";
             Cmd.Exit.info 4
               ~doc:"when $(b,lint) has a finding at its $(b,--fail-on) severity." ])
  in
  match
    Cmd.eval ~catch:false
      (Cmd.group info
         [ opt_cmd; run_cmd; train_cmd; eval_cmd; serve_cmd; lint_cmd;
           validate_cmd; report_cmd; runs_cmd; watch_cmd; odg_cmd; list_cmd;
           dump_cmd ])
  with
  | code -> exit code
  | exception (Failure msg | Sys_error msg) ->
    Printf.eprintf "posetrl: error: %s\n" msg;
    exit 1
  | exception (A.Sanitize.Failed _ as e) ->
    Printf.eprintf "posetrl: error: %s\n" (Printexc.to_string e);
    exit 2
