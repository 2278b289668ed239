(* Tests for the profiling layer (Posetrl_obs.Prof): self-vs-total time
   over nested span streams under a fake clock, folded-stack goldens,
   eval traces whose roots are the evaluated programs, GC-gauge sampling
   (including the trainer tick), pool-utilization aggregates, and the
   atomic counter/histogram updates under concurrent domains. *)

module Obs = Posetrl_obs
module M = Obs.Metrics
module Span = Obs.Span
module Event = Obs.Event
module Prof = Obs.Prof
module Pool = Posetrl_support.Pool
module C = Posetrl_core
module O = Posetrl_odg
module CG = Posetrl_codegen
module W = Posetrl_workloads

let x86 = CG.Target.x86_64
let check_float = Alcotest.(check (float 1e-9))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let ev ?(attrs = []) ?(depth = 0) ?(tid = 0) ?(t = 0.0) ~dur ~self name =
  { Event.name; attrs; t_start = t; dur; self; depth; tid }

(* --- hotspot attribution ------------------------------------------------------ *)

let test_collect_self_time () =
  (* live collection through a sink, exact times via the fake clock:
     outer spends 12ms around a 5ms child, three times over *)
  Obs.Clock.with_fake (fun advance ->
      let (), p =
        Prof.collect (fun () ->
            for _ = 1 to 3 do
              Span.with_ "outer" (fun _ ->
                  advance 0.010;
                  Span.with_ "inner" (fun _ -> advance 0.005);
                  advance 0.002)
            done;
            Span.with_ "solo" (fun _ -> advance 0.001))
      in
      Alcotest.(check bool) "sink uninstalled" false (Span.enabled ());
      Alcotest.(check int) "events" 7 (Prof.events p);
      check_float "outer self = dur - children" 0.036 (Prof.self_of p "outer");
      check_float "inner self" 0.015 (Prof.self_of p "inner");
      check_float "total self = wall" 0.052 (Prof.total_self p);
      (match Prof.hotspots p with
       | [ o; i; s ] ->
         Alcotest.(check string) "ranked by self" "outer" o.Prof.e_name;
         Alcotest.(check string) "then inner" "inner" i.Prof.e_name;
         Alcotest.(check string) "then solo" "solo" s.Prof.e_name;
         Alcotest.(check int) "outer count" 3 o.Prof.e_count;
         check_float "outer total keeps child time" 0.051 o.Prof.e_total;
         check_float "outer p50 per-event self" 0.012 o.Prof.e_p50
       | es -> Alcotest.failf "expected 3 entries, got %d" (List.length es));
      (* the same run as folded stacks: self-times, child nested under parent *)
      Alcotest.(check string) "folded"
        "outer 36000\nouter;inner 15000\nsolo 1000\n" (Prof.folded p))

let test_hotspot_aggregates () =
  (* offline replay: counts, sums and quantiles from hand-built events *)
  let p =
    Prof.of_events
      [ ev ~dur:0.010 ~self:0.004 "a";
        ev ~dur:0.020 ~self:0.006 "a";
        ev ~dur:0.001 ~self:0.001 "b" ]
  in
  match Prof.hotspots p with
  | [ a; b ] ->
    Alcotest.(check string) "rank 1" "a" a.Prof.e_name;
    Alcotest.(check int) "count" 2 a.Prof.e_count;
    check_float "total" 0.030 a.Prof.e_total;
    check_float "self" 0.010 a.Prof.e_self;
    check_float "p50" 0.004 a.Prof.e_p50;
    check_float "p99" 0.006 a.Prof.e_p99;
    Alcotest.(check string) "rank 2" "b" b.Prof.e_name
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

let test_quantiles () =
  (* nearest-rank over 100 distinct per-event self times *)
  let evs =
    List.init 100 (fun i ->
        let v = float_of_int (i + 1) /. 100.0 in
        ev ~dur:v ~self:v "q")
  in
  match Prof.hotspots (Prof.of_events evs) with
  | [ e ] ->
    check_float "p50" 0.50 e.Prof.e_p50;
    check_float "p99" 0.99 e.Prof.e_p99
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

let test_render_smoke () =
  let p = Prof.of_events [ ev ~dur:0.01 ~self:0.01 "posetrl.x" ] in
  let s = Prof.render ~top:5 p in
  Alcotest.(check bool) "row rendered" true (contains s "posetrl.x");
  Alcotest.(check bool) "totals line" true (contains s "1 events, 1 span names");
  let q =
    Prof.of_events
      [ ev ~dur:0.002 ~self:0.002 "posetrl.x";
        ev ~dur:0.003 ~self:0.003 "posetrl.only_b" ]
  in
  let cmp = Prof.render_compare ~a:"j1.jsonl" ~b:"j4.jsonl" p q in
  Alcotest.(check bool) "compare title carries both labels" true
    (contains cmp "self-time: A = j1.jsonl vs B = j4.jsonl");
  Alcotest.(check bool) "A/B ratio column" true (contains cmp "5.00");
  Alcotest.(check bool) "span only in B reads 0.00 on A" true
    (contains cmp "| posetrl.only_b |      0.00 |      3.00 | 0.00 |");
  Alcotest.(check bool) "totals row" true
    (contains cmp "| (total)        |     10.00 |      5.00 | 2.00 |")

(* --- folded-stack export ------------------------------------------------------ *)

let test_folded_golden () =
  (* completion order: children strictly before their parent *)
  let p =
    Prof.of_events
      [ ev ~depth:1 ~dur:0.005 ~self:0.005 "inner";
        ev ~dur:0.017 ~self:0.012 "outer";
        ev ~depth:1 ~dur:0.005 ~self:0.005 "inner";
        ev ~dur:0.017 ~self:0.012 "outer";
        ev ~dur:0.001 ~self:0.001 "solo";
        ev ~dur:0.0 ~self:0.0 "zero" (* 0µs stacks are dropped *) ]
  in
  let golden = "outer 24000\nouter;inner 10000\nsolo 1000\n" in
  Alcotest.(check string) "golden" golden (Prof.folded p);
  let path = Filename.temp_file "posetrl_prof" ".folded" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Prof.write_folded ~path p;
      Alcotest.(check string) "write_folded same bytes" golden (read_file path))

let test_folded_multi_domain () =
  (* two emitting domains: stacks get a main/domain-N root frame and
     the tid-3 task is not nested under the main-domain batch *)
  let p =
    Prof.of_events
      [ ev ~depth:1 ~dur:0.002 ~self:0.002 "task";
        ev ~dur:0.010 ~self:0.008 "batch";
        ev ~tid:3 ~dur:0.004 ~self:0.004 "task" ]
  in
  Alcotest.(check string) "tid-rooted stacks"
    "domain-3;task 4000\nmain;batch 8000\nmain;batch;task 2000\n"
    (Prof.folded p)

(* --- eval traces ---------------------------------------------------------------- *)

let test_eval_program_spans () =
  (* each evaluated program is one posetrl.eval.program span, opened on
     the domain that evaluates it, and nothing else is a root: a
     domain's self-times then add up to its traced wall time, pooled
     or not *)
  let programs = List.filteri (fun i _ -> i < 3) W.Mibench.all in
  let names = List.sort compare (List.map fst programs) in
  let n = List.length programs in
  let actions = O.Action_space.odg in
  let agent =
    Posetrl_rl.Dqn.create (Posetrl_support.Rng.create 0)
      ~state_dim:C.Environment.state_dim ~hidden:[ 32 ]
      ~n_actions:(O.Action_space.n_actions actions)
  in
  let check label ?pool () =
    let events = ref [] in
    let capture =
      { Obs.Sink.emit = (fun e -> events := e :: !events); close = ignore }
    in
    let _, p =
      Prof.collect (fun () ->
          Span.with_sink capture (fun () ->
              C.Evaluate.evaluate_programs ?pool ~agent ~actions ~target:x86
                programs))
    in
    let count name =
      match List.find_opt (fun e -> e.Prof.e_name = name) (Prof.hotspots p) with
      | Some e -> e.Prof.e_count
      | None -> 0
    in
    Alcotest.(check int) (label ^ ": one program span per program") n
      (count "posetrl.eval.program");
    Alcotest.(check int) (label ^ ": two interpreter runs per program") (2 * n)
      (count "posetrl.interp.run");
    let roots = List.filter (fun e -> e.Event.depth = 0) !events in
    List.iter
      (fun e ->
        Alcotest.(check string) (label ^ ": every root is a program")
          "posetrl.eval.program" e.Event.name)
      roots;
    Alcotest.(check (list string)) (label ^ ": program attrs") names
      (List.sort compare
         (List.filter_map (fun e -> Event.attr_string e "program") roots));
    (* per domain, Σ self over all events = Σ dur of its roots *)
    List.iter
      (fun tid ->
        let sum f l =
          List.fold_left (fun a e -> if e.Event.tid = tid then a +. f e else a) 0.0 l
        in
        Alcotest.(check (float 1e-6)) (label ^ ": self adds up to root time")
          (sum (fun e -> e.Event.dur) roots)
          (sum (fun e -> e.Event.self) !events))
      (List.sort_uniq compare (List.map (fun e -> e.Event.tid) !events));
    roots
  in
  let main = (Domain.self () :> int) in
  let seq = check "sequential" () in
  Alcotest.(check bool) "sequential programs on the calling domain" true
    (List.for_all (fun e -> e.Event.tid = main) seq);
  let par = Pool.with_pool ~jobs:2 (fun pool -> check "2-domain pool" ~pool ()) in
  Alcotest.(check bool) "pooled programs on worker domains" true
    (List.for_all (fun e -> e.Event.tid <> main) par)

(* --- GC telemetry -------------------------------------------------------------- *)

let test_sample_gc_gauges () =
  let r = M.create () in
  let s = Prof.sample_gc ~r () in
  Alcotest.(check bool) "minor collections happened" true (s.Prof.gs_minor > 0);
  (match M.value ~r "posetrl.gc.minor_collections" with
   | Some v -> check_float "gauge mirrors sample" (float_of_int s.Prof.gs_minor) v
   | None -> Alcotest.fail "posetrl.gc.minor_collections missing");
  ignore (Sys.opaque_identity (Array.make 50_000 0.0));
  let s2 = Prof.sample_gc ~r () in
  Alcotest.(check bool) "alloc rate non-negative" true
    (s2.Prof.gs_alloc_mb_s >= 0.0);
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (M.value ~r name <> None))
    [ "posetrl.gc.major_collections"; "posetrl.gc.promoted_words";
      "posetrl.gc.heap_words"; "posetrl.gc.alloc_rate_mb_s" ]

let test_train_gc_smoke () =
  (* the trainer tick (every 200 steps) samples GC into the global
     registry; a fast 240-step run must leave the gauges set *)
  let corpus = W.Genprog.corpus ~n:8 () in
  let hp =
    { C.Trainer.fast with
      C.Trainer.total_steps = 240;
      C.Trainer.warmup_steps = 32;
      C.Trainer.target_sync_every = 60 }
  in
  ignore
    (C.Trainer.train ~hp ~seed:5 ~corpus ~actions:O.Action_space.manual
       ~target:x86 ());
  match M.value "posetrl.gc.minor_collections" with
  | Some v -> Alcotest.(check bool) "sampled on the tick" true (v > 0.0)
  | None -> Alcotest.fail "posetrl.gc.minor_collections not set by trainer"

(* --- pool utilization --------------------------------------------------------- *)

let test_pool_util_deterministic () =
  (* hand-built batch: 2 workers over a 1s wall, 3 tasks *)
  let timings =
    [| { Pool.t_start = 0.0; t_dur = 0.5 };
       { Pool.t_start = 0.1; t_dur = 0.5 };
       { Pool.t_start = 0.6; t_dur = 0.4 } |]
  in
  let u = Prof.pool_util ~jobs:2 ~t0:0.0 ~t1:1.0 timings in
  Alcotest.(check int) "jobs" 2 u.Prof.pu_jobs;
  Alcotest.(check int) "tasks" 3 u.Prof.pu_tasks;
  check_float "busy = 1.4 / (2 x 1.0)" 0.7 u.Prof.pu_busy_frac;
  check_float "queue mean over all tasks" (0.7 /. 3.0) u.Prof.pu_queue_mean;
  check_float "dispatch = mean of first wave" 0.05 u.Prof.pu_dispatch_s;
  (* note_pool_batch publishes the same numbers to metrics *)
  let r = M.create () in
  let u' = Prof.note_pool_batch ~r ~jobs:2 ~t0:0.0 ~t1:1.0 timings in
  check_float "same aggregate" u.Prof.pu_busy_frac u'.Prof.pu_busy_frac;
  check_float "busy gauge" 0.7 (Option.get (M.value ~r "posetrl.pool.busy_frac"));
  check_float "queue gauge" (0.7 /. 3.0)
    (Option.get (M.value ~r "posetrl.pool.queue_wait_mean_s"));
  check_float "dispatch histogram sums all waits" 0.7
    (Option.get (M.sum ~r "posetrl.pool.dispatch_s"));
  let row =
    List.find
      (fun row -> row.M.row_name = "posetrl.pool.dispatch_s")
      (M.snapshot ~r ())
  in
  Alcotest.(check int) "one observation per task" 3 row.M.row_count

let test_pool_util_live_batch () =
  (* a real Pool.map_timed batch: the aggregate stays inside its
     envelope *)
  Pool.with_pool ~jobs:2 (fun p ->
      let xs = Array.init 8 (fun i -> i) in
      let t0 = Unix.gettimeofday () in
      let _ys, timings =
        Pool.map_timed p
          (fun i ->
            let acc = ref 0.0 in
            for k = 1 to 50_000 do
              acc := !acc +. float_of_int (k land i)
            done;
            !acc)
          xs
      in
      let t1 = Unix.gettimeofday () in
      let u = Prof.pool_util ~jobs:2 ~t0 ~t1 timings in
      Alcotest.(check int) "tasks" 8 u.Prof.pu_tasks;
      Alcotest.(check bool) "busy fraction in (0, 1]" true
        (u.Prof.pu_busy_frac > 0.0 && u.Prof.pu_busy_frac <= 1.0);
      Alcotest.(check bool) "dispatch <= overall queue mean" true
        (u.Prof.pu_dispatch_s <= u.Prof.pu_queue_mean +. 1e-12))

(* --- metric updates under concurrent domains ---------------------------------- *)

let test_metrics_domain_safety () =
  (* the lock-free-update fix: atomic counters lose no increments and
     histogram rows stay internally consistent under 4 domains *)
  let r = M.create () in
  let c = M.counter ~r "posetrl.test.atomic" in
  let h = M.histogram ~r "posetrl.test.hist" in
  let worker () =
    for _ = 1 to 25_000 do
      M.inc c
    done;
    for _ = 1 to 10_000 do
      M.observe h 0.5
    done
  in
  let ds = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join ds;
  check_float "no lost increments" 100_000.0
    (Option.get (M.value ~r "posetrl.test.atomic"));
  check_float "histogram sum exact" 20_000.0
    (Option.get (M.sum ~r "posetrl.test.hist"));
  let row =
    List.find (fun row -> row.M.row_name = "posetrl.test.hist") (M.snapshot ~r ())
  in
  Alcotest.(check int) "observation count" 40_000 row.M.row_count;
  Alcotest.(check int) "bucket counts agree with count" 40_000
    (List.fold_left (fun acc (_, n) -> acc + n) 0 row.M.row_buckets)

let suite =
  [ Alcotest.test_case "collect self vs total time" `Quick test_collect_self_time;
    Alcotest.test_case "hotspot aggregates" `Quick test_hotspot_aggregates;
    Alcotest.test_case "quantiles" `Quick test_quantiles;
    Alcotest.test_case "render smoke" `Quick test_render_smoke;
    Alcotest.test_case "folded golden" `Quick test_folded_golden;
    Alcotest.test_case "folded multi-domain" `Quick test_folded_multi_domain;
    Alcotest.test_case "eval program spans" `Quick test_eval_program_spans;
    Alcotest.test_case "gc sample gauges" `Quick test_sample_gc_gauges;
    Alcotest.test_case "train gc smoke" `Slow test_train_gc_smoke;
    Alcotest.test_case "pool util deterministic" `Quick test_pool_util_deterministic;
    Alcotest.test_case "pool util live batch" `Quick test_pool_util_live_batch;
    Alcotest.test_case "metrics under domains" `Quick test_metrics_domain_safety ]
