(* Shared pieces of the benchmark: the fixed configuration every
   workload runs under, the fixed agent, latency statistics, and the
   result record the workloads hand back to [Main]. *)

module C = Posetrl_core
module Rl = Posetrl_rl
module Json = Posetrl_obs.Json

let target = Posetrl_codegen.Target.x86_64
let actions = Posetrl_odg.Action_space.odg
let now = Unix.gettimeofday

(* --- results ---------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;         (* every end-to-end or per-layer metric *)
  rows : (string * Json.t) list; (* per-row tables, by table name *)
  notes : (string * Json.t) list;(* provenance this workload adds *)
  failures : string list;        (* first few check failures, for the log *)
}

(* A failed-check log that keeps the first few messages. *)
type checks = { mutable n_failed : int; mutable msgs : string list }

let checks () = { n_failed = 0; msgs = [] }

let fail (c : checks) fmt =
  Printf.ksprintf
    (fun s ->
      c.n_failed <- c.n_failed + 1;
      if List.length c.msgs < 10 then c.msgs <- s :: c.msgs)
    fmt

(* --- statistics ------------------------------------------------------------- *)

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, p in [0, 100]. *)
let percentile (a : float array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median xs = percentile (sorted xs) 50.0

(* The highest percentile of the ladder that still has at least ten
   samples above it. *)
let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_pct (n : int) : float =
  match
    List.find_opt
      (fun p ->
        n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) >= 10)
      tail_ladder
  with
  | Some p -> p
  | None -> 50.0

(* p50 and tail of a latency sample (seconds, speed-normalized) as ms
   metrics, with the tail's percentile and the sample count beside them,
   and the same two statistics of the raw wall latencies. *)
let latency_metrics ?(prefix = "") ~(raw : float array) (norm : float array) :
    metric list =
  let a = sorted norm and r = sorted raw in
  let n = Array.length a in
  let tp = tail_pct n in
  [ m (prefix ^ "p50_ms") "ms" (percentile a 50.0 *. 1e3);
    m (prefix ^ "tail_ms") "ms" (percentile a tp *. 1e3);
    m (prefix ^ "tail_pct") "pct" tp;
    m (prefix ^ "n") "count" (float_of_int n);
    m (prefix ^ "wall_p50_ms") "ms" (percentile r 50.0 *. 1e3);
    m (prefix ^ "wall_tail_ms") "ms" (percentile r tp *. 1e3) ]

(* ops_per_s over speed-normalized time, and over raw wall time. *)
let throughput_metrics ~ops ~(raw_s : float) ~(norm_s : float) : metric list =
  [ m "ops_per_s" "op/s" (float_of_int ops /. norm_s);
    m "wall_ops_per_s" "op/s" (float_of_int ops /. raw_s);
    m "speed_factor" "ratio" (raw_s /. norm_s) ]

let sum = Array.fold_left ( +. ) 0.0

let words_mb (w : int) : float = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

(* The workload's peak major heap, from the speed samples taken between
   its ops, and the whole process's high-water mark beside it (set-up and
   the traced re-drive included), which is context, not a gate. *)
let heap_metrics (samples : Speed.t list) : metric list =
  [ m "peak_heap_mb" "MB"
      (words_mb (List.fold_left (fun acc (s : Speed.t) -> max acc s.Speed.heap_words) 0 samples));
    m "process_peak_heap_mb" "MB" (words_mb (Gc.quick_stat ()).Gc.top_heap_words) ]

(* Set the workload up [reps] times, each timed by [Speed.timed_laps]
   ([f] calls [lap] between the phases of a long set-up, so it is
   normalized piece by piece). A set-up's result is handed to [dispose]
   and dropped before the next one starts, so only the last stays live.
   Returns it and the set-up metrics: the median normalized duration as
   [setup_s], the median raw one beside it.

   No collection is forced between or after the set-ups: on OCaml 5.1
   every [Gc.full_major] leaves the major GC pacing behind, and the heap
   of the work that follows grows with their number (150 calls took the
   train workload's peak from 47 to 910 MB). *)
let timed_setup ?(dispose = ignore) ~(reps : int) (f : lap:(unit -> unit) -> 'a) :
    'a * metric list =
  let raw = Array.make reps 0.0 and norm = Array.make reps 0.0 in
  let keep = ref None in
  for i = 0 to reps - 1 do
    Option.iter dispose !keep;
    keep := None;
    let v, r, n = Speed.timed_laps (fun lap -> f ~lap) in
    raw.(i) <- r;
    norm.(i) <- n;
    keep := Some v
  done;
  ( Option.get !keep,
    [ m "setup_s" "s" (median norm); m "wall_setup_s" "s" (median raw) ] )

(* --- the fixed agent -------------------------------------------------------- *)

let agent_hp = { C.Trainer.fast with total_steps = 300; snapshot_every = 0 }
let agent_seed = 1

(* The agent eval and serve score with: a short training run under a
   fixed seed on a small corpus, independent of the workload seed, so
   every run of every seed uses the same weights. [lap] is called every
   25 training steps (see [timed_setup]). *)
let fixed_agent ~(lap : unit -> unit) : Rl.Dqn.t =
  let corpus = Posetrl_workloads.Suites.training_corpus ~n:16 ~seed:agent_seed () in
  (C.Trainer.train ~hp:agent_hp ~seed:agent_seed ~corpus ~actions ~target
     ~on_step:(fun step -> if step mod 25 = 0 then lap ())
     ())
    .C.Trainer.agent

let weights_digest (a : Rl.Dqn.t) : string =
  let b = Buffer.create 65536 in
  Array.iter
    (fun (l : Posetrl_nn.Layer.t) ->
      Array.iter (fun w -> Printf.bprintf b "%h " w) l.Posetrl_nn.Layer.w.Posetrl_nn.Matrix.data;
      Array.iter (fun w -> Printf.bprintf b "%h " w) l.Posetrl_nn.Layer.b)
    a.Rl.Dqn.online.Posetrl_nn.Mlp.layers;
  Digest.to_hex (Digest.string (Buffer.contents b))
