(* Live-run dashboard renderer. Pure: records in, one frame out — the
   CLI owns the polling loop and the screen clearing, which keeps this
   testable without a terminal. *)

open Posetrl_support

(* Per-action selection counts over the ["episode"] records, keyed by
   action id: the one count behind the histogram and the drift windows. *)
let action_counts (records : Json.t list) : (int, int) Hashtbl.t =
  let counts = Hashtbl.create 37 in
  List.iter
    (fun r ->
      if Runlog.str "kind" r = Some "episode" then
        List.iter
          (fun a ->
            Hashtbl.replace counts a
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts a)))
          (Runlog.episode_actions r))
    records;
  counts

let action_histogram (records : Json.t list) : (int * int) list =
  Hashtbl.fold (fun a n acc -> (a, n) :: acc) (action_counts records) []
  |> List.sort (fun (a1, n1) (a2, n2) -> compare (n2, a1) (n1, a2))

let last_of (xs : (float * float) list) : float option =
  match List.rev xs with (_, y) :: _ -> Some y | [] -> None

let fmt_opt fmt = function Some v -> Printf.sprintf fmt v | None -> "-"

let header ~(id : string) ~(manifest : Json.t) : string =
  let get k = Option.value ~default:"?" (Runlog.str k manifest) in
  Printf.sprintf "run %s  [%s, %s]\n" id (get "kind") (get "status")

let curves (records : Json.t list) : string =
  let buf = Buffer.create 512 in
  let curve label kind y =
    match Runlog.series ~kind ~x:"step" ~y records with
    | [] -> ()
    | pts ->
      let ys = List.map snd pts in
      Printf.bprintf buf "%-13s n=%-5d last %10.3f  min %10.3f  max %10.3f  %s\n"
        label (List.length ys)
        (List.nth ys (List.length ys - 1))
        (Stats.minimum ys) (Stats.maximum ys)
        (Stats.sparkline ys)
  in
  curve "reward" "episode" "reward";
  curve "r_binsize" "episode" "r_binsize";
  curve "r_throughput" "episode" "r_throughput";
  curve "size gain %" "episode" "size_gain_pct";
  curve "epsilon" "tick" "epsilon";
  curve "loss" "tick" "loss";
  Buffer.contents buf

let render ?(alerts : Health.alert list option = None)
    ?(coverage : Coverage.t option = None) ?(serve : Json.t option = None)
    ~(id : string) ~(manifest : Json.t) ~(records : Json.t list)
    ~(dropped : int) () : string =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf (header ~id ~manifest);
  let series kind y = Runlog.series ~kind ~x:"step" ~y records in
  let ticks_step = series "tick" "epsilon" in
  let last_tick key = last_of (series "tick" key) in
  (match List.rev ticks_step with
   | (step, eps) :: _ ->
     add "step %-7.0f episode %-6s eps %.3f  mean-reward %s  loss %s\n" step
       (fmt_opt "%.0f" (last_of (series "tick" "episode")))
       eps
       (fmt_opt "%.3f" (last_tick "mean_reward"))
       (fmt_opt "%.4f" (last_tick "loss"))
   | [] -> add "(no progress records yet)\n");
  (* GC row: present once ticks carry Prof.sample_gc fields *)
  (match last_tick "gc_minor" with
   | Some minor ->
     add "gc   minor %-8.0f major %-6s heap %s MB  alloc %s MB/s\n" minor
       (fmt_opt "%.0f" (last_tick "gc_major"))
       (fmt_opt "%.1f" (last_tick "gc_heap_mb"))
       (fmt_opt "%.1f" (last_tick "gc_alloc_mb_s"))
   | None -> ());
  if dropped > 0 then
    add "(%d torn progress line%s skipped)\n" dropped
      (if dropped = 1 then "" else "s");
  (* Watchdog row. Three states, rendered distinctly so old ledgers are
     never mistaken for healthy ones:
       None    — run predates the watchdog, no alerts file to read;
       Some [] — alerts file present and empty: healthy;
       Some l  — alerts fired: red rows, newest-capped at 5. *)
  (match alerts with
   | None -> add "alerts (not recorded by this run)\n"
   | Some [] -> add "alerts none\n"
   | Some fired ->
     let n = List.length fired in
     add "alerts \027[31m%d fired\027[0m%s\n" n
       (if n > 5 then " (last 5 shown)" else "");
     List.iteri
       (fun i (a : Health.alert) ->
         if i >= n - 5 then
           add "  \027[31m! %-16s step %-8d %s\027[0m\n" a.a_rule a.a_step
             a.a_message)
       fired);
  (* Coverage row: the run's coverage table (two states — coverage.json
     is absent on pre-coverage ledgers). *)
  (match coverage with
   | None -> add "coverage (not recorded by this run)\n"
   | Some cov ->
     add "coverage edges %d/%d (%.1f%%)  entropy %.2f bits  nodes %d/%d\n"
       (Coverage.edges_visited cov) (Coverage.edge_count cov)
       (Coverage.edge_pct cov) (Coverage.entropy cov)
       (Coverage.nodes_visited cov) (Coverage.node_count cov));
  (* Serve row: only present on runs that wrote serve.json (the
     optimization daemon) — train/eval frames are unchanged. *)
  (match serve with
   | None -> ()
   | Some doc ->
     let n k = Runlog.num k doc in
     add "serve reqs %s  hits %s%%  queue %s  p50 %s ms  p99 %s ms  rejected %s\n"
       (fmt_opt "%.0f" (n "requests"))
       (fmt_opt "%.1f" (n "cache_hit_pct"))
       (fmt_opt "%.0f" (n "queue_depth"))
       (fmt_opt "%.2f" (Option.map (fun v -> v *. 1e3) (n "latency_p50_s")))
       (fmt_opt "%.2f" (Option.map (fun v -> v *. 1e3) (n "latency_p99_s")))
       (fmt_opt "%.0f" (n "rejected")));
  Buffer.add_string buf (curves records);
  (match action_histogram records with
   | [] -> ()
   | hist ->
     add "\naction selections (episodes so far):\n";
     let max_n = List.fold_left (fun m (_, n) -> max m n) 1 hist in
     List.iteri
       (fun i (action, n) ->
         (* cap the board at 20 rows so huge action spaces stay readable *)
         if i < 20 then
           add "  action %-3d %6d %s\n" action n
             (String.make (max 1 (n * 30 / max_n)) '#'))
       hist);
  Buffer.contents buf

(* The top [k] episodes by reward, each with its per-step reward split. *)
let schedules ~(k : int) (records : Json.t list) : string =
  let scored =
    List.filter_map
      (fun r ->
        if Runlog.str "kind" r <> Some "episode" then None
        else Option.map (fun rew -> (rew, r)) (Runlog.num "reward" r))
      records
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let buf = Buffer.create 1024 in
  if scored <> [] then
    Printf.bprintf buf "\ntop %d schedules by episode reward:\n"
      (min k (List.length scored));
  List.iteri
    (fun i (rew, r) ->
      if i < k then begin
        Printf.bprintf buf "  #%d  episode %s  reward %8.3f  seq %s\n" (i + 1)
          (match Runlog.num "episode" r with
           | Some e -> Printf.sprintf "%.0f" e
           | None -> "?")
          rew
          (match Runlog.episode_actions r with
           | [] -> "-"
           | l -> String.concat "->" (List.map string_of_int l));
        List.iter
          (fun (s : Fold.step) ->
            Printf.bprintf buf
              "        pos %-2d action %-3d r %8.3f  (binsize %8.3f  \
               throughput %8.3f)\n"
              s.pos s.action s.reward s.r_binsize s.r_throughput)
          (Fold.episode_steps r)
      end)
    scored;
  Buffer.contents buf

(* The drift timeline: the episodes in 8 consecutive windows, each
   window's action counts against the previous window's by [Health.kl].
   Its smoothing makes the histogram width part of the value, so every
   window spans the largest in-range action id of any episode; ids at or
   past [n_actions] are skipped, as [Fold.replay] skips them. *)
let drift ~(n_actions : int) (records : Json.t list) : string =
  let episodes = List.filter (fun r -> Runlog.str "kind" r = Some "episode") records in
  let n_ep = List.length episodes in
  let per = max 1 ((n_ep + 7) / 8) in
  let counts eps =
    let c = action_counts eps in
    Hashtbl.filter_map_inplace (fun a n -> if a < n_actions then Some n else None) c;
    c
  in
  let width = 1 + Hashtbl.fold (fun a _ m -> max a m) (counts episodes) 0 in
  let window i =
    let h = Array.make width 0 in
    Hashtbl.iter (fun a n -> h.(a) <- n)
      (counts (List.filteri (fun e _ -> e / per = i) episodes));
    h
  in
  let buf = Buffer.create 512 in
  if n_ep > per then
    Buffer.add_string buf "\naction-distribution drift (KL vs previous window):\n";
  let prev = ref (window 0) in
  for i = 1 to (n_ep - 1) / per do
    let h = window i in
    let d = Health.kl h !prev in
    Printf.bprintf buf "  episodes %4d-%-4d  KL %.4f%s\n" (i * per)
      (min n_ep ((i + 1) * per) - 1)
      d
      (if d > Health.default_config.drift_kl then "  << drift" else "");
    prev := h
  done;
  Buffer.contents buf
