(* Profiling layer over the span/metrics plumbing.

   Three concerns live here (see DESIGN.md §11 "Profiling"):

   - Hotspot attribution: a streaming span collector that folds the
     event stream into per-span-name aggregates (count, total,
     self-time, p50/p99 of per-event self) and renders a ranked hotspot
     table. Self-time is computed online by the span layer (dur minus
     direct children), so the collector never reconstructs the tree for
     the table.

   - Folded-stack export: the same stream reconstructed into
     flamegraph.pl-compatible "frame;frame;frame <µs>" lines. Events
     arrive in completion order (children strictly before their parent,
     per emitting domain), so reconstruction is a per-tid map from depth
     to pending child stacks: when the parent at depth d completes, it
     prefixes its name onto everything pending at depth d+1.

   - GC and pool-utilization telemetry: [sample_gc] turns
     [Gc.quick_stat] into posetrl.gc.* gauges on the trainer tick;
     [note_pool_batch] turns a [Pool.map_timed] timing array into
     queue-depth/busy-fraction gauges and a dispatch-latency histogram.

   The collector is only ever fed from the span emit path (already
   serialized by the span layer's emit lock) or from a single-threaded
   trace replay, so it keeps plain mutable state. *)

open Posetrl_support

(* --- growable sample buffer with reservoir fallback ---------------------- *)

(* Per-name self-time samples back the p50/p99 columns. Traces from long
   training runs can carry millions of events for one name, so past
   [sample_cap] the buffer degrades to uniform reservoir sampling (a
   fixed-seed private RNG keeps replay deterministic). *)
let sample_cap = 65536

type buf = { mutable data : float array; mutable len : int }

let buf_create () = { data = Array.make 64 0.0; len = 0 }

let buf_push (rng : Random.State.t) (b : buf) (seen : int) (v : float) =
  if b.len < sample_cap then begin
    if b.len = Array.length b.data then begin
      let d = Array.make (min sample_cap (2 * b.len)) 0.0 in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- v;
    b.len <- b.len + 1
  end
  else begin
    let j = Random.State.int rng seen in
    if j < sample_cap then b.data.(j) <- v
  end

(* nearest-rank quantile over a sorted copy *)
let buf_quantile (b : buf) (q : float) : float =
  if b.len = 0 then 0.0
  else begin
    let s = Array.sub b.data 0 b.len in
    Array.sort compare s;
    Stats.nearest_rank s q
  end

(* --- the streaming collector --------------------------------------------- *)

type agg = {
  mutable a_count : int;
  mutable a_total : float;              (* Σ dur   (seconds) *)
  mutable a_self : float;               (* Σ self  (seconds) *)
  a_samples : buf;                      (* per-event self times *)
}

type t = {
  by_name : (string, agg) Hashtbl.t;
  (* folded-stack reconstruction: tid -> depth -> (frames -> Σ self),
     where frames are root-first paths below (and including) that
     depth. Aggregating by path at insert keeps the collector's memory
     bounded by the number of *distinct* stacks, not by event count. *)
  pending : (int, (int, (string list, float) Hashtbl.t) Hashtbl.t) Hashtbl.t;
  rng : Random.State.t;
  mutable n_events : int;
}

let create () =
  { by_name = Hashtbl.create 64;
    pending = Hashtbl.create 4;
    rng = Random.State.make [| 0x9e3779b9 |];
    n_events = 0 }

let add (t : t) (e : Event.t) =
  t.n_events <- t.n_events + 1;
  let a =
    match Hashtbl.find_opt t.by_name e.Event.name with
    | Some a -> a
    | None ->
      let a =
        { a_count = 0; a_total = 0.0; a_self = 0.0; a_samples = buf_create () }
      in
      Hashtbl.add t.by_name e.Event.name a;
      a
  in
  a.a_count <- a.a_count + 1;
  a.a_total <- a.a_total +. e.Event.dur;
  a.a_self <- a.a_self +. e.Event.self;
  buf_push t.rng a.a_samples a.a_count e.Event.self;
  (* fold the event into the per-tid stack reconstruction *)
  let per =
    match Hashtbl.find_opt t.pending e.Event.tid with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.add t.pending e.Event.tid h;
      h
  in
  let mine =
    match Hashtbl.find_opt per e.Event.depth with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.add per e.Event.depth tbl;
      tbl
  in
  let bump frames v =
    let prev =
      match Hashtbl.find_opt mine frames with Some x -> x | None -> 0.0
    in
    Hashtbl.replace mine frames (prev +. v)
  in
  bump [ e.Event.name ] e.Event.self;
  match Hashtbl.find_opt per (e.Event.depth + 1) with
  | Some children ->
    Hashtbl.remove per (e.Event.depth + 1);
    Hashtbl.iter (fun fs v -> bump (e.Event.name :: fs) v) children
  | None -> ()

let sink (t : t) : Sink.t =
  { Sink.emit = (fun e -> add t e); close = ignore }

let of_events (events : Event.t list) : t =
  let t = create () in
  List.iter (add t) events;
  t

let collect (f : unit -> 'a) : 'a * t =
  let t = create () in
  let v = Span.with_sink (sink t) f in
  (v, t)

(* --- ranked hotspot entries ---------------------------------------------- *)

type entry = {
  e_name : string;
  e_count : int;
  e_total : float;
  e_self : float;
  e_p50 : float;
  e_p99 : float;
}

let events (t : t) = t.n_events

let total_self (t : t) : float =
  Hashtbl.fold (fun _ a acc -> acc +. a.a_self) t.by_name 0.0

let hotspots (t : t) : entry list =
  Hashtbl.fold
    (fun name a acc ->
      { e_name = name;
        e_count = a.a_count;
        e_total = a.a_total;
        e_self = a.a_self;
        e_p50 = buf_quantile a.a_samples 0.5;
        e_p99 = buf_quantile a.a_samples 0.99 }
      :: acc)
    t.by_name []
  |> List.sort (fun a b ->
         match compare b.e_self a.e_self with
         | 0 -> compare a.e_name b.e_name
         | c -> c)

let self_of (t : t) (name : string) : float =
  match Hashtbl.find_opt t.by_name name with Some a -> a.a_self | None -> 0.0

(* --- rendering ----------------------------------------------------------- *)

let ms v = Printf.sprintf "%.2f" (v *. 1e3)
let us v = Printf.sprintf "%.0f" (v *. 1e6)

let render ?(top = 15) (t : t) : string =
  let total = total_self t in
  let entries = hotspots t in
  let shown = List.filteri (fun i _ -> i < top) entries in
  let tbl =
    Table.create ~title:"hotspots"
      ~headers:[ "#"; "span"; "n"; "total ms"; "self ms"; "self%"; "cum%";
                 "p50 us"; "p99 us" ]
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right;
                Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let cum = ref 0.0 in
  List.iteri
    (fun i e ->
      cum := !cum +. e.e_self;
      let pct v = if total > 0.0 then 100.0 *. v /. total else 0.0 in
      Table.add_row tbl
        [ string_of_int (i + 1);
          e.e_name;
          string_of_int e.e_count;
          ms e.e_total;
          ms e.e_self;
          Printf.sprintf "%.1f" (pct e.e_self);
          Printf.sprintf "%.1f" (pct !cum);
          us e.e_p50;
          us e.e_p99 ])
    shown;
  let omitted = List.length entries - List.length shown in
  Table.render tbl
  ^ Printf.sprintf "%d events, %d span names%s; total self %s ms\n"
      t.n_events (List.length entries)
      (if omitted > 0 then Printf.sprintf " (%d rows omitted)" omitted else "")
      (ms total)

(* Per-span self-time of profile [pa] (labelled [a]) against [pb] over
   the union of both profiles' top spans, ranked by A's self-time. *)
let render_compare ?(top = 10) ~(a : string) ~(b : string) (pa : t) (pb : t) :
    string =
  let tbl =
    Table.create
      ~title:(Printf.sprintf "self-time: A = %s vs B = %s" a b)
      ~headers:[ "span"; "A self ms"; "B self ms"; "A/B" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let ratio x y = if y > 0.0 then Printf.sprintf "%.2f" (x /. y) else "-" in
  let row name x y = Table.add_row tbl [ name; ms x; ms y; ratio x y ] in
  let top_of p = List.filteri (fun i _ -> i < top) (hotspots p) in
  List.sort_uniq compare (List.map (fun e -> e.e_name) (top_of pa @ top_of pb))
  |> List.stable_sort (fun x y -> compare (self_of pa y) (self_of pa x))
  |> List.iter (fun name -> row name (self_of pa name) (self_of pb name));
  row "(total)" (total_self pa) (total_self pb);
  Table.render tbl

(* --- folded-stack (flamegraph.pl) export --------------------------------- *)

let tid_frame tid = if tid = 0 then "main" else Printf.sprintf "domain-%d" tid

let folded (t : t) : string =
  let multi = Hashtbl.length t.pending > 1 in
  let stacks : (string, float) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun tid per ->
      Hashtbl.iter
        (fun _depth entries ->
          Hashtbl.iter
            (fun frames self ->
              let frames = if multi then tid_frame tid :: frames else frames in
              let key = String.concat ";" frames in
              let prev =
                match Hashtbl.find_opt stacks key with Some v -> v | None -> 0.0
              in
              Hashtbl.replace stacks key (prev +. self))
            entries)
        per)
    t.pending;
  let lines =
    Hashtbl.fold
      (fun key v acc ->
        let us = int_of_float (Float.round (v *. 1e6)) in
        if us > 0 then Printf.sprintf "%s %d" key us :: acc else acc)
      stacks []
    |> List.sort compare
  in
  String.concat "\n" lines ^ (if lines = [] then "" else "\n")

let write_folded ~(path : string) (t : t) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (folded t))

(* --- GC telemetry ---------------------------------------------------------- *)

(* gauge handles + the previous sample, for the allocation-rate gauge;
   [sample_gc] runs on the trainer tick (one domain), so a plain ref is
   enough. Keyed per registry so tests with private registries don't
   inherit the global's rate state. *)
let last_sample : (Metrics.t * float * float) option ref = ref None

type gc_sample = {
  gs_minor : int;
  gs_major : int;
  gs_heap_w : int;
  gs_alloc_mb_s : float;
}

let sample_gc ?(r = Metrics.global) () : gc_sample =
  let s = Gc.quick_stat () in
  let now = Clock.now () in
  let alloc_b = Gc.allocated_bytes () in
  let rate_b_s =
    match !last_sample with
    | Some (r', t0, b0) when r' == r && now > t0 -> (alloc_b -. b0) /. (now -. t0)
    | _ -> 0.0
  in
  last_sample := Some (r, now, alloc_b);
  Metrics.set (Metrics.gauge ~r "posetrl.gc.minor_collections")
    (float_of_int s.Gc.minor_collections);
  Metrics.set (Metrics.gauge ~r "posetrl.gc.major_collections")
    (float_of_int s.Gc.major_collections);
  Metrics.set (Metrics.gauge ~r "posetrl.gc.promoted_words") s.Gc.promoted_words;
  Metrics.set (Metrics.gauge ~r "posetrl.gc.heap_words")
    (float_of_int s.Gc.heap_words);
  Metrics.set (Metrics.gauge ~r "posetrl.gc.alloc_rate_mb_s") (rate_b_s /. 1e6);
  { gs_minor = s.Gc.minor_collections;
    gs_major = s.Gc.major_collections;
    gs_heap_w = s.Gc.heap_words;
    gs_alloc_mb_s = rate_b_s /. 1e6 }

(* --- pool utilization ---------------------------------------------------- *)

type pool_util = {
  pu_jobs : int;
  pu_tasks : int;
  pu_busy_frac : float;         (* Σ task dur / (jobs × batch wall) *)
  pu_queue_mean : float;        (* mean seconds a task waited to start *)
  pu_dispatch_s : float;        (* mean first-wave dispatch latency *)
}

let pool_util ~(jobs : int) ~(t0 : float) ~(t1 : float)
    (timings : Pool.timing array) : pool_util =
  let n = Array.length timings in
  let wall = Float.max (t1 -. t0) 1e-9 in
  let busy = Array.fold_left (fun acc tm -> acc +. tm.Pool.t_dur) 0.0 timings in
  let waits =
    Array.map (fun tm -> Float.max 0.0 (tm.Pool.t_start -. t0)) timings
  in
  let queue_mean =
    if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 waits /. float_of_int n
  in
  (* dispatch latency: queue wait of the first wave — the min(jobs, n)
     earliest-starting tasks, which waited on dispatch alone rather than
     on a busy worker *)
  let dispatch =
    if n = 0 then 0.0
    else begin
      let sorted = Array.copy waits in
      Array.sort compare sorted;
      let wave = min jobs n in
      let acc = ref 0.0 in
      for i = 0 to wave - 1 do acc := !acc +. sorted.(i) done;
      !acc /. float_of_int wave
    end
  in
  { pu_jobs = jobs;
    pu_tasks = n;
    pu_busy_frac = busy /. (float_of_int (max 1 jobs) *. wall);
    pu_queue_mean = queue_mean;
    pu_dispatch_s = dispatch }

let dispatch_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1 |]

let note_pool_batch ?(r = Metrics.global) ~(jobs : int) ~(t0 : float)
    ~(t1 : float) (timings : Pool.timing array) : pool_util =
  let u = pool_util ~jobs ~t0 ~t1 timings in
  Metrics.set (Metrics.gauge ~r "posetrl.pool.busy_frac") u.pu_busy_frac;
  Metrics.set (Metrics.gauge ~r "posetrl.pool.queue_wait_mean_s") u.pu_queue_mean;
  let h =
    Metrics.histogram ~r ~buckets:dispatch_buckets "posetrl.pool.dispatch_s"
  in
  Array.iter
    (fun tm -> Metrics.observe h (Float.max 0.0 (tm.Pool.t_start -. t0)))
    timings;
  u
