(* A fixed-size domain pool: the multicore substrate for parallel suite
   evaluation and batch-parallel linear algebra.

   Design goals, in priority order:

   1. Determinism. [map] returns results in input order, and every task
      is an independent closure over its own input — a [map] over a pure
      function is byte-identical to the sequential [Array.map],
      regardless of [jobs] or scheduling. Callers that need randomness
      inside tasks must derive an independent seed per task (e.g. from
      the task index) rather than sharing a stream across tasks; see
      DESIGN.md §9 for the determinism contract.

   2. Spawn once. Domains are expensive (~hundreds of µs plus a slice of
      minor heap each); the pool spawns [jobs] worker domains at
      [create] and reuses them across every [map]. Work moves through a
      single Mutex/Condition-protected queue.

   3. Honest failure. A task exception does not poison the pool: the
      remaining tasks still run, and [map] re-raises the exception of
      the lowest-indexed failing task (with its backtrace) after the
      batch drains — deterministic even when several tasks fail.

   4. Graceful shutdown. [shutdown] drains nothing: it flags the pool,
      wakes every worker and joins them. It is idempotent, and a pool
      used after shutdown raises [Invalid_argument] rather than hanging.

   [jobs <= 1] is the degenerate pool: no domains are spawned and [map]
   runs inline on the caller — the zero-cost sequential baseline the
   determinism gate compares against. *)

type t = {
  p_jobs : int;
  p_queue : (unit -> unit) Queue.t;
  p_lock : Mutex.t;
  p_work : Condition.t;        (* signalled on enqueue and on shutdown *)
  mutable p_workers : unit Domain.t array;
  mutable p_shutdown : bool;
}

type timing = {
  t_start : float;             (* clock reading at task start *)
  t_dur : float;               (* wall seconds spent in the task *)
}

(* Timing stamps read this instead of Unix.gettimeofday directly so the
   obs layer's Clock (which owns every other timestamp) can install a
   fake here too — pool-utilization math then becomes exactly testable.
   Workers read it concurrently; installed sources must be domain-safe
   (the fakes are a plain ref read, which is fine for tests). *)
let clock : (unit -> float) ref = ref Unix.gettimeofday

let jobs (t : t) = t.p_jobs

let is_shutdown (t : t) =
  Mutex.lock t.p_lock;
  let s = t.p_shutdown in
  Mutex.unlock t.p_lock;
  s

(* Worker loop: pull a task under the lock, run it outside the lock.
   Tasks are pre-wrapped and never raise; a worker only exits when the
   pool is shut down and the queue is empty (in-flight batches drain). *)
let rec worker_loop (t : t) : unit =
  Mutex.lock t.p_lock;
  while Queue.is_empty t.p_queue && not t.p_shutdown do
    Condition.wait t.p_work t.p_lock
  done;
  if Queue.is_empty t.p_queue then begin
    (* shutdown and no work left *)
    Mutex.unlock t.p_lock;
    ()
  end
  else begin
    let task = Queue.pop t.p_queue in
    Mutex.unlock t.p_lock;
    task ();
    worker_loop t
  end

let create ?name:(_ = "pool") ~(jobs : int) () : t =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    { p_jobs = jobs;
      p_queue = Queue.create ();
      p_lock = Mutex.create ();
      p_work = Condition.create ();
      p_workers = [||];
      p_shutdown = false }
  in
  (* workers capture [t] itself, so they observe [p_shutdown] flips *)
  if jobs > 1 then
    t.p_workers <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown (t : t) : unit =
  Mutex.lock t.p_lock;
  let already = t.p_shutdown in
  t.p_shutdown <- true;
  Condition.broadcast t.p_work;
  Mutex.unlock t.p_lock;
  if not already then Array.iter Domain.join t.p_workers

let with_pool ?name ~(jobs : int) (f : t -> 'a) : 'a =
  let t = create ?name ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* The deterministic map at the heart of the pool. Results land in a
   per-index slot; completion is tracked by a counter under the pool
   lock, which doubles as the memory barrier that publishes worker
   writes to the caller. *)
let map_timed (t : t) (f : 'a -> 'b) (xs : 'a array) : 'b array * timing array =
  if is_shutdown t then invalid_arg "Pool.map: pool is shut down";
  let n = Array.length xs in
  if n = 0 then ([||], [||])
  else if t.p_jobs = 1 then begin
    (* inline sequential path: same code shape, no queue traffic *)
    let timings = Array.make n { t_start = 0.0; t_dur = 0.0 } in
    let results =
      Array.mapi
        (fun i x ->
          let t0 = !clock () in
          let r = f x in
          timings.(i) <- { t_start = t0; t_dur = !clock () -. t0 };
          r)
        xs
    in
    (results, timings)
  end
  else begin
    let results : 'b option array = Array.make n None in
    let timings = Array.make n { t_start = 0.0; t_dur = 0.0 } in
    let first_err : (int * exn * Printexc.raw_backtrace) option ref = ref None in
    let remaining = ref n in
    let task i () =
      let t0 = !clock () in
      let outcome =
        match f xs.(i) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let dur = !clock () -. t0 in
      Mutex.lock t.p_lock;
      timings.(i) <- { t_start = t0; t_dur = dur };
      (match outcome with
       | Ok v -> results.(i) <- Some v
       | Error (e, bt) ->
         (match !first_err with
          | Some (j, _, _) when j < i -> ()
          | _ -> first_err := Some (i, e, bt)));
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.p_work;
      Mutex.unlock t.p_lock
    in
    Mutex.lock t.p_lock;
    for i = 0 to n - 1 do
      Queue.push (task i) t.p_queue
    done;
    Condition.broadcast t.p_work;
    (* The caller waits on the same condition the workers use for work
       arrival; spurious wakeups just re-check [remaining]. *)
    while !remaining > 0 do
      Condition.wait t.p_work t.p_lock
    done;
    Mutex.unlock t.p_lock;
    match !first_err with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      ( Array.map (function Some v -> v | None -> assert false) results,
        timings )
  end

let map (t : t) (f : 'a -> 'b) (xs : 'a array) : 'b array =
  fst (map_timed t f xs)

let map_list (t : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  Array.to_list (map t f (Array.of_list xs))
