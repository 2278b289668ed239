(** Profiling: hotspot attribution, flamegraph export, GC and
    pool-utilization telemetry (DESIGN.md §11).

    The streaming collector folds a span-event stream into per-span-name
    aggregates and a per-domain stack reconstruction, either live (as an
    installed sink) or by replaying a ledger's [trace.jsonl]. Self-time
    is taken from the events themselves — the span layer computes
    [dur - Σ direct children] online — so a profile is a single pass
    over the stream. *)

type t
(** A streaming profile collector. Fed from the span emit path (already
    serialized) or a single-threaded replay — not itself thread-safe. *)

val create : unit -> t

val add : t -> Event.t -> unit
(** Fold one event into the profile. Events must arrive in completion
    order per emitting domain (the order sinks and traces provide). *)

val sink : t -> Sink.t
(** A span sink feeding the collector; [close] is a no-op. *)

val of_events : Event.t list -> t
(** Fold an event list (e.g. [Report.read_trace] output) into a fresh
    collector. *)

val collect : (unit -> 'a) -> 'a * t
(** Run a workload with a collector sink installed and return its result
    plus the profile. *)

(** {1 Hotspots} *)

type entry = {
  e_name : string;
  e_count : int;
  e_total : float;   (** Σ dur, seconds *)
  e_self : float;    (** Σ self, seconds *)
  e_p50 : float;     (** median per-event self time, seconds *)
  e_p99 : float;
}

val hotspots : t -> entry list
(** Every span name, ranked by self-time descending (name-ordered tie
    break). p50/p99 come from a capped reservoir of per-event samples. *)

val events : t -> int
val total_self : t -> float
val self_of : t -> string -> float

val render : ?top:int -> t -> string
(** Ranked hotspot table (default top 15) with self%% and cumulative%%
    columns, followed by a totals line. *)

val render_compare : ?top:int -> a:string -> b:string -> t -> t -> string
(** [render_compare ~a ~b pa pb] tables per-span self-time of profile
    [pa] (labelled [a] in the title) against [pb] (labelled [b]) over
    the union of both profiles' [top] spans (default 10), ranked by
    [pa]'s self-time, plus a totals row. A span missing from one
    profile reads 0.00 on that side. *)

(** {1 Folded-stack export} *)

val folded : t -> string
(** flamegraph.pl-compatible folded stacks: one
    ["frame;frame;frame <n>"] line per distinct stack, where [<n>] is
    integer microseconds of self-time (zero-µs stacks dropped), sorted
    for stable output. When events carry more than one domain id, each
    stack is rooted at a ["main"]/["domain-N"] frame. *)

val write_folded : path:string -> t -> unit

(** {1 GC telemetry} *)

type gc_sample = {
  gs_minor : int;
  gs_major : int;
  gs_heap_w : int;
  gs_alloc_mb_s : float; (** allocation rate since the previous sample *)
}

val sample_gc : ?r:Metrics.t -> unit -> gc_sample
(** Sample [Gc.quick_stat] into the [posetrl.gc.*] gauges
    (minor/major collections, promoted words, heap words, allocation
    rate in MB/s since the previous sample on the same registry) and
    return the reading. Called on the trainer tick; single-domain. *)

(** {1 Pool utilization} *)

type pool_util = {
  pu_jobs : int;
  pu_tasks : int;
  pu_busy_frac : float;  (** Σ task dur / (jobs × batch wall) *)
  pu_queue_mean : float; (** mean seconds a task waited before starting *)
  pu_dispatch_s : float; (** mean queue wait of the first wave — the
                             min(jobs, n) earliest-starting tasks, which
                             waited on dispatch alone *)
}

val pool_util :
  jobs:int -> t0:float -> t1:float -> Posetrl_support.Pool.timing array ->
  pool_util
(** Pure aggregation of a [Pool.map_timed] batch: [t0]/[t1] bracket the
    batch on the same clock as the timings ([Unix.gettimeofday]). *)

val note_pool_batch :
  ?r:Metrics.t ->
  jobs:int -> t0:float -> t1:float -> Posetrl_support.Pool.timing array ->
  pool_util
(** {!pool_util}, also published to metrics: busy-fraction and
    queue-wait gauges plus the [posetrl.pool.dispatch_s] per-task
    queue-wait histogram. *)
