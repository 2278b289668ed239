(** A fixed-size domain pool with a deterministic [map].

    The pool spawns [jobs] worker domains once at {!create} and feeds
    them through a single Mutex/Condition work queue. {!map} preserves
    input order, propagates the exception of the lowest-indexed failing
    task, and — over a pure function — returns byte-identical results
    to [Array.map] regardless of [jobs]. See DESIGN.md §9 "Multicore
    execution" for the determinism contract.

    Intended use: one owner domain submits batches; tasks must not call
    back into the same pool (a nested [map] can deadlock once every
    worker is busy). *)

type t

val create : ?name:string -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs] worker domains ([jobs = 1] spawns
    none — [map] then runs inline on the caller).
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** The pool size given at creation. *)

val is_shutdown : t -> bool

val shutdown : t -> unit
(** Wake and join every worker. Queued-but-unstarted work still drains
    first; idempotent — a second call is a no-op. *)

val with_pool : ?name:string -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down on
    the way out, exception or not. *)

type timing = {
  t_start : float; (** {!clock} reading at task start *)
  t_dur : float;   (** wall seconds spent in the task *)
}

val clock : (unit -> float) ref
(** The time source behind {!timing} stamps, defaulting to
    [Unix.gettimeofday]. [Posetrl_obs.Clock] mirrors its fake into this
    so pool-utilization accounting is exactly testable; installed
    sources are read concurrently from worker domains and must be
    domain-safe. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] runs [f xs.(i)] for every [i] across the pool and
    returns the results in input order. If any task raised, the
    exception of the lowest-indexed failing task is re-raised (with its
    backtrace) after the whole batch has drained — the pool stays
    usable.
    @raise Invalid_argument if the pool is shut down. *)

val map_timed : t -> ('a -> 'b) -> 'a array -> 'b array * timing array
(** Like {!map}, also returning per-task wall timings (indexed like the
    input) — the feed for per-task spans and [posetrl.pool.*] metrics. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
