(** The optimization engine behind [posetrl serve]: admission
    control over untrusted IR, the IR-digest LRU result cache, and the
    answer to a batch of requests, whose cache misses share one
    {!Posetrl_core.Inference.predict_batch} (one gemm per episode
    step).

    Determinism: each served schedule and optimized module is the one
    {!Posetrl_core.Inference.predict} gives for that module alone, so
    serving through the cache never changes an answer — only its
    cost. *)

type t

val create :
  ?max_steps:int ->
  ?cache_bytes:int ->
  ?sanitize:Posetrl_analysis.Sanitize.level ->
  agent:Posetrl_rl.Dqn.t ->
  actions:Posetrl_odg.Action_space.t ->
  target:Posetrl_codegen.Target.t ->
  unit ->
  t
(** Defaults: 15 episode steps, a 16 MiB cache, [Ssa]-level admission
    sanitizing. The rollout gemms run on the calling domain. *)

val cache : t -> Posetrl_obs.Json.t Cache.t

type admitted = { key : string; raw_key : string; m : Posetrl_ir.Modul.t }

val key_of : t -> Posetrl_ir.Modul.t -> string
(** The cache key: hex digest of the canonically printed module salted
    with the serving configuration (target, action space, episode
    length) — whitespace variants of the same IR share an entry. *)

val find_raw : t -> string -> Posetrl_obs.Json.t option
(** Fast-path lookup under the digest of the raw request bytes: a
    byte-identical repeat of an already-answered request returns its
    cached document without parsing or sanitizing (those bytes already
    passed admission under this configuration). [None] falls through
    to {!admit}. *)

val admit : t -> string -> (admitted, Posetrl_obs.Json.t) result
(** Parse and sanitize one MiniIR request body. [Error diag] is the
    ready-to-serialize JSON body of a 400: a parse error, or the
    sanitizer's verdict plus the full lint report ([diagnostics]). *)

val result_json :
  t ->
  input:Posetrl_ir.Modul.t ->
  schedule:int list ->
  optimized:Posetrl_ir.Modul.t ->
  Posetrl_obs.Json.t
(** The [/optimize] response document: schedule (action indices and
    flattened pass names), input/optimized size + mca-throughput
    measurements, their deltas, and the optimized IR text. Each module
    is measured once: one object-size model pass and one MCA
    estimate. *)

val optimize_many : t -> admitted list -> Posetrl_obs.Json.t list
(** Answer a batch of admitted requests in request order: cache hits
    are free, misses are deduplicated and share one
    {!Posetrl_core.Inference.predict_batch}, and every fresh result
    lands in the cache. Updates the [posetrl.serve.cache_*] metrics,
    and observes [posetrl.serve.batch_size] once per rollout batch. *)

val optimize : t -> admitted -> Posetrl_obs.Json.t
(** [optimize_many] with a single request. *)
