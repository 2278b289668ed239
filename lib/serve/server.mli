(** The serve daemon's request loop over {!Posetrl_obs.Httpd}.

    Routes:
    - [POST /optimize] — one MiniIR module as the raw body; answers the
      {!Engine.result_json} document, 400 with lint diagnostics when
      admission rejects it, 429 + [Retry-After] when the inference
      queue is full;
    - [POST /optimize/batch] — a JSON array of MiniIR texts (or
      [{"modules": [...]}]); answers per-item result/rejection
      documents under ["results"];
    - [GET /serve] — the live {!stats_json} document;
    - any other GET — the telemetry handler (metrics, healthz, ...).

    [pump] accepts every pending connection before answering any
    optimization request, so concurrent misses coalesce into one
    batched rollout; cache hits and GETs are answered immediately and
    never occupy queue slots. *)

type t

val default_queue_cap : int
(** 64 queued cache-misses per pump. *)

val create :
  ?max_body:int ->
  ?queue_cap:int ->
  ?telemetry:Posetrl_obs.Httpd.handler ->
  port:int ->
  engine:Engine.t ->
  unit ->
  t
(** Bind on [127.0.0.1:port] (0 picks a free port). [telemetry]
    defaults to the bare standard route table. @raise Unix.Unix_error
    if the bind fails. *)

val port : t -> int
val pump : t -> unit
val close : t -> unit

val requests : t -> int
(** Total requests answered (all routes, including errors). *)

val stats_json : t -> Posetrl_obs.Json.t
(** The rolling stats document ([kind = "serve-stats"]): request and
    rejection totals, queue depth/cap, cache hit/miss/byte counters,
    p50/p99 of the last 4096 request latencies. Served on [GET /serve]
    and written to the run ledger's [serve.json] by the daemon. *)
