(** Minimal dependency-free HTTP/1.1 server for live telemetry and the
    optimization service.

    Single-threaded and polling-friendly: the listening socket is
    non-blocking, and {!pump} — called from the trainer tick or the
    serve daemon's loop — accepts and serves every pending connection,
    so no threads are needed. Responses always close the connection (no
    keep-alive): scrapers and [curl] reconnect per request, which keeps
    the server stateless.

    The request surface is deliberately tiny (GET and POST, path + query
    ignored beyond the path); everything else is parsed to an error
    response rather than an exception, so a malformed client can never
    take down a training run or the serve daemon. POST bodies are read
    against their declared [Content-Length] with a hard size bound: an
    oversized declaration is a 413, a missing/invalid/torn one a 400 —
    never a raise, never an unbounded buffer. *)

type request = {
  meth : string;  (** request method, upper-case as sent *)
  path : string;  (** path component only; the query string is dropped *)
  body : string;  (** POST body, exactly [Content-Length] bytes; [""] on GET *)
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
      (** extra response headers (e.g. [Retry-After] on a 429) *)
  body : string;
}

type handler = request -> response

val default_max_body : int
(** 1 MiB — the default bound on a POST body. *)

val response : ?status:int -> ?headers:(string * string) list -> string -> response
(** A [text/plain; charset=utf-8] response. Defaults: status 200, no
    extra headers. *)

val json_response :
  ?status:int -> ?headers:(string * string) list -> Json.t -> response

val error_response :
  ?headers:(string * string) list -> int -> string -> response
(** [{"error": msg}] as JSON under the given status. *)

val parse_request : ?max_body:int -> string -> (request, response) result
(** Parse a complete raw request (head and body). Errors come back as
    ready-to-send responses: 400 for a malformed request line, a POST
    without a valid [Content-Length], or a body shorter than declared
    (torn client); 405 for any method other than GET/POST; 413 for a
    body declared larger than [max_body]. *)

val render_response : response -> string
(** Full HTTP/1.1 wire bytes: status line, [Content-Type],
    [Content-Length], extra headers, [Connection: close], blank line,
    body. *)

val telemetry_handler :
  ?registry:Metrics.t ->
  ?runs_root:string ->
  ?docs:(string * (unit -> Json.t option)) list ->
  health:(unit -> Json.t) ->
  unit ->
  handler
(** The standard route table:
    - [GET /metrics] — Prometheus exposition of [registry] ({!Expo});
    - [GET /healthz] — the [health] thunk's JSON (status, uptime,
      current step/episode...);
    - [GET /NAME] for each [(NAME, thunk)] of [docs] — the thunk's
      document (a live table, e.g. [/coverage] from {!Fold.route}, or
      the [/alerts] array of the watchdog alerts fired so far); a 404
      when the thunk yields [None]. [docs] defaults to an [/alerts] of
      [[]], a run with no alerts fired;
    - [GET /runs] — JSON array of the {!Run} ledger under [runs_root];
    - [GET /runs/:id/progress] — that run's progress records, when
      [:id] is one that [GET /runs] lists (a 404 otherwise: ids are
      never resolved as paths);
    - anything else — a JSON 404. *)

type t
(** A listening server. *)

type client
(** An accepted connection whose request has been read; owned by the
    caller until {!respond} (which writes and closes it). *)

val create : ?backlog:int -> ?max_body:int -> port:int -> unit -> t
(** Bind and listen on [127.0.0.1:port] ([port = 0] picks a free port —
    read it back with {!port}). [max_body] bounds POST bodies
    ({!default_max_body}). @raise Unix.Unix_error if the bind fails
    (e.g. the port is taken). *)

val port : t -> int

val accept : t -> (client * (request, response) result) option
(** Accept one pending connection and read its request fully (bounded,
    with a receive timeout); [None] when none is pending. An [Error] is
    the ready-to-send parse-failure response. Every returned client must
    be passed to {!respond} exactly once — this is how a batching layer
    (lib/serve) collects many requests before answering any of them. *)

val respond : client -> response -> unit
(** Write the response and close the connection; socket errors are
    swallowed, double-responds are no-ops. *)

val pump : t -> handler -> unit
(** Accept and serve every connection currently pending through
    [handler]; returns immediately when none are. Per-client errors
    (torn connections, read timeouts) are swallowed. Call this from a
    training/eval loop tick. *)

val close : t -> unit
