(** The run ledger: persistent per-run directories (manifest, progress
    stream, eval tables, trace) plus the reading/compare side behind
    [posetrl runs list|show|compare]. See DESIGN.md §7 "Run ledger" for
    the directory layout and manifest schema. *)

val default_root : string
(** ["runs"] — where auto-named run directories are created. *)

val manifest_path : string -> string
val progress_path : string -> string
val trace_path : string -> string
val alerts_path : string -> string
(** Paths of the ledger files inside a run directory. *)

type doc =
  | Eval      (** [eval.json]: per-suite size/throughput tables *)
  | Serve     (** [serve.json]: the serve daemon's rolling stats snapshot,
                  [Posetrl_serve.Server.stats_json] *)
  | Fold of string
      (** a step-stream fold's table under its file name ({!Fold.S.file}):
          [attrib.json], [coverage.json] *)
(** The whole-document files a run directory may hold. *)

val doc_path : doc -> string -> string
(** [doc_path d dir] is the path of document [d] inside run directory
    [dir]. *)

(** {1 Writing side} *)

type t
(** An open (in-progress) run. *)

val create :
  ?root:string -> ?dir:string -> name:string ->
  meta:(string * Json.t) list -> unit -> t
(** Start a run: create the directory ([dir] if given, else
    [root/<timestamp>-<name>]), write a ["running"] manifest carrying
    [meta], and open [progress.jsonl]. *)

val dir : t -> string

val progress : t -> Json.t -> unit
(** Append a record to [progress.jsonl]; flushed every few records so a
    killed run keeps a readable prefix. Records normally come from
    {!Runlog.tick_record} / {!Runlog.episode_record}. *)

val write : t -> doc -> Json.t -> unit
(** Write a document (atomic replace). *)

val alert : t -> Json.t -> unit
(** Append a watchdog alert record to [alerts.jsonl] and flush
    immediately — alerts are rare and must survive a crash right after
    firing. The file is created (empty) at {!create}, so a healthy
    completed run is distinguishable from one predating the watchdog. *)

val finish : ?result:(string * Json.t) list -> t -> unit
(** Close the progress stream and rewrite the manifest with
    [status = "complete"], the wall-clock duration ([wall_s]) and the
    final [result] object. Idempotent. *)

(** {1 Reading side} *)

type info = {
  run_dir : string;
  run_id : string;
  manifest : Json.t;
}

val load : string -> info
(** Load a run directory.
    @raise Failure if it has no [manifest.json]. *)

val list_runs : ?root:string -> unit -> info list
(** Every run directory under [root], in creation order: manifest mtime
    first, run id as the tiebreak — so same-second manifests (parallel
    CI jobs) list deterministically. Never raises: a missing/unreadable
    [root] yields [[]], and entries whose manifest is unreadable or
    corrupt are skipped. *)

val find : ?root:string -> string -> info
(** Resolve an id (under [root]) or a direct run-directory path.
    @raise Failure if neither resolves. *)

val read_progress : info -> Json.t list * int
(** The progress records plus the count of torn/unparseable lines;
    [([], 0)] if the stream is absent. *)

val read : info -> doc -> Json.t option
(** A run's document. Never raises: [None] means the file is absent (an
    eval-less run, a run predating the layer, not a serve run) {e or}
    torn or corrupt — either way the caller renders "no data". *)

val read_alerts : info -> (Json.t list * int) option
(** The run's alert records plus the torn-line count. Never raises:
    [None] when [alerts.jsonl] is absent (pre-watchdog run);
    [Some ([], 0)] when present but empty (healthy run). *)

(** {1 Cross-run comparison} *)

type thresholds = {
  max_reward_drop_pct : float;
  (** regression when final mean reward drops more than this % vs base *)
  max_size_drop_pts : float;
  (** regression when a suite's avg size reduction drops more than this
      many percentage points *)
  max_wall_factor : float;
  (** regression when candidate wall time exceeds factor × base;
      [<= 0] disables (default — wall time is noisy, and a CI gate
      should stay deterministic) *)
}

val default_thresholds : thresholds
(** [{ max_reward_drop_pct = 10.0; max_size_drop_pts = 2.0;
      max_wall_factor = 0.0 }] *)

type delta = {
  d_metric : string;
  d_base : float option;
  d_cand : float option;
  d_regressed : bool;
  d_note : string;
}

val compare_runs :
  ?thresholds:thresholds -> base:info -> cand:info -> unit -> delta list
(** Diff final mean reward (manifests), per-suite avg size reduction
    (eval.json) and wall time between two runs. Metrics missing on
    either side are reported but never count as regressions. *)

val has_regression : delta list -> bool
(** True iff any delta regressed — [posetrl runs compare] exits non-zero
    on this, making the ledger usable as a CI gate. *)
