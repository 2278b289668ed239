(** Run-ledger persistence format: JSON document files, JSONL streams,
    and the progress-record schema (see DESIGN.md §7 "Run ledger").

    [Run] builds the run-directory lifecycle on top of this; the bench
    harness and tests use it directly. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents, like [mkdir -p]. *)

val write_json_file : string -> Json.t -> unit
(** Write one JSON document (tmp file + rename, so a crash mid-write
    never leaves a torn file), newline-terminated. *)

val read_json_file : string -> Json.t
(** @raise Json.Parse_error on malformed content, [Sys_error] if absent. *)

val read_jsonl : (Json.t -> 'a option) -> string -> 'a list * int
(** Parse a JSONL stream, converting each line as it is read (pass
    [Option.some] to keep the JSON). Unparseable lines (e.g. a final
    line torn by a killed process) and lines the conversion maps to
    [None] are skipped; the second component counts them. *)

val append_jsonl_line : out_channel -> Json.t -> unit

val str : string -> Json.t -> string option
val num : string -> Json.t -> float option
(** Top-level field accessors; [num] accepts ints and floats. *)

val field : string -> Json.t -> Json.t option

val path_num : string list -> Json.t -> float option
(** A number at a nested object path, e.g.
    [path_num ["result"; "final_mean_reward"] manifest]. *)

val tick_record :
  ?q_mean:float -> ?q_max:float ->
  ?gc_minor:int -> ?gc_major:int -> ?gc_heap_mb:float ->
  ?gc_alloc_mb_s:float ->
  step:int -> episode:int -> epsilon:float -> mean_reward:float ->
  mean_size_gain:float -> r_binsize:float -> r_throughput:float ->
  loss:float -> unit -> Json.t
(** A ["kind":"tick"] progress record: the trainer's periodic windowed
    means (one per 200-step tick). [q_mean]/[q_max] carry the
    agent's latest Q-value diagnostics when available; the [gc_*]
    fields carry the tick's {!Prof.sample_gc} reading (cumulative
    minor/major collection counts, major heap MB, allocation MB/s).
    All optional fields are omitted from the record when absent. *)

val episode_record :
  ?actions:int list ->
  ?step_rewards:(float * float * float) list ->
  episode:int -> step:int -> reward:float -> r_binsize:float ->
  r_throughput:float -> size_gain_pct:float -> thru_gain_pct:float ->
  epsilon:float -> loss:float -> unit -> Json.t
(** A ["kind":"episode"] progress record: one finished episode with its
    reward decomposition ([r_binsize]/[r_throughput] are the unweighted
    Eqn-2/3 component sums; the manifest's α/β recover the weighted
    split). [actions] is the sub-sequence ids taken this episode, in
    order — the input to the [posetrl watch] action histogram.
    [step_rewards] is the per-step (reward, r_binsize, r_throughput)
    triples aligned with [actions], serialized as a ["steps"] array of
    [{r, rb, rt}] objects (omitted when absent — pre-health ledgers
    have no such field); floats print as %.17g, so attribution
    recomputed from the ledger is float-exact. *)

val episode_actions : Json.t -> int list
(** The sub-sequence ids of one ["episode"] record's [actions] array, in
    order (entries that are not non-negative ints are dropped); [[]]
    when the field is absent. The one reader behind {!Fold.episode_steps},
    the [posetrl watch] action histogram and [posetrl runs show]. *)

val series :
  kind:string -> x:string -> y:string -> Json.t list -> (float * float) list
(** [(x, y)] pairs from records of one kind, skipping records missing
    either field — the input to the [runs show] sparkline curves. *)
