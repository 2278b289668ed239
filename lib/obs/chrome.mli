(** Chrome trace-event export: convert a span trace ([trace.jsonl], as
    read by {!Report.read_trace}) into the Trace Event Format JSON array
    loadable by Perfetto ([ui.perfetto.dev]) and [chrome://tracing],
    giving per-pass self-time a flamegraph view. Surfaced as
    [posetrl report FILE.jsonl --chrome out.json]. *)

val of_events : Event.t list -> Json.t
(** A JSON array of complete (["ph":"X"]) events, sorted by start time,
    preceded by one ["thread_name"] metadata (["ph":"M"]) event per
    distinct domain id. Timestamps and durations are microseconds
    ([ts]/[dur]); each event lands on its emitting domain's track
    ([tid], labeled "main" / "domain-N") so per-domain nesting is
    reconstructed by interval containment within that track; span attrs
    plus the computed self-time and depth land in [args]. *)

val to_string : Event.t list -> string

val write : path:string -> Event.t list -> unit
(** Write the array to [path] (atomic tmp-file + rename). *)
