(** The [posetrl watch] live dashboard: a pure renderer from a run's
    manifest + progress records (as read by the torn-line-tolerant
    {!Runlog} reader) to one terminal frame. The CLI redraws it on a
    polling interval until the manifest leaves ["running"]. *)

val action_histogram : Json.t list -> (int * int) list
(** Per-action selection counts folded from the ["episode"] progress
    records' {!Runlog.episode_actions}, sorted by count descending. *)

val render :
  ?width:int ->
  ?alerts:Json.t list option ->
  ?coverage:Json.t option ->
  ?serve:Json.t option ->
  id:string ->
  manifest:Json.t ->
  records:Json.t list ->
  dropped:int ->
  unit ->
  string
(** One frame: run header (status, step/episode/ε/loss from the latest
    tick), a watchdog-alerts row, a decision-space coverage row, reward
    / reward-component / ε / loss sparklines, and the action-selection
    histogram. [width] bounds the sparkline columns (default 60).
    Renders a clear placeholder when [records] is empty.

    [alerts] is the result of {!Run.read_alerts} (records only):
    [None] — the run predates the watchdog, rendered as a
    "(not recorded)" placeholder, never a blank or garbled row;
    [Some []] — healthy; [Some l] — red rows for the latest alerts.

    [coverage] is the result of [Run.read info Coverage]: [None] — absent
    or corrupt, rendered as "(not recorded)"; [Some doc] — the edge /
    entropy / node summary of the coverage document.

    [serve] is the result of [Run.read info Serve]: [None] — not a serve
    run, the row is simply omitted; [Some doc] — a request / cache-hit /
    queue-depth / latency-percentile summary of the daemon's stats. *)
