(** The [posetrl watch] live dashboard: a pure renderer from a run's
    manifest + progress records (as read by the torn-line-tolerant
    {!Runlog} reader) to one terminal frame. The CLI redraws it on a
    polling interval until the manifest leaves ["running"]. *)

val action_histogram : Json.t list -> (int * int) list
(** Per-action selection counts folded from the ["episode"] progress
    records' {!Runlog.episode_actions}, sorted by count descending. *)

val schedules : k:int -> Json.t list -> string
(** The [posetrl runs show] top-schedules block: the [k] episode records
    with the highest reward, each with its action sequence and its
    per-step (reward, binsize, throughput) split; [""] when no episode
    record carries a reward. *)

val drift : n_actions:int -> Json.t list -> string
(** The [posetrl runs show] drift timeline: the episode records cut into
    8 consecutive windows, each window's action counts (the same count
    as {!action_histogram}, minus the action ids at or past
    [n_actions], which {!Fold.replay} skips too) compared with the
    previous window's by {!Health.kl}, and flagged past the watchdog's
    default [drift_kl]; [""] when there are fewer than two windows.
    Every window spans the largest in-range action id the episodes
    name, so an out-of-range id costs nothing. *)

val curves : Json.t list -> string
(** One sparkline row per series of the progress records (episode
    reward, its two components and size gain, then tick ε and loss),
    each with its count, last, min and max; a series with no points is
    omitted. Also the curve block of [posetrl runs show]. *)

val render :
  ?alerts:Health.alert list option ->
  ?coverage:Coverage.t option ->
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
    histogram. Renders a clear placeholder when [records] is empty.

    [alerts] is the run's alerts as {!Health.alert_of_json} decodes
    {!Run.read_alerts}: [None] — the run predates the watchdog, rendered
    as a "(not recorded)" placeholder, never a blank or garbled row;
    [Some []] — healthy; [Some l] — red rows for the latest alerts.

    [coverage] is the run's table as {!Coverage.of_json} reads
    [Run.read info Coverage]: [None] — absent or corrupt, rendered as
    "(not recorded)"; [Some cov] — its edge / entropy / node summary.

    [serve] is the result of [Run.read info Serve]: [None] — not a serve
    run, the row is simply omitted; [Some doc] — a request / cache-hit /
    queue-depth / latency-percentile summary of the daemon's stats. *)
