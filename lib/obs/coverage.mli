(** Decision-space coverage over the ODG: which nodes/edges of the Oz
    Dependence Graph the policy actually walks, how its action
    distribution evolves, and a bucketed sketch of the visited state
    space (see DESIGN.md §13).

    The table is a pure fold over the in-order step stream, so it is
    byte-deterministic per seed — an eval's is identical for
    [--jobs 1] and [--jobs 4] — and {!Fold.recompute} recomputes it float-exactly
    from the run ledger. Only the state sketch is not
    ledger-recomputable (states are not persisted) and is therefore
    excluded from {!equal}. The module is a {!Fold.S}. *)

type universe = {
  nodes : string array;          (** pass names (ODG nodes first, then
                                     any extra passes the action space
                                     references) *)
  edges : (int * int) array;     (** ODG edges as node-index pairs *)
  action_paths : int array array; (** per action, its pass path as node
                                      indices *)
}
(** The fixed decision space a table counts against — plain arrays so
    this layer needs no dependency on [Posetrl_odg] (which builds one
    via [Action_space.coverage_universe]). *)

type t

val create :
  ?registry:Metrics.t -> ?sketch_bits:int -> ?sketch_seed:int ->
  ?state_dim:int -> universe -> t
(** A fresh table. [registry] opts into posetrl.coverage.* gauges
    (published on {!sample}); recomputed tables stay silent. The state
    sketch hashes embeddings into [2^sketch_bits] buckets (default 6)
    through a projection seeded by [sketch_seed] — fixed defaults keep
    tables comparable across runs. [state_dim] defaults to the IR2Vec
    embedding width (300).
    @raise Invalid_argument on an empty action set or out-of-range
    indices in the universe. *)

val observe :
  t -> action:int -> pos:int -> reward:float -> r_binsize:float ->
  r_throughput:float -> unit
(** Fold one environment step. [pos] is the position within the
    episode; [pos = 0] marks an episode boundary (resets the
    transition predecessor). Credits node visits along the action's
    path, intra-path ODG edges, the junction edge from the previous
    action's last pass, the action histogram and the transition
    matrix. Must be called in step-stream order — the determinism
    contract is the same as [Attrib]'s.
    @raise Invalid_argument if [action] is out of range. *)

val observe_state : t -> float array -> unit
(** Fold one (pre-action) IR2Vec embedding into the visitation sketch:
    the sign pattern of the seeded projections selects a bucket. The
    first call builds the projection ([sketch_bits × state_dim]). *)

val sample : t -> step:int -> unit
(** Append a (step, edge-coverage %, entropy bits) point to the time
    series and publish the posetrl.coverage.* gauges (when created
    with a registry). The trainer calls this once per progress tick. *)

(** {1 Readings} *)

val n_actions : t -> int
val steps : t -> int
val episodes : t -> int
val node_count : t -> int
val edge_count : t -> int
val node_visits : t -> int -> int
val transition : t -> from:int -> to_:int -> int

val nodes_visited : t -> int
val edges_visited : t -> int

val edge_pct : t -> float
(** Percentage of universe edges with at least one visit. *)

val entropy : t -> float
(** Shannon entropy (bits) of the cumulative action distribution;
    [log2 n_actions] when uniform, 0 when collapsed (or empty). *)

val series : t -> (int * float * float) list
(** The sampled (step, edge %, entropy) points, oldest first. *)

val top_edges : t -> k:int -> (int * int * int * float * float * float) list
(** The [k] most-visited edges as [(u, v, count, reward_total,
    r_binsize_total, r_throughput_total)], count-descending with
    universe-index tie-break (deterministic). *)

val top_transitions : t -> k:int -> (int * int * int) list
(** The [k] most frequent action→action transitions. *)

val sketch_buckets : t -> int array
val sketch_occupied : t -> int
(** Buckets with at least one visit (of [2^sketch_bits]). *)

val equal : t -> t -> bool
(** Exact structural equality (floats via [Float.equal]) over
    everything recomputable from the run ledger: universe, counts,
    edge cells, transitions, series. The sketch and the mid-stream
    transition cursor are excluded (see module doc). *)

(** {1 Persistence and recompute} *)

val to_json : t -> Json.t
(** The coverage.json document: self-contained (embeds the universe),
    floats as %.17g so a reload round-trips exactly. *)

val of_json : Json.t -> t option
(** Total reader over {!Json.decode}: [None] on anything structurally
    off, never an exception. It decodes every array and checks it
    against the universe before it allocates the table, and a table read
    this way never builds the sketch projection. *)

(** {1 The step-stream fold ({!Fold.S})} *)

val name : string
val file : string
val stream : string
val missing : string

val observe_step : t -> Fold.step -> unit
(** {!observe_state} on the step's state, when it has one, then
    {!observe}. *)

val fresh : t -> t
(** An empty table over the same universe, publishing no gauges (with
    the default sketch: a ledger replay folds no states). *)

val summary : t -> string * (string * Json.t) list
(** The console line a finished training run prints (edges visited and
    entropy) and its manifest fields [coverage_edge_pct] and
    [coverage_entropy_bits]. *)

val render : top:int -> t -> string
(** The coverage section of [posetrl runs show]: steps, episodes, edge
    and node coverage, action entropy against its maximum, sketch
    occupancy, then the [top] hottest edges (mean reward split per
    visit) and the [top] most frequent action transitions. *)

val render_shift : base:t -> cand:t -> string
(** The coverage line of [posetrl runs compare]: edge %, entropy and
    nodes visited, base → candidate. *)

val to_dot : ?k:int -> t -> string
(** Heat-annotated Graphviz rendering of the universe, structurally
    compatible with [Posetrl_odg.Graph.to_dot] ([k] is the critical-
    node degree threshold): visited edges colour-ramp grey → red with
    penwidth and a count label by log-scaled visits, unvisited edges
    dashed light-grey. *)
