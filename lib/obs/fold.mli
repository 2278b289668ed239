(** Step-stream folds: streaming tables built from the environment-step
    stream — per-action reward attribution ([Posetrl_rl.Attrib]) and
    decision-space coverage ({!Coverage}) — behind one signature, so
    the trainer, the CLI's live routes and ledger writes, and the run
    report handle every fold through one list (see DESIGN.md §12).

    A fold is a pure fold over the in-order step stream, so its table
    is byte-deterministic per seed and a ledger replay of the run's
    progress records recomputes it exactly ({!recompute}). *)

type step = {
  action : int;
  pos : int;  (** position in the episode; 0 starts an episode *)
  reward : float;
  r_binsize : float;
  r_throughput : float;
  state : float array option;
      (** the pre-action embedding when the loop has one (training);
          [None] (eval, ledger replays) leaves coverage's state sketch
          alone *)
}
(** One environment step: the action, its position and the Eqn-1
    reward with its two components. *)

module type S = sig
  type t

  val name : string
  (** The fold's name in the run report, e.g. ["coverage"]. *)

  val file : string
  (** Its document in a run directory, e.g. ["coverage.json"]. *)

  val stream : string
  (** What its recompute check replays, e.g. ["step"]. *)

  val missing : string
  (** What a ledger without per-step records lacks, for the check line. *)

  val n_actions : t -> int
  val steps : t -> int

  val observe_step : t -> step -> unit
  (** Fold one step; must be called in step-stream order. *)

  val sample : t -> step:int -> unit
  (** The trainer's progress tick at global step [step]. *)

  val to_json : t -> Json.t
  val of_json : Json.t -> t option
  (** Total reader: [None] on anything structurally off. *)

  val equal : t -> t -> bool
  (** Exact equality over everything a ledger replay recomputes. *)

  val fresh : t -> t
  (** An empty table of the same shape publishing no gauges: what
      {!recompute} replays into. *)

  val render : top:int -> t -> string
  (** The fold's section of [posetrl runs show]. *)

  val render_shift : base:t -> cand:t -> string
  (** The fold's informational shift in [posetrl runs compare]. *)

  val summary : t -> string * (string * Json.t) list
  (** What a finished training run reports of the table: a console
      line ([""] for none) and the fields its manifest result carries. *)
end

type t = Fold : (module S with type t = 'a) * 'a -> t
(** A live table with its fold. *)

val observe : t list -> step -> unit
val sample : t list -> step:int -> unit

val route : t -> string * (unit -> Json.t option)
(** The table's live document route for {!Httpd.telemetry_handler}: its
    file name without [.json], serving {!S.to_json}'s current value —
    the bytes {!write} puts in the ledger. *)

val write : Run.t -> t -> unit
(** Write the table's document into the run directory. *)

val summary : t -> string * (string * Json.t) list

val read : (module S with type t = 'a) -> Run.info -> 'a option
(** A run's table, or [None] when the document is absent or invalid. *)

val episode_steps : Json.t -> step list
(** The steps of one ["episode"] record, without states: its
    {!Runlog.episode_actions} zipped with the per-step reward triples
    {!Runlog.episode_record} writes; [[]] for records without the step
    stream (or whose two arrays differ in length). *)

val replay :
  n_actions:int -> observe:(step -> unit) -> sample:(step:int -> unit) ->
  Json.t list -> unit
(** Replay progress records (in file order) as the trainer's step
    stream: [observe] gets every step of every episode record in order
    (without a state), and [sample] every tick step, called after all
    steps with a global index up to it and before the first later one
    (global indices are recovered from each episode record's end
    [step]). Steps whose action is [>= n_actions] are skipped. *)

val recompute : (module S with type t = 'a) -> 'a -> Json.t list -> 'a
(** {!replay} progress records into [fresh] of the given table. The
    result is [equal] to the streaming table of the same run. *)

val section : top:int -> Run.info -> Json.t list -> (module S) -> string
(** A fold's section of the run report: its table and the check that
    the table equals its recompute from [records], or the one line
    saying why the run has no table. *)

val shift :
  (module S with type t = 'a) -> base:'a option -> cand:'a option -> string
(** A fold's shift between two runs' tables ({!S.render_shift}), or the
    line saying that at least one run has none. *)
