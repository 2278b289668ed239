(** Offline trace analysis behind [posetrl report]: a JSONL trace
    (written by {!Sink.jsonl}) folded into {!Prof}'s hotspot table plus
    per-pass and per-action tables. *)

type pass_row = {
  pr_pass : string;
  pr_count : int;
  pr_cum : float;
  pr_self : float;
  pr_d_insns : int;              (** Σ instruction-count delta (size proxy) *)
}

type action_row = {
  ar_action : int;
  ar_passes : string;
  ar_count : int;
  ar_cum : float;
  ar_d_size : float;             (** Σ object-size delta, bytes *)
  ar_mean_reward : float;
}

val read_trace : string -> Event.t list * int
(** Read a JSONL trace through {!Runlog.read_jsonl}. Lines that are not
    JSON or not an {!Event} (e.g. a final line torn by a killed
    process) are skipped; the second component counts them. *)

val passes : Event.t list -> pass_row list
(** Aggregate events carrying a ["pass"] attribute by pass name,
    sorted by cumulative time descending. *)

val actions : Event.t list -> action_row list
(** Aggregate [posetrl.env.step] events by action index. *)

val render : ?top_k:int -> Event.t list -> string
(** The full report: {!Prof.render}'s hotspot table ([top_k] rows,
    default 20), then the per-pass and per-action tables. *)
