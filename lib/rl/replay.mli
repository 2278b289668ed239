(** Replay memory: a fixed-capacity ring of transitions with uniform
    sampling (paper §V-A).

    Determinism contract: all randomness comes from the caller's
    explicit {!Posetrl_support.Rng} stream — {!sample} draws exactly
    [n] indices from it whatever the buffer contents, and push order is
    the step-stream order, so replay (and everything trained from it)
    is byte-identical per seed. *)

type transition = {
  state : float array;
  action : int;
  reward : float;
  next_state : float array option; (** [None] marks a terminal step *)
}

type t

val create : int -> t
(** @raise Invalid_argument if the capacity is not positive. *)

val size : t -> int
val capacity : t -> int

val push : ?step:int -> t -> transition -> unit
(** Append (overwriting the oldest slot once full). [step] is the
    global step index the transition was collected at — the timestamp
    behind {!mean_age} (defaults to 0 for callers that don't track
    TD-age). *)

val mean_age : now:int -> t -> float
(** Mean TD-age (in steps, relative to [now]) of the buffered
    transitions — the replay-health vital sign the watchdog's
    replay_stale rule reads. A healthy saturated ring sits near
    capacity/2. *)

val sample : Posetrl_support.Rng.t -> t -> int -> transition array
(** [sample rng t n] — [n] uniform draws (with replacement) from the
    occupied slots, consuming exactly [n] ints from [rng].
    @raise Invalid_argument on an empty buffer. *)
