(** Deep Q-Network agent with the Double-DQN target (paper §II-B).

    Determinism contracts this module must keep (DESIGN.md §9):
    - all exploration randomness flows through the caller's explicit
      {!Posetrl_support.Rng}; greedy paths consume none of it;
    - each gemm output row depends only on its own input row, with a
      fixed accumulation order ([Posetrl_nn.Matrix]), so a batched
      forward equals a forward per row;
    - [save_weights] prints floats as [%h] (hex), so a save/load round
      trip is bit-exact.

    The record is exposed (not abstract): the trainer snapshots and
    restores [online] via [Mlp.copy_params], and the CI fault injection
    pokes a single weight to exercise the NaN watchdog. *)

open Posetrl_nn

type memo
(** The target network's Q rows since the last {!sync_target}, keyed on
    the state's bits. The keys are the next-state arrays of the batches
    trained on, not copies: a state must not be written after it was
    trained on (the replay and the environment never write one). Emptied
    when it reaches 4,096 rows. *)

type t = {
  online : Mlp.t;   (** selects actions; trained every step-batch *)
  target : Mlp.t;
  (** scores the online pick (van Hasselt fix). Its weights are written
      only through {!sync_target} and {!load_weights}: [target_memo]
      holds its rows until the next sync. *)
  optim : Optim.t;
  gamma : float;
  n_actions : int;
  double : bool;    (** Double DQN (paper) vs vanilla target *)
  target_memo : memo;
  mutable train_steps : int;
}

val create :
  ?gamma:float -> ?lr:float -> ?double:bool -> Posetrl_support.Rng.t ->
  state_dim:int -> hidden:int list -> n_actions:int -> t
(** Fresh online/target networks (identical parameters) drawn from the
    given stream. Defaults: γ 0.99, lr 1e-4, double DQN. *)

val q_values : t -> float array -> float array
(** One online forward; refreshes the posetrl.dqn.q_mean/q_max drift
    gauges as a side effect. *)

val greedy_action : t -> float array -> int

val greedy_actions : t -> float array array -> int array
(** [greedy_action] on every state at once: one online [forward_batch]
    gemm. Each row's action, the posetrl.dqn.forwards count and the
    q_mean/q_max gauges come out exactly as a loop of {!greedy_action}
    over the states would leave them (the gauges hold the last row's
    values). *)

val select_action :
  t -> Posetrl_support.Rng.t -> epsilon:float -> float array -> int
(** ε-greedy: consumes one float from the stream, plus one int draw on
    the explore branch — the exact draw pattern seeds replay on. *)

val train_batch : t -> Replay.transition array -> float
(** One gradient step over the batch; returns the mean Huber loss.
    [0.0] on an empty batch. The TD target is the reward, plus γ times
    the next state's target-network value for non-terminal transitions
    (for double DQN, at the online network's pick).

    Each distinct row is computed once, with the weights bit-identical
    to a forward per row: one online forward covers the batch's distinct
    states and (double DQN) live next states, and the target network's
    rows come from [target_memo] or one forward over its misses. Rows
    are distinct by their bits. posetrl.dqn.learner_rows counts the
    rows both forwards compute, posetrl.dqn.target_memo_hits the
    distinct next states the memo answers. *)

val weights_finite : t -> bool
(** NaN/Inf scan of the online parameters — the watchdog's
    weight-health vital sign. O(params), cheap at tick cadence. *)

val sync_target : t -> unit
(** Copy online parameters into the target network and empty
    [target_memo]. *)

val save_weights : t -> string -> unit
(** Plain-text weight dump ([%h] floats — bit-exact round trip). *)

val load_weights : t -> string -> unit
(** Load weights saved by {!save_weights} into [online] and
    {!sync_target}. The file is checked whole before any weight is written.
    @raise Failure naming the file and the problem: a bad header, an
    architecture mismatch, a missing line, a weight or bias line whose
    value count differs from its layer's size (the message names the
    layer and the expected count), an unparsable value, or data after
    the last layer. *)
