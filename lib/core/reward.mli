(** Reward computation (paper §III-C, Eqns 1–3).

    [R = α·R_BinSize + β·R_Throughput] where [R_BinSize] is the per-step
    object-size delta and [R_Throughput] the per-step static-throughput
    delta, both normalized by the unoptimized module's measurement. *)

type weights = { alpha : float; beta : float }

val paper_weights : weights
(** α = 10, β = 5 (paper §V-A). *)

type measurement = {
  bin_size : float;    (** object-file bytes *)
  throughput : float;  (** MCA static throughput; higher = faster *)
}

type baseline = measurement
(** The unoptimized module's measurement, fixed per episode. *)

val r_binsize : base:baseline -> last:measurement -> curr:measurement -> float
(** Eqn 2: [(last − curr) / base] on sizes. *)

val r_throughput : base:baseline -> last:measurement -> curr:measurement -> float
(** Eqn 3: [(curr − last) / base] on throughputs. *)

type components = {
  total : float;       (** Eqn 1: [α·binsize + β·throughput] *)
  binsize : float;     (** Eqn 2, unweighted *)
  throughput : float;  (** Eqn 3, unweighted *)
}

val decompose :
  ?weights:weights -> base:baseline -> last:measurement -> curr:measurement ->
  unit -> components
(** Eqn 1 plus its unweighted Eqn-2/3 components, which the run ledger
    persists per step ([progress.jsonl]). *)

val measure : Posetrl_codegen.Target.t -> Posetrl_ir.Modul.t -> measurement
(** Object size and MCA throughput of a module, read off one lowering
    ({!Posetrl_mca.Mca.measure}). *)
