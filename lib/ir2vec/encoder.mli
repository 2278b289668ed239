(** IR2Vec-style program encoding (see encoder.ml for the composition). *)

val embed_program : Posetrl_ir.Modul.t -> Posetrl_support.Vecf.t
(** The 300-dim program embedding: the sum of the defined functions'
    flow-refined instruction embeddings. A fresh vector; counted by
    [posetrl.ir2vec.embeds] and traced as [posetrl.ir2vec.embed]. *)

val embed_program_state : Posetrl_ir.Modul.t -> Posetrl_support.Vecf.t
(** {!embed_program} squashed into the unit ball (direction kept), the
    RL state. *)

val memo_entries : unit -> int
(** Entries in this domain's base-embedding memo, at most
    [Vocabulary.max_entries]. *)
