(* IR2Vec-style program encoding.

   Follows the published composition: an instruction embedding is a
   weighted sum of its opcode, type and operand-kind seed vectors
   (weights 1 / 0.5 / 0.2 as in IR2Vec); a flow-aware refinement then
   adds a damped contribution from the instructions that define each
   operand (the use-def information IR2Vec derives from reaching
   definitions). Function embeddings are sums of their instruction
   embeddings, and the program embedding is the sum over defined
   functions — 300-dimensional, as used by the paper.

   A base embedding depends only on the opcode name, the result type and
   the operand kinds, so it is memoized on them, domain-local and capped
   like the vocabulary's seed cache ([Vocabulary.memo]). Memoized vectors
   are shared and never written: the flow refinement builds each
   instruction's refined vector in one scratch vector per function, with
   the same float operations in the same order as a fresh copy would. *)

open Posetrl_ir
open Posetrl_support

let w_opcode = 1.0
let w_type = 0.5
let w_arg = 0.2
let w_flow = 0.25

let operand_kind (v : Value.t) : string =
  match v with
  | Value.Const (Value.Cint _) -> "const-int"
  | Value.Const (Value.Cfloat _) -> "const-float"
  | Value.Const Value.Cnull -> "const-null"
  | Value.Const (Value.Cundef _) -> "undef"
  | Value.Reg _ -> "variable"
  | Value.Global _ -> "global"

(* Opcode name, result type ([None] for a terminator) and operand kinds:
   everything a base embedding reads. *)
let base_key : (string * Types.t option * string list, Vecf.t) Hashtbl.t
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let memo_entries () = Hashtbl.length (Domain.DLS.get base_key)

let base_embedding ((name, ty, kinds) : string * Types.t option * string list) :
    Vecf.t =
  let acc = Vecf.create Vocabulary.dimension in
  Vecf.axpy ~k:w_opcode acc (Vocabulary.opcode name);
  Option.iter
    (fun ty -> Vecf.axpy ~k:w_type acc (Vocabulary.ty (Types.to_string ty)))
    ty;
  List.iter (fun k -> Vecf.axpy ~k:w_arg acc (Vocabulary.operand_kind k)) kinds;
  acc

let base_insn_embedding (op : Instr.op) : Vecf.t =
  Vocabulary.memo base_key
    ( Instr.opcode_name op,
      Some (Instr.result_ty op),
      List.map operand_kind (Instr.operands op) )
    base_embedding

let base_term_embedding (t : Instr.term) : Vecf.t =
  Vocabulary.memo base_key
    (Instr.term_name t, None, List.map operand_kind (Instr.term_operands t))
    base_embedding

(* Function-level embedding with one round of use-def flow refinement. *)
let embed_func (f : Func.t) : Vecf.t =
  let acc = Vecf.create Vocabulary.dimension in
  if not (Func.is_declaration f) then begin
    (* base embeddings per defining register *)
    let base : (int, Vecf.t) Hashtbl.t = Hashtbl.create 64 in
    Func.iter_insns
      (fun _ i ->
        if i.Instr.id >= 0 then
          Hashtbl.replace base i.Instr.id (base_insn_embedding i.Instr.op))
      f;
    (* acc += self + w_flow * (the base of each operand's definition) *)
    let v = Vecf.create Vocabulary.dimension in
    let add_refined (self : Vecf.t) (operands : Value.t list) =
      Array.blit self 0 v 0 Vocabulary.dimension;
      List.iter
        (fun operand ->
          match operand with
          | Value.Reg r ->
            (match Hashtbl.find_opt base r with
             | Some def -> Vecf.axpy ~k:w_flow v def
             | None -> ())
          | _ -> ())
        operands;
      Vecf.add_inplace acc v
    in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            let self =
              if i.Instr.id >= 0 then Hashtbl.find base i.Instr.id
              else base_insn_embedding i.Instr.op
            in
            add_refined self (Instr.operands i.Instr.op))
          b.Block.insns;
        (* terminators contribute too; flow refinement over their uses *)
        add_refined (base_term_embedding b.Block.term)
          (Instr.term_operands b.Block.term))
      f.Func.blocks
  end;
  acc

let embed_program_raw (m : Modul.t) : Vecf.t =
  let acc = Vecf.create Vocabulary.dimension in
  List.iter
    (fun f -> if not (Func.is_declaration f) then Vecf.add_inplace acc (embed_func f))
    m.Modul.funcs;
  acc

module Obs = Posetrl_obs

let m_embeds = Obs.Metrics.counter "posetrl.ir2vec.embeds"

let embed_program (m : Modul.t) : Vecf.t =
  Obs.Metrics.inc m_embeds;
  Obs.Span.with_ "posetrl.ir2vec.embed" (fun _ -> embed_program_raw m)

(* Bounded variant used as the RL state: direction preserved, magnitude
   squashed into the unit ball so network inputs stay well-scaled across
   programs of very different sizes. *)
let embed_program_state (m : Modul.t) : Vecf.t =
  let e = embed_program m in
  let n = Vecf.norm2 e in
  if n < 1e-9 then e else Vecf.scale (1.0 /. (1.0 +. n)) e
