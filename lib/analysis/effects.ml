(* Memory-effect and call-purity summaries, plus the pointer-escape
   helpers dead-store elimination consumes.

   Summaries form a three-point chain Pure < ReadOnly < ReadWrite and
   are computed by a fixpoint over the direct call graph: a function's
   effect is the join of its instructions' effects, with calls resolved
   through the current summary table. Declarations contribute what their
   attributes promise ([readnone] / [readonly]) and ReadWrite otherwise;
   indirect calls are always ReadWrite. Effects only grow toward
   ReadWrite, so the fixpoint terminates in at most 2*|funcs| rounds.

   All state lives in the summary value returned to the caller — nothing
   global — so summaries can be computed concurrently across domains. *)

open Posetrl_ir
module ISet = Set.Make (Int)
module SMap = Map.Make (String)

type effect_kind = Pure | ReadOnly | ReadWrite

let effect_to_string = function
  | Pure -> "pure"
  | ReadOnly -> "readonly"
  | ReadWrite -> "readwrite"

let join_effect a b =
  match a, b with
  | ReadWrite, _ | _, ReadWrite -> ReadWrite
  | ReadOnly, _ | _, ReadOnly -> ReadOnly
  | Pure, Pure -> Pure

type t = { summaries : effect_kind SMap.t }

let declared_effect (f : Func.t) : effect_kind =
  if Func.has_attr Attrs.readnone f then Pure
  else if Func.has_attr Attrs.readonly f then ReadOnly
  else ReadWrite

(* Effect of one instruction under the summary table [tbl]. *)
let insn_effect (tbl : effect_kind SMap.t) (op : Instr.op) : effect_kind =
  match op with
  | Instr.Call (_, callee, _) ->
    Option.value (SMap.find_opt callee tbl) ~default:ReadWrite
  | Instr.Callind _ -> ReadWrite
  | Instr.Memcpy _ | Instr.Store _ -> ReadWrite
  | Instr.Load _ -> ReadOnly
  | Instr.Intrinsic (name, _, _) ->
    (match name with
     | "assume" | "lifetime.start" | "lifetime.end" | "expect" -> Pure
     | _ -> ReadWrite)
  | _ -> Pure

let func_effect (tbl : effect_kind SMap.t) (f : Func.t) : effect_kind =
  Func.fold_insns
    (fun acc _ i -> join_effect acc (insn_effect tbl i.Instr.op))
    Pure f

let summarize (m : Modul.t) : t =
  let init =
    List.fold_left
      (fun tbl (f : Func.t) ->
        let e = if Func.is_declaration f then declared_effect f else Pure in
        SMap.add f.Func.name e tbl)
      SMap.empty m.Modul.funcs
  in
  let defined = Modul.defined_funcs m in
  let rec fix tbl round =
    (* effects only grow along a 3-point chain, so 2*|funcs|+1 rounds
       always suffice; the bound is a belt against future edits *)
    if round > (2 * List.length m.Modul.funcs) + 1 then tbl
    else
      let changed = ref false in
      let tbl' =
        List.fold_left
          (fun tbl (f : Func.t) ->
            let cur = Option.value (SMap.find_opt f.Func.name tbl) ~default:Pure in
            let e = join_effect cur (func_effect tbl f) in
            if e <> cur then changed := true;
            SMap.add f.Func.name e tbl)
          tbl defined
      in
      if !changed then fix tbl' (round + 1) else tbl'
  in
  { summaries = fix init 0 }

let effect_of (t : t) name =
  Option.value (SMap.find_opt name t.summaries) ~default:ReadWrite

(* Defined functions whose computed summary is strictly better than what
   their attributes claim — candidates for a purity annotation. *)
let missing_purity_attrs (t : t) (m : Modul.t) : (string * effect_kind) list =
  List.filter_map
    (fun (f : Func.t) ->
      match effect_of t f.Func.name with
      | Pure when not (Func.has_attr Attrs.readnone f) ->
        Some (f.Func.name, Pure)
      | ReadOnly
        when not (Func.has_attr Attrs.readonly f)
             && not (Func.has_attr Attrs.readnone f) ->
        Some (f.Func.name, ReadOnly)
      | _ -> None)
    (Modul.defined_funcs m)

(* Defined functions carrying an attribute their body contradicts, e.g.
   [readnone] on a function that stores. A pass that infers attributes
   incorrectly shows up here before it miscompiles anything. *)
let contradicted_attrs (t : t) (m : Modul.t) : (string * string * effect_kind) list =
  List.concat_map
    (fun (f : Func.t) ->
      let e = effect_of t f.Func.name in
      let bad attr limit =
        if Func.has_attr attr f && join_effect e limit <> limit then
          [ (f.Func.name, attr, e) ]
        else []
      in
      bad Attrs.readnone Pure @ bad Attrs.readonly ReadOnly)
    (Modul.defined_funcs m)

(* --- pointer-escape helpers (shared with the dse pass) ------------------- *)

(* Allocas that never escape the function: used only as load sources,
   store destinations, or gep bases — never stored as a value, passed to
   a call, returned, or fed to a gep as base/index. The traversal below
   is the exact classification dse has always used. *)
let private_allocas (f : Func.t) : ISet.t =
  let allocas =
    Func.fold_insns
      (fun acc _ i ->
        match i.Instr.op with Instr.Alloca _ -> ISet.add i.Instr.id acc | _ -> acc)
      ISet.empty f
  in
  let escaped = ref ISet.empty in
  let check v =
    match v with
    | Value.Reg r when ISet.mem r allocas -> escaped := ISet.add r !escaped
    | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Load (_, _) -> ()
          | Instr.Store (_, v, _) -> check v
          | Instr.Gep (_, base, idx) -> check base; check idx
          | op -> List.iter check (Instr.operands op))
        b.Block.insns;
      List.iter check (Instr.term_operands b.Block.term))
    f.Func.blocks;
  ISet.diff allocas !escaped

(* Registers read through directly anywhere in [f]: [loaded] collects
   load/memcpy sources, [gep_based] gep bases (a gep on a private alloca
   is treated as a read barrier by dse). *)
let read_roots (f : Func.t) : ISet.t * ISet.t =
  let loaded = ref ISet.empty in
  let gep_based = ref ISet.empty in
  Func.iter_insns
    (fun _ i ->
      match i.Instr.op with
      | Instr.Load (_, Value.Reg r) -> loaded := ISet.add r !loaded
      | Instr.Gep (_, Value.Reg r, _) -> gep_based := ISet.add r !gep_based
      | Instr.Memcpy (_, Value.Reg r, _) -> loaded := ISet.add r !loaded
      | _ -> ())
    f;
  (!loaded, !gep_based)

(* Indices (within [b.insns]) of stores overwritten by a later store to
   the same pointer in the same block with no intervening read, call or
   memcpy — the same forward scan dse performs. *)
let overwritten_store_indices (b : Block.t) : (int, unit) Hashtbl.t =
  let pending : (Value.t, int ref) Hashtbl.t = Hashtbl.create 8 in
  let dead : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun idx (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Store (_, _, p) ->
        (match Hashtbl.find_opt pending p with
         | Some prev -> Hashtbl.replace dead !prev ()
         | None -> ());
        Hashtbl.replace pending p (ref idx)
      | Instr.Load _ | Instr.Call _ | Instr.Callind _ | Instr.Memcpy _ ->
        Hashtbl.reset pending
      | _ -> ())
    b.Block.insns;
  dead

(* Dead-store findings for lint: (block, insn index, reason). *)
let dead_stores (f : Func.t) : (string * int * string) list =
  let priv = private_allocas f in
  let loaded, gep_based = read_roots f in
  let never_read r =
    ISet.mem r priv && (not (ISet.mem r loaded)) && not (ISet.mem r gep_based)
  in
  List.concat_map
    (fun (b : Block.t) ->
      let overwritten = overwritten_store_indices b in
      List.concat
        (List.mapi
           (fun idx (i : Instr.t) ->
             if Hashtbl.mem overwritten idx then
               [ (b.Block.label, idx, "overwritten before any read") ]
             else
               match i.Instr.op with
               | Instr.Store (_, _, Value.Reg r) when never_read r ->
                 [ (b.Block.label, idx, "private alloca never read") ]
               | _ -> [])
           b.Block.insns))
    f.Func.blocks
