(* Region cloning with register and label renaming.

   Shared by the inliner, loop unrolling, unswitching and distribution:
   clones a set of blocks, giving every defined register a fresh id and
   every block a new label, while leaving references to values and labels
   outside the region untouched. *)

open Posetrl_ir

(* [clone_blocks ~counter ~rename_label ~init_map blocks] returns the
   cloned blocks plus the substitution that was applied, so callers can
   find where a region value went. [init_map] pre-seeds register
   substitutions (e.g. parameter -> argument for inlining); registers
   defined inside the region get fresh ids. [rename_label l] must return
   [l] itself for labels outside the region. *)
let clone_blocks ~(counter : Func.counter) ~(rename_label : string -> string)
    ~(init_map : (int * Value.t) list) (blocks : Block.t list) :
    Block.t list * (int -> Value.t option) =
  let reg_map : (int, Value.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun (r, v) -> Hashtbl.replace reg_map r v) init_map;
  (* first pass: allocate fresh ids for every definition in the region *)
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          if i.Instr.id >= 0 then
            Hashtbl.replace reg_map i.Instr.id (Value.Reg (Func.fresh counter)))
        b.Block.insns)
    blocks;
  let subst v =
    match v with
    | Value.Reg r -> (match Hashtbl.find_opt reg_map r with Some v' -> v' | None -> v)
    | _ -> v
  in
  let new_id old =
    match Hashtbl.find_opt reg_map old with
    | Some (Value.Reg r) -> r
    | _ -> old
  in
  let cloned =
    List.map
      (fun (b : Block.t) ->
        let insns =
          List.map
            (fun (i : Instr.t) ->
              let op = Instr.map_operands subst i.Instr.op in
              let op =
                match op with
                | Instr.Phi (ty, incs) ->
                  Instr.Phi (ty, List.map (fun (l, v) -> (rename_label l, v)) incs)
                | op -> op
              in
              Instr.mk (if i.Instr.id >= 0 then new_id i.Instr.id else i.Instr.id) op)
            b.Block.insns
        in
        let term =
          b.Block.term |> Instr.map_term_operands subst
          |> Instr.map_term_labels rename_label
        in
        Block.mk (rename_label b.Block.label) insns term)
      blocks
  in
  (cloned, fun r -> Hashtbl.find_opt reg_map r)
