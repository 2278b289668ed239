(* Demanded registers: what observable behaviour transitively reads,
   chased backward through use-def chains.

   [demand_closure] is the mark phase of aggressive DCE factored out so
   the dce pass and the lint dead-code report share one implementation:
   seed from the side-effect roots, then chase operands through the def
   table. *)

open Posetrl_ir

(* Registers transitively demanded by observable behaviour: terminator
   operands and side-effecting instructions are roots; demand propagates
   backward through operand chains via the def table. This is exactly
   the mark phase of -adce; the table maps demanded register -> (). *)
let demand_closure (f : Func.t) : (int, unit) Hashtbl.t =
  let defs = Func.def_map f in
  let live = Hashtbl.create 64 in
  let work = Queue.create () in
  let mark v =
    match v with
    | Value.Reg r when not (Hashtbl.mem live r) ->
      Hashtbl.replace live r ();
      Queue.add r work
    | _ -> ()
  in
  (* roots: terminator operands and side-effecting instructions *)
  List.iter
    (fun (b : Block.t) ->
      List.iter mark (Instr.term_operands b.Block.term);
      List.iter
        (fun (i : Instr.t) ->
          if Instr.has_side_effects i.Instr.op then begin
            if i.Instr.id >= 0 then begin
              Hashtbl.replace live i.Instr.id ();
              Queue.add i.Instr.id work
            end;
            List.iter mark (Instr.operands i.Instr.op)
          end)
        b.Block.insns)
    f.Func.blocks;
  while not (Queue.is_empty work) do
    let r = Queue.pop work in
    match Hashtbl.find_opt defs r with
    | Some (_, i) -> List.iter mark (Instr.operands i.Instr.op)
    | None -> () (* parameter *)
  done;
  live

(* Instructions the demand closure does NOT reach — dead code -adce
   would delete: (block, id) of every undemanded pure result. *)
let undemanded (f : Func.t) : (string * int) list =
  let live = demand_closure f in
  List.concat_map
    (fun (b : Block.t) ->
      List.filter_map
        (fun (i : Instr.t) ->
          if i.Instr.id >= 0
             && (not (Hashtbl.mem live i.Instr.id))
             && not (Instr.has_side_effects i.Instr.op)
          then Some (b.Block.label, i.Instr.id)
          else None)
        b.Block.insns)
    f.Func.blocks
