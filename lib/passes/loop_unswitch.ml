(* -loop-unswitch: hoist loop-invariant conditions out of loops.

   When a conditional branch inside a loop tests a loop-invariant value,
   the loop is duplicated: the preheader tests the condition once and
   enters a version of the loop specialized to each outcome, in which the
   branch is folded. Classic speed-for-size trade; gated by a body-size
   budget that shrinks with the size level. *)

open Posetrl_ir

let size_budget (cfg : Config.t) =
  match cfg.Config.size_level with
  | 0 -> 60
  | 1 -> 24
  | _ -> 10

let unswitch_one (cfg : Config.t) (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader with
  | None -> None
  | Some pre ->
    let v = Utils.view f loop in
    let in_loop = Utils.in_loop loop in
    if v.Utils.size > size_budget cfg then None
    else begin
      (* find an in-loop cbr on an invariant, non-constant condition whose
         both targets are inside the loop *)
      let candidate =
        List.find_map
          (fun (b : Block.t) ->
            match b.Block.term with
            | Instr.Cbr ((Value.Reg _ as c), t, e)
              when Utils.invariant v c && in_loop t && in_loop e && not (String.equal t e) ->
              Some (b.Block.label, c, t, e)
            | _ -> None)
          v.Utils.blocks
      in
      match candidate with
      | None -> None
      | Some (br_block, cond, t_lbl, e_lbl) ->
        (* values defined in the loop and used outside must flow through
           exit phis for the clone's exits to merge *)
        if Utils.exists_outside_use v f (fun site _ -> site = Utils.Operand) then None
        else begin
          let counter = Func.fresh_counter f in
          let rename l = if in_loop l then l ^ ".us" else l in
          let cloned, find =
            Clone.clone_blocks ~counter ~rename_label:rename ~init_map:[] v.Utils.blocks
          in
          (* specialize: original takes the true arm, clone the false arm;
             the abandoned target in each copy loses the branch block as a
             predecessor, so its phis must drop that entry *)
          let orig_blocks =
            List.map
              (fun (b : Block.t) ->
                if String.equal b.Block.label br_block then
                  { b with Block.term = Instr.Br t_lbl }
                else if String.equal b.Block.label e_lbl then
                  Block.remove_phi_pred ~pred:br_block b
                else b)
              v.Utils.blocks
          in
          let cloned =
            List.map
              (fun (b : Block.t) ->
                if String.equal b.Block.label (rename br_block) then
                  { b with Block.term = Instr.Br (rename e_lbl) }
                else if String.equal b.Block.label (rename t_lbl) then
                  Block.remove_phi_pred ~pred:(rename br_block) b
                else b)
              cloned
          in
          (* preheader now tests the condition *)
          let blocks =
            f.Func.blocks
            |> List.filter (fun (b : Block.t) -> not (in_loop b.Block.label))
            |> List.map (fun (b : Block.t) ->
                   if String.equal b.Block.label pre then
                     { b with
                       Block.term = Instr.Cbr (cond, loop.Loops.header, rename loop.Loops.header) }
                   else if List.mem b.Block.label loop.Loops.exits then
                     (* exit phis gain entries from the cloned exiting blocks *)
                     Block.map_insns
                       (fun (i : Instr.t) ->
                         match i.Instr.op with
                         | Instr.Phi (ty, incs) ->
                           let extra =
                             List.filter_map
                               (fun (l, v) ->
                                 if in_loop l then
                                   let v' =
                                     match v with
                                     | Value.Reg r ->
                                       (match find r with Some v' -> v' | None -> v)
                                     | _ -> v
                                   in
                                   Some (rename l, v')
                                 else None)
                               incs
                           in
                           { i with Instr.op = Instr.Phi (ty, incs @ extra) }
                         | _ -> i)
                       b
                   else b)
          in
          let f' =
            Func.with_blocks ~next_id:counter.Func.next f (blocks @ orig_blocks @ cloned)
          in
          Some (Utils.remove_unreachable_blocks f')
        end
    end

let run_func (cfg : Config.t) (f : Func.t) : Func.t =
  (* one unswitch per pass invocation per function keeps growth bounded *)
  Loop_simplify.loop_simplify_func cfg f |> Utils.rewrite_loops ~rounds:1 (unswitch_one cfg)

let pass =
  Pass.function_pass "loop-unswitch"
    ~description:"duplicate loops to hoist invariant conditions" run_func
