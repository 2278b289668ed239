(* -loop-rotate: convert top-tested (while) loops into bottom-tested
   (do-while) loops.

   The exit test of the header is duplicated into the preheader (guarding
   loop entry) and into the latch (deciding the backedge); the header's
   own branch then provably always enters the body and is rewritten to an
   unconditional branch. This removes one taken branch per iteration and
   is the canonical enabler for latch-tested unrolling — at the price of
   duplicated test code, the classic size/speed trade the paper's action
   sub-sequences exercise. *)

open Posetrl_ir
module ISet = Set.Make (Int)

let max_duplicated_insns = 16

let rotate_one (f : Func.t) (loop : Loops.loop) : Func.t * bool =
  match loop.Loops.preheader, loop.Loops.latches with
  | Some pre, [ latch ] when not (String.equal latch loop.Loops.header) ->
    let header = Func.find_block_exn f loop.Loops.header in
    let latch_blk = Func.find_block_exn f latch in
    (match header.Block.term, latch_blk.Block.term with
     | Instr.Cbr (cond, t, e), Instr.Br back when String.equal back loop.Loops.header ->
       let in_loop = Utils.in_loop loop in
       let inner, exit_lbl, exit_on_false =
         if in_loop t && not (in_loop e) then (t, e, true)
         else if in_loop e && not (in_loop t) then (e, t, false)
         else ("", "", true)
       in
       (* an exit that is also the preheader (an inner loop exiting
          straight back to its outer header) would need its phis both
          guarded and redirected: leave such a loop alone *)
       if String.equal inner "" || String.equal inner loop.Loops.header
          || String.equal exit_lbl pre
       then (f, false)
       else begin
         let phis, body_insns = Block.split_phis header in
         if List.length body_insns > max_duplicated_insns
            || not (List.for_all (fun (i : Instr.t) -> Instr.is_pure i.Instr.op) body_insns)
         then (f, false)
         else begin
           (* header-defined registers (phis + body) *)
           let header_defs =
             List.fold_left
               (fun acc (i : Instr.t) ->
                 if i.Instr.id >= 0 then ISet.add i.Instr.id acc else acc)
               ISet.empty header.Block.insns
           in
           (* outside uses of loop-defined regs must go through exit phis,
              and an exit phi's entry from the header must be a value the
              header computes *)
           let bad_outside_use =
             Utils.exists_outside_use (Utils.view f loop) f (fun site r ->
                 match site with
                 | Utils.Exit_phi { exit; pred } when String.equal exit exit_lbl ->
                   String.equal pred loop.Loops.header && not (ISet.mem r header_defs)
                 | _ -> true)
           in
           if bad_outside_use then (f, false)
           else begin
             let counter = Func.fresh_counter f in
             (* substitution of header phis by their incoming value on a
                given edge *)
             let phi_map edge_label =
               List.filter_map
                 (fun (i : Instr.t) ->
                   match i.Instr.op with
                   | Instr.Phi (_, incs) ->
                     Option.map (fun v -> (i.Instr.id, v)) (List.assoc_opt edge_label incs)
                   | _ -> None)
                 phis
             in
             let clone_test init_map =
               let blk = Block.mk "tmp" body_insns (Instr.Br "tmp") in
               let cloned, find =
                 Clone.clone_blocks ~counter ~rename_label:(fun l -> l) ~init_map [ blk ]
               in
               let insns = (List.hd cloned).Block.insns in
               let subst v =
                 match v with
                 | Value.Reg r -> (match find r with Some v' -> v' | None -> v)
                 | _ -> v
               in
               (insns, subst)
             in
             let pre_insns, pre_subst = clone_test (phi_map pre) in
             let latch_insns, latch_subst = clone_test (phi_map latch) in
             let pre_cond = pre_subst cond in
             let latch_cond = latch_subst cond in
             let mk_cbr c =
               if exit_on_false then Instr.Cbr (c, loop.Loops.header, exit_lbl)
               else Instr.Cbr (c, exit_lbl, loop.Loops.header)
             in
             let blocks =
               List.map
                 (fun (b : Block.t) ->
                   if String.equal b.Block.label pre then
                     { b with
                       Block.insns = b.Block.insns @ pre_insns;
                       Block.term = mk_cbr pre_cond }
                   else if String.equal b.Block.label loop.Loops.header then
                     { b with Block.term = Instr.Br inner }
                   else if String.equal b.Block.label latch then
                     { b with
                       Block.insns = b.Block.insns @ latch_insns;
                       Block.term = mk_cbr latch_cond }
                   else if String.equal b.Block.label exit_lbl then
                     (* exit preds: header -> {pre, latch} *)
                     Block.map_insns
                       (fun (i : Instr.t) ->
                         match i.Instr.op with
                         | Instr.Phi (ty, incs) ->
                           (match List.assoc_opt loop.Loops.header incs with
                            | None -> i
                            | Some v ->
                              let others =
                                List.filter
                                  (fun (l, _) -> not (String.equal l loop.Loops.header))
                                  incs
                              in
                              let incs' =
                                (pre, pre_subst v) :: (latch, latch_subst v) :: others
                              in
                              { i with Instr.op = Instr.Phi (ty, incs') })
                         | _ -> i)
                       b
                   else b)
                 f.Func.blocks
             in
             (Func.with_blocks ~next_id:counter.Func.next f blocks, true)
           end
         end
       end
     | _ -> (f, false))
  | _ -> (f, false)

let run_func (_cfg : Config.t) (f : Func.t) : Func.t =
  (* the loop pass manager guarantees simplified form before loop passes *)
  let f = Loop_simplify.loop_simplify_func _cfg f in
  let li = Loops.compute f in
  let f, _ =
    List.fold_left
      (fun (f, rotated) loop ->
        (* recompute loop info after each successful rotation *)
        if rotated then begin
          let li' = Loops.compute f in
          match
            List.find_opt
              (fun l -> String.equal l.Loops.header loop.Loops.header)
              li'.Loops.loops
          with
          | Some loop' ->
            let f', c = rotate_one f loop' in
            (f', rotated || c)
          | None -> (f, rotated)
        end
        else
          let f', c = rotate_one f loop in
          (f', c))
      (f, false) li.Loops.loops
  in
  Utils.trivial_dce f

let pass =
  Pass.function_pass "loop-rotate"
    ~description:"rotate top-tested loops into bottom-tested form" run_func
