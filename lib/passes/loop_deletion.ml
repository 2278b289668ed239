(* -loop-deletion: remove loops that compute nothing observable.

   A loop is deletable when it has no side effects, none of its values
   are used outside (except exit phis whose loop entries are invariant),
   and it provably terminates (we require a recognized counted loop). The
   preheader then branches straight to the exit. *)

open Posetrl_ir

let delete_one (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader, loop.Loops.exits with
  | Some pre, [ exit_lbl ] ->
    let v = Utils.view f loop in
    let in_loop = Utils.in_loop loop in
    let has_side_effects =
      List.exists
        (fun (b : Block.t) ->
          List.exists (fun (i : Instr.t) -> Instr.has_side_effects i.Instr.op) b.Block.insns)
        v.Utils.blocks
    in
    if has_side_effects then None
    else if Option.is_none (Utils.analyze_counted_loop f loop) then None
    else begin
      (* outside uses of loop values: only allowed in exit phis with
         loop-invariant replacements, i.e. the phi's in-loop entries must
         all be the same loop-invariant value *)
      let escapes =
        Utils.exists_outside_use v f (fun site _ ->
            match site with Utils.Exit_phi { pred; _ } -> in_loop pred | Utils.Operand -> true)
      in
      if escapes || not (Utils.phis_agree (Func.find_block_exn f exit_lbl) in_loop) then None
      else begin
        let blocks =
          f.Func.blocks
          |> List.filter (fun (b : Block.t) -> not (in_loop b.Block.label))
          |> List.map (fun (b : Block.t) ->
                 if String.equal b.Block.label pre then
                   { b with
                     Block.term =
                       Instr.map_term_labels
                         (fun l -> if String.equal l loop.Loops.header then exit_lbl else l)
                         b.Block.term }
                 else if String.equal b.Block.label exit_lbl then
                   (* the entries from the loop collapse into one from the
                      preheader *)
                   Block.map_insns
                     (fun (i : Instr.t) ->
                       match i.Instr.op with
                       | Instr.Phi (ty, incs) ->
                         (match List.partition (fun (l, _) -> in_loop l) incs with
                          | [], _ -> i
                          | (_, x) :: _, outside ->
                            { i with Instr.op = Instr.Phi (ty, (pre, x) :: outside) })
                       | _ -> i)
                     b
                 else b)
        in
        Some (Func.with_blocks f blocks |> Utils.simplify_single_incoming_phis)
      end
    end
  | _ -> None

let run_func (cfg : Config.t) (f : Func.t) : Func.t =
  Loop_simplify.loop_simplify_func cfg f |> Utils.rewrite_loops ~rounds:8 delete_one

let pass =
  Pass.function_pass "loop-deletion"
    ~description:"delete side-effect-free terminating loops" run_func
