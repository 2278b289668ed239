(* -loop-deletion: remove loops that compute nothing observable.

   A loop is deletable when it has no side effects, none of its values
   are used outside (except exit phis whose loop entries are invariant),
   and it provably terminates (we require a recognized counted loop). The
   preheader then branches straight to the exit. *)

open Posetrl_ir
module SSet = Set.Make (String)
module ISet = Set.Make (Int)

let delete_one (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader, loop.Loops.exits with
  | Some pre, [ exit_lbl ] ->
    let in_loop l = SSet.mem l loop.Loops.blocks in
    let loop_blocks = List.filter (fun (b : Block.t) -> in_loop b.Block.label) f.Func.blocks in
    let has_side_effects =
      List.exists
        (fun (b : Block.t) ->
          List.exists (fun (i : Instr.t) -> Instr.has_side_effects i.Instr.op) b.Block.insns)
        loop_blocks
    in
    if has_side_effects then None
    else if Option.is_none (Utils.analyze_counted_loop f loop) then None
    else begin
      let loop_defs = ISet.of_list (Clone.region_defs loop_blocks) in
      (* outside uses of loop values: only allowed in exit phis with
         loop-invariant replacements, i.e. the phi's in-loop entries must
         all be the same loop-invariant value *)
      let ok = ref true in
      let exit_phi_fix : (int * Value.t) list ref = ref [] in
      List.iter
        (fun (b : Block.t) ->
          if not (in_loop b.Block.label) then begin
            let check v =
              match v with
              | Value.Reg r when ISet.mem r loop_defs -> ok := false
              | _ -> ()
            in
            List.iter
              (fun (i : Instr.t) ->
                match i.Instr.op with
                | Instr.Phi (_, incs) when String.equal b.Block.label exit_lbl ->
                  let from_loop =
                    List.filter_map
                      (fun (l, v) -> if in_loop l then Some v else None)
                      incs
                  in
                  (match from_loop with
                   | [] -> ()
                   | v :: rest ->
                     let invariant =
                       (match v with
                        | Value.Reg r -> not (ISet.mem r loop_defs)
                        | _ -> true)
                       && List.for_all (Value.equal v) rest
                     in
                     if invariant then exit_phi_fix := (i.Instr.id, v) :: !exit_phi_fix
                     else ok := false)
                | op -> List.iter check (Instr.operands op))
              b.Block.insns;
            List.iter check (Instr.term_operands b.Block.term)
          end)
        f.Func.blocks;
      if not !ok then None
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
                   Block.map_insns
                     (fun (i : Instr.t) ->
                       match i.Instr.op with
                       | Instr.Phi (ty, incs) ->
                         let outside =
                           List.filter (fun (l, _) -> not (in_loop l)) incs
                         in
                         (match List.assoc_opt i.Instr.id !exit_phi_fix with
                          | Some v -> { i with Instr.op = Instr.Phi (ty, (pre, v) :: outside) }
                          | None ->
                            if List.length outside < List.length incs then
                              (* phi had loop entries but no outside users
                                 checked it; entries all invariant-equal was
                                 required, so this is unreachable; keep safe *)
                              { i with Instr.op = Instr.Phi (ty, outside) }
                            else i)
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
