(* -loop-simplify and -lcssa: canonicalize loop shape.

   loop-simplify gives every natural loop a dedicated preheader (a block
   whose sole purpose is to branch to the header) and, where cheap, merges
   multiple latches through a single backedge block. Most other loop
   passes require this canonical form.

   lcssa inserts single-incoming phis in exit blocks for every value
   defined inside a loop and used outside it, so that later loop
   transforms only have to patch exit phis. *)

open Posetrl_ir

(* Create a preheader for [loop] if it lacks one. *)
let ensure_preheader (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader with
  | Some _ -> None
  | None ->
    let cfg = Cfg.of_func f in
    let outside_preds =
      List.filter
        (fun p -> not (Utils.in_loop loop p))
        (Cfg.preds cfg loop.Loops.header)
    in
    if outside_preds = [] then None (* unreachable loop *)
    else begin
      let label = Utils.fresh_label f (loop.Loops.header ^ ".preheader") in
      (* header phis: entries from outside preds must agree, or we must
         create a phi in the preheader *)
      let header = Func.find_block_exn f loop.Loops.header in
      let from_outside l = List.exists (String.equal l) outside_preds in
      if (not (Utils.phis_agree header from_outside)) && List.length outside_preds > 1
      then begin
        (* funnel through a preheader that carries its own phis *)
        let counter = Func.fresh_counter f in
        let pre_phis = ref [] in
        let header' =
          Block.map_insns
            (fun (i : Instr.t) ->
              match i.Instr.op with
              | Instr.Phi (ty, incs) ->
                let outside, inside = List.partition (fun (l, _) -> from_outside l) incs in
                if outside = [] then i
                else begin
                  let pre_reg = Func.fresh counter in
                  pre_phis := Instr.mk pre_reg (Instr.Phi (ty, outside)) :: !pre_phis;
                  { i with Instr.op = Instr.Phi (ty, (label, Value.Reg pre_reg) :: inside) }
                end
              | _ -> i)
            header
        in
        let pre_blk = Block.mk label (List.rev !pre_phis) (Instr.Br loop.Loops.header) in
        let retarget l = if String.equal l loop.Loops.header then label else l in
        let blocks =
          List.concat_map
            (fun (b : Block.t) ->
              if String.equal b.Block.label loop.Loops.header then [ pre_blk; header' ]
              else if from_outside b.Block.label then
                [ { b with Block.term = Instr.map_term_labels retarget b.Block.term } ]
              else [ b ])
            f.Func.blocks
        in
        Some (Func.with_blocks ~next_id:counter.Func.next f blocks)
      end
      else Some (Utils.insert_block_on_edges f ~froms:outside_preds ~to_:loop.Loops.header ~label)
    end

(* Merge multiple latches through one backedge block. *)
let ensure_single_latch (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.latches with
  | [] | [ _ ] -> None
  | latches ->
    let header = Func.find_block_exn f loop.Loops.header in
    if not (Utils.phis_agree header (fun l -> List.exists (String.equal l) latches)) then
      None (* would need a phi in the backedge block *)
    else begin
      let label = Utils.fresh_label f (loop.Loops.header ^ ".backedge") in
      Some (Utils.insert_block_on_edges f ~froms:latches ~to_:loop.Loops.header ~label)
    end

let loop_simplify_func (_cfg : Config.t) (f : Func.t) : Func.t =
  Utils.rewrite_loops ~all:true ~rounds:16
    (fun f loop ->
      match ensure_preheader f loop with
      | None -> ensure_single_latch f loop
      | changed -> changed)
    f

let pass =
  Pass.function_pass "loop-simplify"
    ~description:"canonicalize loops: dedicated preheaders and single latches"
    loop_simplify_func

(* --- lcssa --------------------------------------------------------------- *)

(* A loop with outside uses and one exit block gets a phi there for each
   used register, taking it from every predecessor; the outside uses read
   the phi instead. An exit block that is also entered from outside the
   loop has no value of the register on those edges, so such a loop is
   left alone, as is a loop with several exit blocks. *)
let lcssa_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let li = Loops.compute f in
  if li.Loops.loops = [] then f
  else begin
    let counter = Func.fresh_counter f in
    (* the phis change no edge, so [li]'s CFG holds for every loop *)
    let close f (loop : Loops.loop) =
      match loop.Loops.exits with
      | [ exit_label ] ->
        let preds = Cfg.preds li.Loops.cfg exit_label in
        if not (List.for_all (Utils.in_loop loop) preds) then f
        else begin
          let v = Utils.view f loop in
          (* a phi in the exit block already plays the lcssa role for its
             incoming edges *)
          let used = Hashtbl.create 8 in
          Utils.iter_outside_uses v f (fun site r ->
              if site = Utils.Operand then Hashtbl.replace used r ());
          if Hashtbl.length used = 0 then f
          else begin
            let phi_of = Hashtbl.create 8 in
            let new_phis = ref [] in
            Hashtbl.iter
              (fun r () ->
                let ty = Instr.result_ty (Hashtbl.find v.Utils.defs r).Instr.op in
                let phi_reg = Func.fresh counter in
                let incs = List.map (fun p -> (p, Value.Reg r)) preds in
                new_phis := Instr.mk phi_reg (Instr.Phi (ty, incs)) :: !new_phis;
                Hashtbl.replace phi_of r (Value.Reg phi_reg))
              used;
            Utils.map_outside_uses v f (fun site r ->
                if site = Utils.Operand then Hashtbl.find phi_of r else Value.Reg r)
            |> Func.map_blocks (fun (b : Block.t) ->
                   if String.equal b.Block.label exit_label then
                     let phis, rest = Block.split_phis b in
                     { b with Block.insns = phis @ !new_phis @ rest }
                   else b)
          end
        end
      | _ -> f
    in
    Func.commit_counter (List.fold_left close f li.Loops.loops) counter
  end

let lcssa_pass =
  Pass.function_pass "lcssa"
    ~description:"insert loop-closed SSA phis in loop exit blocks" lcssa_func
