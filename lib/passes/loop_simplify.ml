(* -loop-simplify and -lcssa: canonicalize loop shape.

   loop-simplify gives every natural loop a dedicated preheader (a block
   whose sole purpose is to branch to the header) and, where cheap, merges
   multiple latches through a single backedge block. Most other loop
   passes require this canonical form.

   lcssa inserts single-incoming phis in exit blocks for every value
   defined inside a loop and used outside it, so that later loop
   transforms only have to patch exit phis. *)

open Posetrl_ir
module SSet = Set.Make (String)
module ISet = Set.Make (Int)

(* Create a preheader for [loop] if it lacks one. *)
let ensure_preheader (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader with
  | Some _ -> None
  | None ->
    let cfg = Cfg.of_func f in
    let outside_preds =
      List.filter
        (fun p -> not (SSet.mem p loop.Loops.blocks))
        (Cfg.preds cfg loop.Loops.header)
    in
    if outside_preds = [] then None (* unreachable loop *)
    else begin
      let label = Utils.fresh_label f (loop.Loops.header ^ ".preheader") in
      (* header phis: entries from outside preds must agree, or we must
         create a phi in the preheader *)
      let header = Func.find_block_exn f loop.Loops.header in
      let phis = Block.phis header in
      let conflicting =
        List.exists
          (fun (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Phi (_, incs) ->
              let vals =
                List.filter_map
                  (fun (l, v) ->
                    if List.exists (String.equal l) outside_preds then Some v else None)
                  incs
              in
              (match vals with
               | [] -> false
               | v :: rest -> not (List.for_all (Value.equal v) rest))
            | _ -> false)
          phis
      in
      if conflicting && List.length outside_preds > 1 then begin
        (* funnel through a preheader that carries its own phis *)
        let counter = Func.fresh_counter f in
        let pre_phis = ref [] in
        let header' =
          Block.map_insns
            (fun (i : Instr.t) ->
              match i.Instr.op with
              | Instr.Phi (ty, incs) ->
                let outside, inside =
                  List.partition
                    (fun (l, _) -> List.exists (String.equal l) outside_preds)
                    incs
                in
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
              else if List.exists (String.equal b.Block.label) outside_preds then
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
    let phis = Block.phis header in
    let conflicting =
      List.exists
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Phi (_, incs) ->
            let vals =
              List.filter_map
                (fun (l, v) ->
                  if List.exists (String.equal l) latches then Some v else None)
                incs
            in
            (match vals with
             | [] -> false
             | v :: rest -> not (List.for_all (Value.equal v) rest))
          | _ -> false)
        phis
    in
    if conflicting then None (* would need a phi in the backedge block *)
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

let lcssa_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let li = Loops.compute f in
  if li.Loops.loops = [] then f
  else begin
    let counter = Func.fresh_counter f in
    let f =
      List.fold_left
        (fun f (loop : Loops.loop) ->
          (* registers defined in the loop *)
          let defined_in =
            List.fold_left
              (fun acc (b : Block.t) ->
                if SSet.mem b.Block.label loop.Loops.blocks then
                  List.fold_left
                    (fun acc (i : Instr.t) ->
                      if i.Instr.id >= 0 then ISet.add i.Instr.id acc else acc)
                    acc b.Block.insns
                else acc)
              ISet.empty f.Func.blocks
          in
          (* uses outside the loop *)
          let exit_set = SSet.of_list loop.Loops.exits in
          let outside_uses = Hashtbl.create 8 in
          List.iter
            (fun (b : Block.t) ->
              if not (SSet.mem b.Block.label loop.Loops.blocks) then begin
                let record v =
                  match v with
                  | Value.Reg r when ISet.mem r defined_in ->
                    Hashtbl.replace outside_uses r ()
                  | _ -> ()
                in
                List.iter
                  (fun (i : Instr.t) ->
                    match i.Instr.op with
                    | Instr.Phi (_, incs) ->
                      (* a phi in an exit block already plays the lcssa
                         role for its incoming edges *)
                      if SSet.mem b.Block.label exit_set then ()
                      else List.iter (fun (_, v) -> record v) incs
                    | op -> List.iter record (Instr.operands op))
                  b.Block.insns;
                List.iter record (Instr.term_operands b.Block.term)
              end)
            f.Func.blocks;
          if Hashtbl.length outside_uses = 0 then f
          else begin
            (* for simplicity require a unique exit block; otherwise skip *)
            match loop.Loops.exits with
            | [ exit_label ] ->
              let cfg = Cfg.of_func f in
              let in_loop_preds =
                List.filter
                  (fun p -> SSet.mem p loop.Loops.blocks)
                  (Cfg.preds cfg exit_label)
              in
              let def_tys =
                let m = Hashtbl.create 8 in
                Func.iter_insns
                  (fun _ i ->
                    if i.Instr.id >= 0 then
                      Hashtbl.replace m i.Instr.id (Instr.result_ty i.Instr.op))
                  f;
                m
              in
              let new_phis = ref [] in
              let substs = ref [] in
              Hashtbl.iter
                (fun r () ->
                  let ty = Option.value (Hashtbl.find_opt def_tys r) ~default:Types.I64 in
                  let phi_reg = Func.fresh counter in
                  let incs = List.map (fun p -> (p, Value.Reg r)) in_loop_preds in
                  new_phis := Instr.mk phi_reg (Instr.Phi (ty, incs)) :: !new_phis;
                  substs := (r, phi_reg) :: !substs)
                outside_uses;
              let blocks =
                List.map
                  (fun (b : Block.t) ->
                    if String.equal b.Block.label exit_label then
                      let phis, rest = Block.split_phis b in
                      { b with Block.insns = phis @ !new_phis @ rest }
                    else b)
                  f.Func.blocks
              in
              let f = Func.with_blocks ~next_id:counter.Func.next f blocks in
              (* rewrite outside uses (not inside the loop, not the new phis) *)
              let blocks =
                List.map
                  (fun (b : Block.t) ->
                    if SSet.mem b.Block.label loop.Loops.blocks then b
                    else
                      let subst_in_op (i : Instr.t) =
                        if String.equal b.Block.label exit_label
                           && List.exists (fun p -> p.Instr.id = i.Instr.id) !new_phis
                        then i
                        else
                          let fix v =
                            match v with
                            | Value.Reg r ->
                              (match List.assoc_opt r !substs with
                               | Some pr -> Value.Reg pr
                               | None -> v)
                            | _ -> v
                          in
                          (* phis in the exit block keep direct references
                             on their loop edges *)
                          match i.Instr.op with
                          | Instr.Phi (ty, incs) when String.equal b.Block.label exit_label ->
                            ignore ty; ignore incs; i
                          | op -> { i with Instr.op = Instr.map_operands fix op }
                      in
                      let term' =
                        Instr.map_term_operands
                          (fun v ->
                            match v with
                            | Value.Reg r ->
                              (match List.assoc_opt r !substs with
                               | Some pr -> Value.Reg pr
                               | None -> v)
                            | _ -> v)
                          b.Block.term
                      in
                      { (Block.map_insns subst_in_op b) with Block.term = term' })
                  f.Func.blocks
              in
              Func.with_blocks f blocks
            | _ -> f
          end)
        f li.Loops.loops
    in
    Func.commit_counter f counter
  end

let lcssa_pass =
  Pass.function_pass "lcssa"
    ~description:"insert loop-closed SSA phis in loop exit blocks" lcssa_func
