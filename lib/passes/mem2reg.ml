(* -mem2reg: promote memory to registers.

   The classic SSA-construction pass: single-element allocas whose address
   never escapes (used only as the pointer of loads and stores) are
   rewritten into SSA values, inserting phi nodes at iterated dominance
   frontiers and renaming along the dominator tree. *)

open Posetrl_ir
module SMap = Map.Make (String)
module ISet = Set.Make (Int)

type alloca_info = { reg : int; ty : Types.t }

(* Allocas eligible for promotion. *)
let promotable_allocas (f : Func.t) : alloca_info list =
  let allocas =
    Func.fold_insns
      (fun acc _ i ->
        match i.Instr.op with
        | Instr.Alloca (ty, 1) when not (Types.is_vector ty) ->
          (i.Instr.id, ty) :: acc
        | _ -> acc)
      [] f
  in
  let escaped = Hashtbl.create 8 in
  Func.iter_insns
    (fun _ i ->
      let check_escape v =
        match v with
        | Value.Reg r when List.mem_assoc r allocas -> Hashtbl.replace escaped r ()
        | _ -> ()
      in
      match i.Instr.op with
      | Instr.Load (_, _) -> () (* pointer use of a load is fine *)
      | Instr.Store (_, v, _) -> check_escape v (* storing the address escapes *)
      | op -> List.iter check_escape (Instr.operands op))
    f;
  (* terminator uses also escape *)
  List.iter
    (fun b ->
      List.iter
        (fun v ->
          match v with
          | Value.Reg r when List.mem_assoc r allocas -> Hashtbl.replace escaped r ()
          | _ -> ())
        (Instr.term_operands b.Block.term))
    f.Func.blocks;
  List.filter_map
    (fun (reg, ty) ->
      if Hashtbl.mem escaped reg then None else Some { reg; ty })
    allocas

(* Dominance frontiers (Cooper-Harvey-Kennedy). *)
let compute_df (f : Func.t) (cfg : Cfg.t) (dom : Dom.t) : string list SMap.t =
  let df = ref SMap.empty in
  let add b x =
    let cur = Option.value (SMap.find_opt b !df) ~default:[] in
    if not (List.exists (String.equal x) cur) then df := SMap.add b (x :: cur) !df
  in
  List.iter
    (fun (blk : Block.t) ->
      let b = blk.Block.label in
      let preds = Cfg.preds cfg b in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            (* only consider reachable preds with an idom *)
            let rec walk runner =
              match Dom.idom dom b with
              | None -> ()
              | Some idom_b ->
                if String.equal runner idom_b then ()
                else begin
                  add runner b;
                  match Dom.idom dom runner with
                  | Some next when not (String.equal next runner) -> walk next
                  | _ -> ()
                end
            in
            if Option.is_some (Dom.idom dom p) || String.equal p dom.Dom.entry then
              walk p)
          preds)
    f.Func.blocks;
  !df

let run_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let allocas = promotable_allocas f in
  if allocas = [] then f
  else begin
    let cfg = Cfg.of_func f in
    let dom = Dom.compute cfg in
    let df = compute_df f cfg dom in
    let counter = Func.fresh_counter f in
    let alloca_regs = ISet.of_list (List.map (fun a -> a.reg) allocas) in
    (* blocks containing a store to each alloca *)
    let store_blocks a =
      List.filter_map
        (fun (b : Block.t) ->
          if
            List.exists
              (fun (i : Instr.t) ->
                match i.Instr.op with
                | Instr.Store (_, _, Value.Reg r) -> r = a.reg
                | _ -> false)
              b.Block.insns
          then Some b.Block.label
          else None)
        f.Func.blocks
    in
    (* phi placement: (block -> (alloca reg -> phi reg)) *)
    let phi_at : (string, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
    let reach = Cfg.reachable cfg in
    List.iter
      (fun a ->
        let work = Queue.create () in
        List.iter (fun b -> Queue.add b work) (store_blocks a);
        let has_phi = Hashtbl.create 4 in
        while not (Queue.is_empty work) do
          let x = Queue.pop work in
          List.iter
            (fun y ->
              if Cfg.SSet.mem y reach && not (Hashtbl.mem has_phi y) then begin
                Hashtbl.add has_phi y ();
                let tbl =
                  match Hashtbl.find_opt phi_at y with
                  | Some t -> t
                  | None ->
                    let t = Hashtbl.create 4 in
                    Hashtbl.add phi_at y t;
                    t
                in
                Hashtbl.replace tbl a.reg (Func.fresh counter);
                Queue.add y work
              end)
            (Option.value (SMap.find_opt x df) ~default:[])
        done)
      allocas;
    (* renaming along the dominator tree *)
    let subst : (int, Value.t) Hashtbl.t = Hashtbl.create 32 in
    let new_blocks : (string, Block.t) Hashtbl.t = Hashtbl.create 16 in
    (* pending phi incomings: (block, phi reg) -> (pred, value) list *)
    let phi_incomings : (string * int, (string * Value.t) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let alloca_ty =
      List.fold_left (fun m a -> (a.reg, a.ty) :: m) [] allocas
    in
    let module IMap = Map.Make (Int) in
    let rec rename label (cur_env : Value.t IMap.t) =
      let blk = Func.find_block_exn f label in
      let cur = Hashtbl.create 8 in
      IMap.iter (fun r v -> Hashtbl.replace cur r v) cur_env;
      (* inserted phis define new current values *)
      (match Hashtbl.find_opt phi_at label with
       | Some tbl ->
         Hashtbl.iter (fun areg phireg -> Hashtbl.replace cur areg (Value.Reg phireg)) tbl
       | None -> ());
      let insns =
        List.filter_map
          (fun (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Alloca _ when ISet.mem i.Instr.id alloca_regs -> None
            | Instr.Load (_, Value.Reg r) when ISet.mem r alloca_regs ->
              let v =
                match Hashtbl.find_opt cur r with
                | Some v -> v
                | None -> Value.cundef (List.assoc r alloca_ty)
              in
              Hashtbl.replace subst i.Instr.id v;
              None
            | Instr.Store (_, v, Value.Reg r) when ISet.mem r alloca_regs ->
              Hashtbl.replace cur r v;
              None
            | _ -> Some i)
          blk.Block.insns
      in
      Hashtbl.replace new_blocks label { blk with Block.insns };
      (* push incomings into successors' pending phis *)
      List.iter
        (fun succ ->
          match Hashtbl.find_opt phi_at succ with
          | Some tbl ->
            Hashtbl.iter
              (fun areg phireg ->
                let v =
                  match Hashtbl.find_opt cur areg with
                  | Some v -> v
                  | None -> Value.cundef (List.assoc areg alloca_ty)
                in
                let key = (succ, phireg) in
                let cell =
                  match Hashtbl.find_opt phi_incomings key with
                  | Some c -> c
                  | None ->
                    let c = ref [] in
                    Hashtbl.add phi_incomings key c;
                    c
                in
                cell := (label, v) :: !cell)
              tbl
          | None -> ())
        (Block.successors blk);
      (* recurse into dominator-tree children *)
      let child_env = Hashtbl.fold IMap.add cur IMap.empty in
      List.iter (fun child -> rename child child_env) (Dom.children dom label)
    in
    rename dom.Dom.entry IMap.empty;
    (* materialize blocks: prepend inserted phis, keep dominator order of
       the original block list; unreachable blocks are dropped *)
    let blocks =
      List.filter_map
        (fun (b : Block.t) ->
          match Hashtbl.find_opt new_blocks b.Block.label with
          | None -> None (* unreachable *)
          | Some nb ->
            let phis =
              match Hashtbl.find_opt phi_at b.Block.label with
              | None -> []
              | Some tbl ->
                Hashtbl.fold
                  (fun areg phireg acc ->
                    let ty = List.assoc areg alloca_ty in
                    let incs =
                      match Hashtbl.find_opt phi_incomings (b.Block.label, phireg) with
                      | Some c -> List.rev !c
                      | None -> []
                    in
                    (* any predecessor that never reached the rename walk is
                       unreachable; remaining preds must all be present *)
                    Instr.mk phireg (Instr.Phi (ty, incs)) :: acc)
                  tbl []
            in
            Some { nb with Block.insns = phis @ nb.Block.insns })
        f.Func.blocks
    in
    Func.with_blocks ~next_id:counter.Func.next f blocks
    |> Func.substitute subst |> Utils.simplify_single_incoming_phis |> Utils.trivial_dce
  end

let pass =
  Pass.function_pass "mem2reg"
    ~description:"promote single-element non-escaping allocas to SSA registers"
    run_func
