(* -licm: loop-invariant code motion.

   Hoists pure instructions whose operands are loop-invariant into the
   preheader, and hoists loads when the loop contains no may-write to
   memory ([Instr.writes_memory]). Runs innermost-out so invariants
   bubble up through nests. *)

open Posetrl_ir
module ISet = Set.Make (Int)

let hoist_one_loop (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader with
  | None -> None
  | Some pre ->
    let v = Utils.view f loop in
    let loop_writes_memory =
      List.exists
        (fun (b : Block.t) ->
          List.exists (fun (i : Instr.t) -> Instr.writes_memory i.Instr.op) b.Block.insns)
        v.Utils.blocks
    in
    (* iterate: an instruction becomes invariant once its operands are *)
    let hoisted : Instr.t list ref = ref [] in
    let hoisted_ids = ref ISet.empty in
    let changed = ref true in
    let is_invariant x =
      Utils.invariant v x
      || match x with Value.Reg r -> ISet.mem r !hoisted_ids | _ -> false
    in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (i : Instr.t) ->
              if
                i.Instr.id >= 0
                && (not (ISet.mem i.Instr.id !hoisted_ids))
                && List.for_all is_invariant (Instr.operands i.Instr.op)
              then begin
                let hoistable =
                  Instr.is_pure i.Instr.op
                  ||
                  match i.Instr.op with
                  | Instr.Load _ -> not loop_writes_memory
                  | _ -> false
                in
                (* division can trap; hoisting is safe only when the
                   block executes on every iteration — approximate by
                   only hoisting from the header *)
                let trap_safe =
                  match i.Instr.op with
                  | Instr.Binop ((Instr.Sdiv | Instr.Udiv | Instr.Srem | Instr.Urem), _, _, d) ->
                    (match d with
                     | Value.Const (Value.Cint (_, k)) -> not (Int64.equal k 0L)
                     | _ -> String.equal b.Block.label loop.Loops.header)
                  | Instr.Load _ -> String.equal b.Block.label loop.Loops.header
                  | _ -> true
                in
                if hoistable && trap_safe then begin
                  hoisted := i :: !hoisted;
                  hoisted_ids := ISet.add i.Instr.id !hoisted_ids;
                  changed := true
                end
              end)
            b.Block.insns)
        v.Utils.blocks
    done;
    if !hoisted = [] then None
    else begin
      let keep (i : Instr.t) = not (ISet.mem i.Instr.id !hoisted_ids) in
      (* order hoisted instructions by dependency: reuse original block
         order, then topological fix by simple iteration *)
      let hoisted = List.rev !hoisted in
      let rec topo_sort pending placed =
        match pending with
        | [] -> List.rev placed
        | _ ->
          let ready, blocked =
            List.partition
              (fun (i : Instr.t) ->
                List.for_all
                  (fun v ->
                    match v with
                    | Value.Reg r ->
                      (not (ISet.mem r !hoisted_ids))
                      || List.exists (fun (p : Instr.t) -> p.Instr.id = r) placed
                    | _ -> true)
                  (Instr.operands i.Instr.op))
              pending
          in
          if ready = [] then List.rev_append placed pending (* cycle safety *)
          else topo_sort blocked (List.rev_append ready placed)
      in
      let hoisted = topo_sort hoisted [] in
      let blocks =
        List.map
          (fun (b : Block.t) ->
            if Utils.in_loop loop b.Block.label then Block.filter_insns keep b
            else if String.equal b.Block.label pre then
              { b with Block.insns = b.Block.insns @ hoisted }
            else b)
          f.Func.blocks
      in
      Some (Func.with_blocks f blocks)
    end

let run_func (cfg : Config.t) (f : Func.t) : Func.t =
  (* a hoist moves instructions but leaves the CFG alone, so one
     [Loops.compute] per round describes every loop of the round *)
  let round f =
    let li = Loops.compute f in
    (* innermost loops first *)
    let loops = List.sort (fun a b -> compare b.Loops.depth a.Loops.depth) li.Loops.loops in
    List.fold_left
      (fun (f, any) loop ->
        match hoist_one_loop f loop with Some f' -> (f', true) | None -> (f, any))
      (f, false) loops
  in
  Loop_simplify.loop_simplify_func cfg f |> Utils.to_fixed_point ~max_iters:4 round

let pass =
  Pass.function_pass "licm" ~description:"loop-invariant code motion into preheaders"
    run_func
