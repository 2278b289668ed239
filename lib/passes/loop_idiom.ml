(* -loop-idiom: recognize memset/memcpy loops.

   A counted loop whose body only stores a loop-invariant byte-sized
   pattern through a unit-stride gep (memset idiom), or copies between two
   unit-stride geps (memcpy idiom), is replaced by the corresponding
   memory intrinsic, deleting the loop. The interpreter, codegen and MCA
   all understand the resulting [memset]/[memcpy] operations. *)

open Posetrl_ir

(* Try to rewrite one counted loop; returns the new function on success. *)
let rewrite_one (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader, loop.Loops.exits, loop.Loops.latches with
  | Some pre, [ exit_lbl ], [ _ ] ->
    (match Utils.analyze_counted_loop f loop with
     | Some info when Int64.equal info.Utils.step 1L && info.Utils.trip_count >= 4 ->
       let v = Utils.view f loop in
       (* single-block body (header = latch) keeps the matching simple *)
       (match v.Utils.blocks with
        | [ body ] ->
         let _, insns = Block.split_phis body in
         (* classify: phis + gep(base, iv) + store(v, gep) + iv increment +
            cmp; anything else rejects the idiom *)
         let def = Utils.def_op v and is_iv = Utils.is_iv info and invariant = Utils.invariant v in
         let stores =
           List.filter_map
             (fun (i : Instr.t) ->
               match i.Instr.op with
               | Instr.Store (ty, v, Value.Reg p) ->
                 (match def p with
                  | Some (Instr.Gep (gty, base, idx))
                    when Types.equal gty ty && is_iv idx && invariant base ->
                    Some (ty, v, base)
                  | _ -> None)
               | _ -> None)
             insns
         in
         let other_effects =
           List.exists
             (fun (i : Instr.t) ->
               match i.Instr.op with
               | Instr.Store (_, _, Value.Reg p) ->
                 (match def p with
                  | Some (Instr.Gep (_, _, idx)) -> not (is_iv idx)
                  | _ -> true)
               | Instr.Store _ | Instr.Call _ | Instr.Callind _ | Instr.Memcpy _ -> true
               | _ -> false)
             insns
         in
         (* only the IV may be observed outside *)
         (match stores, other_effects with
         | [ (ty, stored, base) ], false when invariant stored ->
           (* memset idiom (invariant value) or memcpy idiom (load of
              src[i]) *)
           let n_bytes = info.Utils.trip_count * Types.size_bytes ty in
           let replacement =
             match stored with
             | Value.Reg r ->
               (match def r with
                | Some (Instr.Load (lty, Value.Reg lp)) ->
                  (match def lp with
                   | Some (Instr.Gep (gty, src, idx))
                     when Types.equal gty lty && is_iv idx && invariant src ->
                     Some (Instr.Memcpy (base, src, Value.ci64 n_bytes))
                   | _ -> None)
                | _ -> None)
             | Value.Const _ ->
               Some
                 (Instr.Intrinsic
                    ("memset", Types.Void,
                     [ base; stored; Value.ci64 info.Utils.trip_count;
                       Value.ci64 (Types.size_bytes ty) ]))
             | _ -> None
           in
           (match replacement with
            | None -> None
            | Some op ->
              (* nothing defined in the loop may be observed outside;
                 indvars' exit-value rewriting normally guarantees this *)
              if Utils.exists_outside_use v f (fun _ _ -> true) then None
              else begin
                let blocks =
                  f.Func.blocks
                  |> List.filter (fun (b : Block.t) -> not (Utils.in_loop loop b.Block.label))
                  |> List.map (fun (b : Block.t) ->
                         if String.equal b.Block.label pre then
                           { b with
                             Block.insns =
                               b.Block.insns @ [ Instr.mk Instr.no_result op ];
                             Block.term =
                               Instr.map_term_labels
                                 (fun l ->
                                   if String.equal l loop.Loops.header then exit_lbl else l)
                                 b.Block.term }
                         else if String.equal b.Block.label exit_lbl then
                           Block.map_insns
                             (fun (i : Instr.t) ->
                               match i.Instr.op with
                               | Instr.Phi (ty', incs) ->
                                 let incs =
                                   List.map
                                     (fun (l, x) ->
                                       if Utils.in_loop loop l then (pre, x) else (l, x))
                                     incs
                                 in
                                 { i with Instr.op = Instr.Phi (ty', incs) }
                               | _ -> i)
                             b
                         else b)
                in
                Some (Func.with_blocks f blocks |> Utils.simplify_single_incoming_phis)
              end)
         | _ -> None)
        | _ -> None)
     | _ -> None)
  | _ -> None

let run_func (_cfg : Config.t) (f : Func.t) : Func.t =
  (* canonicalize and merge straight-line chains so single-block bodies
     are recognizable *)
  Loop_simplify.loop_simplify_func _cfg f |> Utils.merge_blocks
  |> Utils.rewrite_loops ~rounds:4 rewrite_one

let pass =
  Pass.function_pass "loop-idiom"
    ~description:"replace memset/memcpy-shaped loops with memory intrinsics"
    run_func
