(* -dse: dead-store elimination.

   Removes a store when the same pointer is overwritten by a later store
   in the same block with no intervening read or escape, and removes
   stores to non-escaping allocas that are never loaded afterwards
   anywhere in the function.

   The facts are [Effects]' syntactic escape and read-root scans: any
   load or call clears the same-block overwrite window. *)

open Posetrl_ir
module ISet = Set.Make (Int)
module Effects = Posetrl_analysis.Effects

(* The escape classification ([Effects.private_allocas]), the read-root
   scan ([Effects.read_roots]) and the same-block overwrite scan
   ([Effects.overwritten_store_indices]) are shared with the lint
   dead-store report; this pass only does the deleting. *)
let run_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let priv = Effects.private_allocas f in
  (* does any load from [r] (directly, geps excluded since gep of private
     alloca with distinct indices is separate, we stay conservative and
     treat any gep on it as a load barrier) exist after? We precompute
     whether each private alloca is loaded at all. *)
  let loaded, gep_based = Effects.read_roots f in
  let never_read r =
    ISet.mem r priv && (not (ISet.mem r loaded)) && not (ISet.mem r gep_based)
  in
  (* same-block overwrite: scan forward remembering the last store per
     pointer; a read/call/memcpy clears the pending map *)
  let rewrite_block (b : Block.t) =
    let dead = Effects.overwritten_store_indices b in
    let insns =
      List.filteri (fun idx _ -> not (Hashtbl.mem dead idx)) b.Block.insns
    in
    { b with Block.insns }
  in
  let f = Func.map_blocks rewrite_block f in
  (* stores to never-read private allocas are dead *)
  let keep (i : Instr.t) =
    match i.Instr.op with
    | Instr.Store (_, _, Value.Reg r) when never_read r -> false
    | _ -> true
  in
  let f = Func.map_blocks (Block.filter_insns keep) f in
  Utils.trivial_dce f

let pass =
  Pass.function_pass "dse" ~description:"dead-store elimination" run_func
