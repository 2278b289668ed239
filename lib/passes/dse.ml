(* -dse: dead-store elimination.

   Removes a store when the same pointer is overwritten by a later store
   in the same block with no intervening read or escape, and removes
   stores to non-escaping allocas that are never loaded afterwards
   anywhere in the function.

   Two interchangeable fact providers:
     - legacy ([Effects]): syntactic escape/read-root scans, any
       load/call clears the same-block overwrite window;
     - alias-aware ([Config.use_alias]): points-to facts from
       [Posetrl_analysis.Alias] decide which reads can actually observe
       a pending store. The opt-in path is byte-identical to legacy on
       the validation suites at every -O level, and can remove more on
       other programs (both pinned in test_analysis.ml). *)

open Posetrl_ir
module ISet = Set.Make (Int)
module Effects = Posetrl_analysis.Effects
module Alias = Posetrl_analysis.Alias

(* The escape classification ([Effects.private_allocas]), the read-root
   scan ([Effects.read_roots]) and the same-block overwrite scan
   ([Effects.overwritten_store_indices]) are shared with the lint
   dead-store report; this pass only does the deleting. *)
let run_func_legacy (f : Func.t) : Func.t =
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

(* Alias-aware same-block overwrite: a read only clears the pending
   stores it may actually observe, and a call only clears pointers it
   can reach ([Alias.call_may_touch]). *)
let overwritten_alias (fi : Alias.finfo) (b : Block.t) : (int, unit) Hashtbl.t =
  let pending : (Value.t, int) Hashtbl.t = Hashtbl.create 8 in
  let dead : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let clear_where cond =
    let doomed =
      Hashtbl.fold (fun q _ acc -> if cond q then q :: acc else acc) pending []
    in
    List.iter (Hashtbl.remove pending) doomed
  in
  List.iteri
    (fun idx (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Store (_, _, p) ->
        (match Hashtbl.find_opt pending p with
         | Some prev -> Hashtbl.replace dead prev ()
         | None -> ());
        Hashtbl.replace pending p idx
      | Instr.Load (_, p) -> clear_where (fun q -> Alias.may_alias fi p q)
      | Instr.Memcpy (_, s, _) -> clear_where (fun q -> Alias.may_alias fi s q)
      | Instr.Call _ | Instr.Callind _ ->
        clear_where (fun q -> Alias.call_may_touch fi q)
      | _ -> ())
    b.Block.insns;
  dead

let run_func_alias (f : Func.t) : Func.t =
  let fi = Alias.of_func f in
  (* every location the function may read from, plus LUnknown when a
     call could read reachable memory (calls cannot see private
     allocas, which [locs_overlap] already encodes) *)
  let read = ref Alias.LSet.empty in
  let add s = read := Alias.LSet.union s !read in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Load (_, p) -> add (Alias.pts fi p)
          | Instr.Memcpy (_, s, _) -> add (Alias.pts fi s)
          | Instr.Call _ | Instr.Callind _ ->
            read := Alias.LSet.add Alias.LUnknown !read
          | Instr.Intrinsic _ -> read := Alias.LSet.add Alias.LUnknown !read
          | _ -> ())
        b.Block.insns)
    f.Func.blocks;
  let read = !read in
  (* a store is dead function-wide when everything it may write is a
     private alloca no read may observe *)
  let never_read p =
    let s = Alias.pts fi p in
    Alias.all_private fi s
    && Alias.LSet.for_all
         (fun l ->
           not (Alias.LSet.exists (fun l2 -> Alias.locs_overlap fi l l2) read))
         s
  in
  let rewrite_block (b : Block.t) =
    let dead = overwritten_alias fi b in
    let insns =
      List.filteri (fun idx _ -> not (Hashtbl.mem dead idx)) b.Block.insns
    in
    { b with Block.insns }
  in
  let f = Func.map_blocks rewrite_block f in
  let keep (i : Instr.t) =
    match i.Instr.op with
    | Instr.Store (_, _, p) when never_read p -> false
    | _ -> true
  in
  let f = Func.map_blocks (Block.filter_insns keep) f in
  Utils.trivial_dce f

let run_func (cfg : Config.t) (f : Func.t) : Func.t =
  if cfg.Config.use_alias then run_func_alias f else run_func_legacy f

let pass =
  Pass.function_pass "dse" ~description:"dead-store elimination" run_func
