(* Alias analysis: flow-insensitive points-to and escape information per
   function.

   The location domain is deliberately small — one abstract location per
   alloca site, one per global, and a single [LUnknown] standing for all
   caller-provided and heap memory. Points-to sets are solved by a
   worklist-free round-robin fixpoint (sets only grow, bounded by the
   location universe, so |insns| * |locations| rounds terminate).

   Two pointers may alias when their pointee sets overlap; [LUnknown]
   overlaps everything *except* allocas whose address never escapes the
   function — nobody outside can hold a pointer to an address that was
   never stored, passed, returned or cast away. Lint's
   may-alias-store-conflict rule reads these facts; no pass does.

   All state lives in the returned values — nothing global — so analyses
   can run concurrently across domains (same contract as Effects). *)

open Posetrl_ir
module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

type loc = LAlloca of int | LGlobal of string | LUnknown

module LSet = Set.Make (struct
  type t = loc

  let compare = Stdlib.compare
end)

type finfo = {
  points_to : LSet.t IMap.t; (* pointer register -> may-point-to set *)
  escaped : ISet.t;          (* allocas whose address leaves the function *)
}

(* --- per-function points-to ---------------------------------------------- *)

let unknown = LSet.singleton LUnknown

(* Pointee set of a value under the current table. Constants that are
   not addresses (null, undef, ints) point at nothing — null aliases no
   dereferenceable location. *)
let pts_under (tbl : LSet.t IMap.t) (v : Value.t) : LSet.t =
  match v with
  | Value.Const _ -> LSet.empty
  | Value.Global g -> LSet.singleton (LGlobal g)
  | Value.Reg r -> Option.value (IMap.find_opt r tbl) ~default:LSet.empty

let of_func (f : Func.t) : finfo =
  (* parameters of pointer type are caller memory *)
  let tbl =
    List.fold_left
      (fun tbl (p, ty) ->
        if Types.equal ty Types.Ptr then IMap.add p unknown tbl else tbl)
      IMap.empty f.Func.params
  in
  (* round-robin to a fixpoint: each constraint only unions sets *)
  let tbl = ref tbl in
  let changed = ref true in
  let update id s =
    let cur = Option.value (IMap.find_opt id !tbl) ~default:LSet.empty in
    if not (LSet.subset s cur) then begin
      tbl := IMap.add id (LSet.union cur s) !tbl;
      changed := true
    end
  in
  while !changed do
    changed := false;
    Func.iter_insns
      (fun _ (i : Instr.t) ->
        let id = i.Instr.id in
        if id >= 0 then
          match i.Instr.op with
          | Instr.Alloca _ -> update id (LSet.singleton (LAlloca id))
          | Instr.Gep (_, base, _) -> update id (pts_under !tbl base)
          | Instr.Expect (ty, v, _) when Types.equal ty Types.Ptr ->
            update id (pts_under !tbl v)
          | Instr.Select (ty, _, a, b) when Types.equal ty Types.Ptr ->
            update id (LSet.union (pts_under !tbl a) (pts_under !tbl b))
          | Instr.Phi (ty, incs) when Types.equal ty Types.Ptr ->
            List.iter (fun (_, v) -> update id (pts_under !tbl v)) incs
          | Instr.Cast (Instr.Bitcast, from_ty, to_ty, v)
            when Types.equal from_ty Types.Ptr && Types.equal to_ty Types.Ptr ->
            update id (pts_under !tbl v)
          | op ->
            (* anything else that produces a pointer (loads, calls,
               int-to-pointer casts, unknown intrinsics) may point
               anywhere *)
            if Types.equal (Instr.result_ty op) Types.Ptr then update id unknown)
      f
  done;
  let tbl = !tbl in
  (* escape: the address is stored as a value, passed to a call, used as
     an indirect-call target, returned, cast to an integer, or flows into
     a terminator — after that, [LUnknown] may cover it. Using a pointer
     purely as a load/store/memcpy address or a gep base is not an
     escape: it derives or dereferences, it does not leak. *)
  let escaped = ref ISet.empty in
  let escape_via v =
    LSet.iter
      (function LAlloca a -> escaped := ISet.add a !escaped | _ -> ())
      (pts_under tbl v)
  in
  Func.iter_insns
    (fun _ (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Store (_, v, _) -> escape_via v
      | Instr.Call (_, _, args) -> List.iter escape_via args
      | Instr.Callind (_, fv, args) ->
        escape_via fv;
        List.iter escape_via args
      | Instr.Cast (_, from_ty, to_ty, v)
        when Types.equal from_ty Types.Ptr && not (Types.equal to_ty Types.Ptr)
        ->
        escape_via v
      | _ -> ())
    f;
  List.iter
    (fun (b : Block.t) ->
      match b.Block.term with
      | Instr.Ret (Some (_, v)) -> escape_via v
      | _ -> ())
    f.Func.blocks;
  { points_to = tbl; escaped = !escaped }

(* --- queries -------------------------------------------------------------- *)

let pts (fi : finfo) (v : Value.t) : LSet.t = pts_under fi.points_to v
let is_escaped (fi : finfo) (a : int) : bool = ISet.mem a fi.escaped

let locs_overlap (fi : finfo) (l1 : loc) (l2 : loc) : bool =
  match l1, l2 with
  | LUnknown, LUnknown -> true
  | LUnknown, LGlobal _ | LGlobal _, LUnknown -> true
  | LUnknown, LAlloca a | LAlloca a, LUnknown -> is_escaped fi a
  | LGlobal g, LGlobal h -> String.equal g h
  | LAlloca a, LAlloca b -> a = b
  | LGlobal _, LAlloca _ | LAlloca _, LGlobal _ -> false

(* May the pointers [v1] and [v2] address overlapping memory? Syntactic
   equality is must-alias; empty pointee sets (null/undef) alias
   nothing. *)
let may_alias (fi : finfo) (v1 : Value.t) (v2 : Value.t) : bool =
  Value.equal v1 v2
  ||
  let s1 = pts fi v1 and s2 = pts fi v2 in
  LSet.exists (fun l1 -> LSet.exists (fun l2 -> locs_overlap fi l1 l2) s2) s1
