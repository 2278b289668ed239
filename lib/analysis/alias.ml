(* Alias analysis: flow-insensitive points-to and escape information per
   function, plus interprocedural mod-ref summaries computed by the same
   callgraph-fixpoint scheme as [Effects.summarize].

   The location domain is deliberately small — one abstract location per
   alloca site, one per global, and a single [LUnknown] standing for all
   caller-provided and heap memory. Points-to sets are solved by a
   worklist-free round-robin fixpoint (sets only grow, bounded by the
   location universe, so |insns| * |locations| rounds terminate).

   Two pointers may alias when their pointee sets overlap; [LUnknown]
   overlaps everything *except* allocas whose address never escapes the
   function — nobody outside can hold a pointer to an address that was
   never stored, passed, returned or cast away. This is what lets the
   alias-aware dse/licm/gvn paths reason about loads and calls without a
   whole-program heap model.

   All state lives in the returned values — nothing global — so analyses
   can run concurrently across domains (same contract as Effects). *)

open Posetrl_ir
module Obs = Posetrl_obs
module IMap = Map.Make (Int)
module ISet = Set.Make (Int)
module SSet = Set.Make (String)
module SMap = Map.Make (String)

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

(* All pointees are allocas that never escape: memory no call, unknown
   pointer or caller can reach. *)
let all_private (fi : finfo) (s : LSet.t) : bool =
  (not (LSet.is_empty s))
  && LSet.for_all
       (function LAlloca a -> not (is_escaped fi a) | _ -> false)
       s

(* May a call (to an arbitrary callee) read or write the memory behind
   [p]? Only function-private allocas are out of reach. *)
let call_may_touch (fi : finfo) (p : Value.t) : bool =
  not (all_private fi (pts fi p))

(* --- interprocedural mod-ref summaries ------------------------------------ *)

type modref = {
  mod_globals : SSet.t;
  ref_globals : SSet.t;
  mod_unknown : bool; (* may write caller/heap memory *)
  ref_unknown : bool; (* may read caller/heap memory *)
}

let modref_bottom =
  { mod_globals = SSet.empty;
    ref_globals = SSet.empty;
    mod_unknown = false;
    ref_unknown = false }

let modref_top =
  { modref_bottom with mod_unknown = true; ref_unknown = true }

let modref_join a b =
  { mod_globals = SSet.union a.mod_globals b.mod_globals;
    ref_globals = SSet.union a.ref_globals b.ref_globals;
    mod_unknown = a.mod_unknown || b.mod_unknown;
    ref_unknown = a.ref_unknown || b.ref_unknown }

let modref_equal a b =
  SSet.equal a.mod_globals b.mod_globals
  && SSet.equal a.ref_globals b.ref_globals
  && a.mod_unknown = b.mod_unknown
  && a.ref_unknown = b.ref_unknown

(* mod/ref summary of every function, declarations included *)
type t = modref SMap.t

let declared_modref (f : Func.t) : modref =
  if Func.has_attr Attrs.readnone f then modref_bottom
  else if Func.has_attr Attrs.readonly f then
    { modref_bottom with ref_unknown = true }
  else modref_top

(* Fold the pointee set of an accessed pointer into one side of the
   summary. The function's own allocas are frame-local — dead at return —
   so they never show up in its caller-visible summary. *)
let add_access (fi : finfo) (p : Value.t) ~(write : bool) (mr : modref) : modref
    =
  LSet.fold
    (fun l mr ->
      match l with
      | LAlloca _ -> mr
      | LGlobal g ->
        if write then { mr with mod_globals = SSet.add g mr.mod_globals }
        else { mr with ref_globals = SSet.add g mr.ref_globals }
      | LUnknown ->
        if write then { mr with mod_unknown = true }
        else { mr with ref_unknown = true })
    (pts fi p) mr

let func_modref (tbl : modref SMap.t) (fi : finfo) (f : Func.t) : modref =
  Func.fold_insns
    (fun mr _ (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Store (_, _, p) -> add_access fi p ~write:true mr
      | Instr.Load (_, p) -> add_access fi p ~write:false mr
      | Instr.Memcpy (d, s, _) ->
        add_access fi d ~write:true (add_access fi s ~write:false mr)
      | Instr.Call (_, callee, _) ->
        modref_join mr
          (Option.value (SMap.find_opt callee tbl) ~default:modref_top)
      | Instr.Callind _ -> modref_join mr modref_top
      | Instr.Intrinsic ("memset", _, base :: _) ->
        add_access fi base ~write:true mr
      | Instr.Intrinsic
          (("assume" | "assume.aligned" | "lifetime.start" | "lifetime.end"
           | "expect"), _, _) ->
        mr
      | Instr.Intrinsic _ -> modref_join mr modref_top
      | _ -> mr)
    modref_bottom f

(* Callgraph fixpoint, same shape as [Effects.summarize]: summaries only
   grow (join-monotone over a finite lattice — globals are finite), so
   the round bound is a belt, not the termination argument. *)
let summarize (m : Modul.t) : t =
  Obs.Span.with_ "posetrl.analysis.alias.summarize"
    ~attrs:[ ("module", Obs.Event.S m.Modul.name) ]
    (fun sp ->
      Obs.Metrics.inc (Obs.Metrics.counter "posetrl.analysis.alias.summaries");
      let finfos =
        List.fold_left
          (fun acc (f : Func.t) -> SMap.add f.Func.name (of_func f) acc)
          SMap.empty (Modul.defined_funcs m)
      in
      let init =
        List.fold_left
          (fun tbl (f : Func.t) ->
            let mr =
              if Func.is_declaration f then declared_modref f
              else modref_bottom
            in
            SMap.add f.Func.name mr tbl)
          SMap.empty m.Modul.funcs
      in
      let defined = Modul.defined_funcs m in
      let rounds = ref 0 in
      let rec fix tbl =
        incr rounds;
        if !rounds > (2 * List.length m.Modul.funcs) + List.length m.Modul.globals + 2
        then tbl
        else
          let changed = ref false in
          let tbl' =
            List.fold_left
              (fun tbl (f : Func.t) ->
                let cur =
                  Option.value
                    (SMap.find_opt f.Func.name tbl)
                    ~default:modref_bottom
                in
                let fi = SMap.find f.Func.name finfos in
                let mr = modref_join cur (func_modref tbl fi f) in
                if not (modref_equal mr cur) then changed := true;
                SMap.add f.Func.name mr tbl)
              tbl defined
          in
          if !changed then fix tbl' else tbl'
      in
      let modrefs = fix init in
      Obs.Span.set_attr sp "funcs" (Obs.Event.I (List.length defined));
      modrefs)

let modref_of (t : t) (name : string) : modref =
  Option.value (SMap.find_opt name t) ~default:modref_top
