(* Abstract interpretation over an interval × constancy × nullness
   product domain, instantiating the generic [Dataflow.Make] solver.

   Each SSA register is mapped to an abstract value:
     - [Range (lo, hi)]  — an integer in the inclusive interval (a
                           constant is the degenerate [Range (k, k)])
     - [Fconst f]        — a known float constant
     - [PNull]/[PNonNull]/[PAny] — pointer nullness
     - [Top]             — anything; [Bot] — no value observed yet.

   The interval lattice has unbounded ascending chains, so the transfer
   function widens a block's output against its previous output once the
   block has been visited more than [widen_budget] times: any bound still
   moving is blown to the int64 extreme, after which facts can change
   only finitely often and the worklist drains well inside the solver's
   non-monotonicity budget.

   Branch conditions are refined per edge with the solver's [~edge] hook:
   on the true edge of [cbr (icmp slt x y)] the interval of [x] is met
   with (-inf, hi(y)-1] and symmetrically for [y]; switch case edges pin
   the scrutinee into the hull of that label's case keys. A refinement
   that empties an interval proves the edge infeasible and propagates
   [Unreached] — which is exactly what the dead-branch lint rule reads
   back out. Phi inputs are also bound on the incoming edge, so a phi's
   entry fact is the join of its incoming abstract values. *)

open Posetrl_ir
module Obs = Posetrl_obs
module IMap = Map.Make (Int)
module SMap = Map.Make (String)

type aval =
  | Bot
  | Range of int64 * int64
  | Fconst of float
  | PNull
  | PNonNull
  | PAny
  | Top

let aval_to_string = function
  | Bot -> "bot"
  | Range (lo, hi) ->
    if Int64.equal lo hi then Printf.sprintf "const %Ld" lo
    else Printf.sprintf "[%Ld, %Ld]" lo hi
  | Fconst f -> Printf.sprintf "fconst %h" f
  | PNull -> "null"
  | PNonNull -> "nonnull"
  | PAny -> "ptr"
  | Top -> "top"

(* Float constants compare by bit pattern, the rule of [Value.exact]:
   polymorphic compare sees -0. and 0. as one value, and a join that
   kept either sign would claim a constant the program does not have. *)
let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let aval_equal (a : aval) (b : aval) =
  match a, b with
  | Fconst x, Fconst y -> same_float x y
  | _ -> Stdlib.compare a b = 0

let join_aval a b =
  match a, b with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Range (al, ah), Range (bl, bh) -> Range (min al bl, max ah bh)
  | Fconst x, Fconst y -> if same_float x y then a else Top
  | PNull, PNull -> PNull
  | PNonNull, PNonNull -> PNonNull
  | (PNull | PNonNull | PAny), (PNull | PNonNull | PAny) -> PAny
  | _ -> Top

(* Does the abstract value admit the concrete integer [v]? Used by the
   soundness property against the interpreter. *)
let contains_int (a : aval) (v : int64) : bool =
  match a with
  | Bot -> false
  | Range (lo, hi) -> Int64.compare lo v <= 0 && Int64.compare v hi <= 0
  | Fconst _ -> false
  | PNull -> Int64.equal v 0L
  | PNonNull -> not (Int64.equal v 0L)
  | PAny | Top -> true

(* --- type-based defaults -------------------------------------------------- *)

let type_bounds (ty : Types.t) : (int64 * int64) option =
  match ty with
  | Types.I1 -> Some (0L, 1L)
  | Types.I8 -> Some (-128L, 127L)
  | Types.I32 -> Some (Int64.of_int32 Int32.min_int, Int64.of_int32 Int32.max_int)
  | Types.I64 -> Some (Int64.min_int, Int64.max_int)
  | _ -> None

let type_default (ty : Types.t) : aval =
  match ty with
  | Types.I1 | Types.I8 | Types.I32 | Types.I64 ->
    (match type_bounds ty with Some (lo, hi) -> Range (lo, hi) | None -> Top)
  | Types.Ptr -> PAny
  | Types.Void -> Bot
  | Types.F64 | Types.Vec _ -> Top

(* [Range (lo, hi)] when the unwrapped interval fits the type, otherwise
   the full type range (wrap semantics: Types.wrap can land anywhere). *)
let clamp (ty : Types.t) (lo : int64) (hi : int64) : aval =
  match type_bounds ty with
  | None -> Top
  | Some (tl, th) ->
    if Int64.compare lo tl >= 0 && Int64.compare hi th <= 0 then Range (lo, hi)
    else Range (tl, th)

(* --- overflow-checked int64 endpoint arithmetic --------------------------- *)

let add_ck a b =
  let s = Int64.add a b in
  let sign v = Int64.compare v 0L >= 0 in
  if sign a = sign b && sign s <> sign a then None else Some s

let neg_ck a = if Int64.equal a Int64.min_int then None else Some (Int64.neg a)

let sub_ck a b =
  match neg_ck b with None -> None | Some nb -> add_ck a nb

let mul_ck a b =
  if Int64.equal a 0L || Int64.equal b 0L then Some 0L
  else if
    (Int64.equal a (-1L) && Int64.equal b Int64.min_int)
    || (Int64.equal b (-1L) && Int64.equal a Int64.min_int)
  then None
  else
    let p = Int64.mul a b in
    if Int64.equal (Int64.div p a) b then Some p else None

(* Endpoint-combination rule: sound for operations monotone in each
   argument and for bilinear ones (mul) whose extrema sit at corners. *)
let corners f (al, ah) (bl, bh) : (int64 * int64) option =
  match f al bl, f al bh, f ah bl, f ah bh with
  | Some a, Some b, Some c, Some d ->
    Some (min (min a b) (min c d), max (max a b) (max c d))
  | _ -> None

(* --- abstract evaluation -------------------------------------------------- *)

(* smallest all-ones mask covering [v] (v >= 0) *)
let ceil_mask (v : int64) : int64 =
  let m = ref 1L in
  while Int64.compare !m v < 0 do
    m := Int64.add (Int64.mul !m 2L) 1L
  done;
  !m

let eval_binop_aval (b : Instr.binop) (ty : Types.t) (x : aval) (y : aval) :
    aval =
  let default = type_default ty in
  match b, x, y with
  | (Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv), Fconst a, Fconst c ->
    (match Fold.eval_fbinop b a c with Some r -> Fconst r | None -> Top)
  | (Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv), _, _ -> Top
  | _, Range (al, ah), Range (bl, bh) when Types.is_integer ty -> (
    let rx = (al, ah) and ry = (bl, bh) in
    match b with
    | Instr.Add -> (
      match corners add_ck rx ry with
      | Some (lo, hi) -> clamp ty lo hi
      | None -> default)
    | Instr.Sub -> (
      match corners sub_ck rx ry with
      | Some (lo, hi) -> clamp ty lo hi
      | None -> default)
    | Instr.Mul -> (
      match corners mul_ck rx ry with
      | Some (lo, hi) -> clamp ty lo hi
      | None -> default)
    | Instr.And ->
      if Int64.equal bl bh && Int64.compare bl 0L >= 0 then Range (0L, bl)
      else if Int64.equal al ah && Int64.compare al 0L >= 0 then Range (0L, al)
      else if Int64.compare al 0L >= 0 && Int64.compare bl 0L >= 0 then
        Range (0L, min ah bh)
      else default
    | Instr.Or | Instr.Xor ->
      if Int64.compare al 0L >= 0 && Int64.compare bl 0L >= 0 then
        Range (0L, ceil_mask (max ah bh))
      else default
    | Instr.Shl when Int64.equal bl bh && Int64.compare bl 0L >= 0
                     && Int64.compare bl 63L <= 0 -> (
      let k = Int64.to_int bl in
      let f a () = mul_ck a (Int64.shift_left 1L k) in
      match f al (), f ah () with
      | Some lo, Some hi -> clamp ty (min lo hi) (max lo hi)
      | _ -> default)
    | Instr.Lshr when Int64.equal bl bh && Int64.compare bl 0L > 0
                      && Int64.compare bl 63L <= 0 ->
      let k = Int64.to_int bl in
      if Int64.compare al 0L >= 0 then
        Range (Int64.shift_right_logical al k, Int64.shift_right_logical ah k)
      else Range (0L, Int64.shift_right_logical Int64.minus_one k)
    | Instr.Ashr when Int64.equal bl bh && Int64.compare bl 0L >= 0
                      && Int64.compare bl 63L <= 0 ->
      let k = Int64.to_int bl in
      Range (Int64.shift_right al k, Int64.shift_right ah k)
    | Instr.Sdiv when Int64.equal bl bh && not (Int64.equal bl 0L) ->
      if Int64.equal bl (-1L) && Int64.equal al Int64.min_int then default
      else
        let q1 = Int64.div al bl and q2 = Int64.div ah bl in
        Range (min q1 q2, max q1 q2)
    | Instr.Srem when Int64.equal bl bh && not (Int64.equal bl 0L) ->
      let a = Int64.sub (Int64.abs bl) 1L in
      if Int64.compare (Int64.abs bl) 0L < 0 then default (* |min_int| *)
      else if Int64.compare al 0L >= 0 then Range (0L, min ah a)
      else Range (Int64.neg a, a)
    | Instr.Udiv when Int64.equal bl bh && Int64.compare bl 0L > 0
                      && Int64.compare al 0L >= 0 ->
      Range (Int64.div al bl, Int64.div ah bl)
    | Instr.Urem when Int64.equal bl bh && Int64.compare bl 0L > 0 ->
      let hi = Int64.sub bl 1L in
      if Int64.compare al 0L >= 0 then Range (0L, min ah hi)
      else Range (0L, hi)
    | _ -> default)
  | _ -> default

(* May [x b y] wrap around the type's bounds? Only meaningful when both
   operand intervals are strictly narrower than the full type range —
   otherwise every unconstrained operation would flag. Drives the
   possible-overflow lint rule. *)
let may_overflow (b : Instr.binop) (ty : Types.t) (x : aval) (y : aval) : bool =
  match type_bounds ty, x, y with
  | Some (tl, th), Range (al, ah), Range (bl, bh) ->
    let full (lo, hi) = Int64.equal lo tl && Int64.equal hi th in
    if full (al, ah) || full (bl, bh) then false
    else (
      match
        match b with
        | Instr.Add -> Some add_ck
        | Instr.Sub -> Some sub_ck
        | Instr.Mul -> Some mul_ck
        | _ -> None
      with
      | None -> false
      | Some f -> (
        match corners f (al, ah) (bl, bh) with
        | None -> true (* int64 overflow at an endpoint *)
        | Some (lo, hi) -> Int64.compare lo tl < 0 || Int64.compare hi th > 0))
  | _ -> false

let rec icmp_ranges (p : Instr.icmp) (al, ah) (bl, bh) : bool option =
  let lt a b = Int64.compare a b < 0 in
  let le a b = Int64.compare a b <= 0 in
  let nonneg = Int64.compare al 0L >= 0 && Int64.compare bl 0L >= 0 in
  let rec decide p =
    match p with
    | Instr.Eq ->
      if Int64.equal al ah && Int64.equal bl bh && Int64.equal al bl then
        Some true
      else if lt ah bl || lt bh al then Some false
      else None
    | Instr.Ne -> Option.map not (decide Instr.Eq)
    | Instr.Slt ->
      if lt ah bl then Some true else if le bh al then Some false else None
    | Instr.Sle ->
      if le ah bl then Some true else if lt bh al then Some false else None
    | Instr.Sgt -> decide_swapped Instr.Slt
    | Instr.Sge -> decide_swapped Instr.Sle
    | Instr.Ult -> if nonneg then decide Instr.Slt else None
    | Instr.Ule -> if nonneg then decide Instr.Sle else None
    | Instr.Ugt -> if nonneg then decide Instr.Sgt else None
    | Instr.Uge -> if nonneg then decide Instr.Sge else None
  and decide_swapped p =
    match icmp_ranges p (bl, bh) (al, ah) with
    | Some b -> Some b
    | None -> None
  in
  decide p

let eval_icmp_aval (p : Instr.icmp) (x : aval) (y : aval) : aval =
  match x, y with
  | Range (al, ah), Range (bl, bh) -> (
    match icmp_ranges p (al, ah) (bl, bh) with
    | Some true -> Range (1L, 1L)
    | Some false -> Range (0L, 0L)
    | None -> Range (0L, 1L))
  | PNull, PNull -> (
    match p with
    | Instr.Eq | Instr.Ule | Instr.Uge | Instr.Sle | Instr.Sge -> Range (1L, 1L)
    | Instr.Ne | Instr.Ult | Instr.Ugt | Instr.Slt | Instr.Sgt -> Range (0L, 0L))
  | PNull, PNonNull | PNonNull, PNull -> (
    match p with
    | Instr.Eq -> Range (0L, 0L)
    | Instr.Ne -> Range (1L, 1L)
    | _ -> Range (0L, 1L))
  | _ -> Range (0L, 1L)

(* --- the environment lattice ---------------------------------------------- *)

type env = Unreached | Env of aval IMap.t

module L = struct
  type t = env

  let bottom = Unreached

  let equal a b =
    match a, b with
    | Unreached, Unreached -> true
    | Env x, Env y -> IMap.equal aval_equal x y
    | _ -> false

  let join a b =
    match a, b with
    | Unreached, x | x, Unreached -> x
    | Env x, Env y ->
      Env
        (IMap.union (fun _ va vb -> Some (join_aval va vb)) x y)
end

module Solver = Dataflow.Make (L)

let find_aval (e : aval IMap.t) (r : int) : aval =
  Option.value (IMap.find_opt r e) ~default:Bot

let eval_value (e : aval IMap.t) (v : Value.t) : aval =
  match v with
  | Value.Const (Value.Cint (_, k)) -> Range (k, k)
  | Value.Const (Value.Cfloat f) -> Fconst f
  | Value.Const Value.Cnull -> PNull
  | Value.Const (Value.Cundef _) -> Top
  | Value.Global _ -> PNonNull
  | Value.Reg r -> find_aval e r

let eval_op (e : aval IMap.t) (op : Instr.op) : aval =
  (* strictness: an operand with no value yet means this program point
     has not been reached along any analyzed path *)
  let strict_bot =
    List.exists
      (fun v -> match v with Value.Reg r -> find_aval e r = Bot | _ -> false)
      (Instr.operands op)
  in
  if strict_bot then Bot
  else
    match op with
    | Instr.Binop (b, ty, x, y) ->
      if Types.is_vector ty then Top
      else eval_binop_aval b ty (eval_value e x) (eval_value e y)
    | Instr.Icmp (p, _, x, y) -> eval_icmp_aval p (eval_value e x) (eval_value e y)
    | Instr.Fcmp (p, x, y) -> (
      match eval_value e x, eval_value e y with
      | Fconst a, Fconst b ->
        if Fold.eval_fcmp p a b then Range (1L, 1L) else Range (0L, 0L)
      | _ -> Range (0L, 1L))
    | Instr.Select (_, c, a, b) -> (
      match eval_value e c with
      | Range (1L, 1L) -> eval_value e a
      | Range (0L, 0L) -> eval_value e b
      | Bot -> Bot
      | _ -> join_aval (eval_value e a) (eval_value e b))
    | Instr.Cast (cop, from_ty, to_ty, v) -> (
      let av = eval_value e v in
      match cop, av with
      | Instr.Trunc, Range (lo, hi) -> clamp to_ty lo hi
      | Instr.Sext, Range (lo, hi) -> clamp to_ty lo hi
      | Instr.Zext, Range (lo, hi) ->
        if Int64.compare lo 0L >= 0 then clamp to_ty lo hi
        else
          let w = Types.bit_width from_ty in
          if w >= 64 then type_default to_ty
          else clamp to_ty 0L (Int64.sub (Int64.shift_left 1L w) 1L)
      | Instr.Bitcast, _
        when Types.equal from_ty Types.Ptr && Types.equal to_ty Types.Ptr ->
        av
      | Instr.Sitofp, Range (lo, hi) when Int64.equal lo hi ->
        Fconst (Int64.to_float lo)
      | Instr.Fptosi, Fconst f ->
        if Float.is_nan f then Top
        else
          let k = Types.wrap (Types.elt_type to_ty) (Int64.of_float f) in
          Range (k, k)
      | _ -> type_default to_ty)
    | Instr.Alloca _ -> PNonNull
    | Instr.Gep _ -> PAny
    | Instr.Load (ty, _) -> type_default ty
    | Instr.Expect (_, v, _) -> eval_value e v
    | Instr.Phi _ -> Bot (* bound on incoming edges; never re-evaluated here *)
    | op -> type_default (Instr.result_ty op)

(* straight-line transfer of one block: phis keep their edge-joined
   binding, every other instruction binds its abstract result *)
let transfer_block (b : Block.t) (fact : env) : env =
  match fact with
  | Unreached -> Unreached
  | Env e ->
    Env
      (List.fold_left
         (fun e (i : Instr.t) ->
           if i.Instr.id < 0 then e
           else
             match i.Instr.op with
             | Instr.Phi _ -> e
             | op -> IMap.add i.Instr.id (eval_op e op) e)
         e b.Block.insns)

(* --- edge refinement ------------------------------------------------------ *)

let meet_range (al, ah) (bl, bh) : (int64 * int64) option =
  let lo = max al bl and hi = min ah bh in
  if Int64.compare lo hi <= 0 then Some (lo, hi) else None

(* Refine [e] under the assumption that [icmp p x y] evaluates to
   [truth]. Returns None when the assumption is infeasible. *)
let assume_icmp (e : aval IMap.t) (p : Instr.icmp) (x : Value.t) (y : Value.t)
    (truth : bool) : aval IMap.t option =
  let p = if truth then p else Instr.negate_icmp p in
  let bind v av e =
    match v with Value.Reg r -> IMap.add r av e | _ -> e
  in
  let vx = eval_value e x and vy = eval_value e y in
  match vx, vy with
  | Range (al, ah), Range (bl, bh) -> (
    let rx = (al, ah) and ry = (bl, bh) in
    let nonneg = Int64.compare al 0L >= 0 && Int64.compare bl 0L >= 0 in
    let constrain p =
      (* interval each side must fall in for [x p y] to hold *)
      match p with
      | Instr.Eq -> Some (ry, rx)
      | Instr.Ne ->
        (* only sharpens against a constant: shave a matching endpoint;
           two equal constants make the edge infeasible *)
        let shave (lo, hi) (kl, kh) =
          if Int64.equal kl kh then
            if Int64.equal lo kl && Int64.equal hi kl then None
            else if Int64.equal lo kl then Some (Int64.add lo 1L, hi)
            else if Int64.equal hi kl then Some (lo, Int64.sub hi 1L)
            else Some (lo, hi)
          else Some (lo, hi)
        in
        (match shave rx ry, shave ry rx with
         | Some rx', Some ry' -> Some (rx', ry')
         | _ -> None)
      | Instr.Slt ->
        if Int64.equal bh Int64.min_int then None
        else Some ((Int64.min_int, Int64.sub bh 1L),
                   (Int64.add al 1L, Int64.max_int))
      | Instr.Sle -> Some ((Int64.min_int, bh), (al, Int64.max_int))
      | Instr.Sgt ->
        if Int64.equal bl Int64.max_int then None
        else Some ((Int64.add bl 1L, Int64.max_int),
                   (Int64.min_int, Int64.sub ah 1L))
      | Instr.Sge -> Some ((bl, Int64.max_int), (Int64.min_int, ah))
      | Instr.Ult when nonneg ->
        if Int64.equal bh Int64.min_int then None
        else Some ((0L, Int64.sub bh 1L), (Int64.add al 1L, Int64.max_int))
      | Instr.Ule when nonneg -> Some ((0L, bh), (al, Int64.max_int))
      | Instr.Ugt when nonneg ->
        Some ((Int64.add bl 1L, Int64.max_int), (0L, Int64.sub ah 1L))
      | Instr.Uge when nonneg -> Some ((bl, Int64.max_int), (0L, ah))
      | _ -> Some ((Int64.min_int, Int64.max_int), (Int64.min_int, Int64.max_int))
    in
    match constrain p with
    | None -> None
    | Some (x_window, y_window) -> (
      match meet_range rx x_window, meet_range ry y_window with
      | Some (xl, xh), Some (yl, yh) ->
        Some (bind x (Range (xl, xh)) (bind y (Range (yl, yh)) e))
      | _ -> None))
  | (PNull | PNonNull | PAny), (PNull | PNonNull | PAny) -> (
    let null_side v other =
      (* x compared against a known-null other *)
      match p with
      | Instr.Eq -> (
        match eval_value e v with
        | PNonNull -> None
        | _ -> Some (bind v PNull e))
      | Instr.Ne -> (
        match eval_value e v with
        | PNull -> None
        | _ -> Some (bind v PNonNull e))
      | _ -> ignore other; Some e
    in
    match vx, vy with
    | _, PNull -> null_side x vy
    | PNull, _ -> null_side y vx
    | _ -> Some e)
  | _ -> Some e

(* Refinement along the CFG edge pred -> succ: constrain by pred's
   branch condition, then bind succ's phis to their incoming values. *)
let refine_edge ~(defs : (int, string * Instr.t) Hashtbl.t)
    ~(block_map : Block.t Func.SMap.t) ~(pred : string) ~(succ : string)
    (fact : env) : env =
  match fact with
  | Unreached -> Unreached
  | Env e -> (
    let pred_blk = Func.SMap.find_opt pred block_map in
    let refined =
      match pred_blk with
      | None -> Some e
      | Some pb -> (
        match pb.Block.term with
        | Instr.Cbr (Value.Reg c, t, f) when not (String.equal t f) -> (
          let truth = String.equal succ t in
          let e = IMap.add c (Range ((if truth then 1L else 0L),
                                     if truth then 1L else 0L)) e in
          match Hashtbl.find_opt defs c with
          | Some (_, { Instr.op = Instr.Icmp (p, ty, x, y); _ })
            when not (Types.is_vector ty) ->
            assume_icmp e p x y truth
          | _ -> Some e)
        | Instr.Switch (_, v, cases, d) -> (
          if String.equal succ d then Some e
          else
            let keys =
              List.filter_map
                (fun (k, l) -> if String.equal l succ then Some k else None)
                cases
            in
            match keys, v with
            | [], _ -> Some e
            | k :: ks, Value.Reg r -> (
              let lo = List.fold_left min k ks and hi = List.fold_left max k ks in
              match find_aval e r with
              | Range (rl, rh) -> (
                match meet_range (rl, rh) (lo, hi) with
                | Some (ml, mh) -> Some (IMap.add r (Range (ml, mh)) e)
                | None -> None)
              | _ -> Some (IMap.add r (Range (lo, hi)) e))
            | _ -> Some e)
        | _ -> Some e)
    in
    match refined with
    | None -> Unreached
    | Some e -> (
      (* bind succ's phis to the value flowing in from pred *)
      match Func.SMap.find_opt succ block_map with
      | None -> Env e
      | Some sb ->
        let phis, _ = Block.split_phis sb in
        Env
          (List.fold_left
             (fun acc (i : Instr.t) ->
               match i.Instr.op with
               | Instr.Phi (_, incs) -> (
                 match List.assoc_opt pred incs with
                 | Some v -> IMap.add i.Instr.id (eval_value e v) acc
                 | None -> acc)
               | _ -> acc)
             e phis)))

(* --- widening ------------------------------------------------------------- *)

let widen_budget = 8

let widen_aval ~(prev : aval) (cur : aval) : aval =
  match prev, cur with
  | Range (pl, ph), Range (cl, ch) ->
    let lo = if Int64.compare cl pl < 0 then Int64.min_int else cl in
    let hi = if Int64.compare ch ph > 0 then Int64.max_int else ch in
    Range (lo, hi)
  | _ -> cur

let widen_env ~(prev : env) (cur : env) : env =
  match prev, cur with
  | Env p, Env c ->
    Env (IMap.mapi
           (fun r v ->
             match IMap.find_opt r p with
             | Some pv -> widen_aval ~prev:pv v
             | None -> v)
           c)
  | _ -> cur

(* --- public result -------------------------------------------------------- *)

type t = {
  entry_env : env SMap.t; (* joined, phi-bound fact at each block entry *)
  vals : aval IMap.t;     (* abstract value of every register at its def *)
  iterations : int;
}

let of_func (f : Func.t) : t =
  Obs.Span.with_ "posetrl.analysis.absint"
    ~attrs:[ ("func", Obs.Event.S f.Func.name) ]
    (fun sp ->
      Obs.Metrics.inc (Obs.Metrics.counter "posetrl.analysis.absint.funcs");
      let block_map = Func.block_map f in
      let defs = Func.def_map f in
      let init_env =
        Env
          (List.fold_left
             (fun e (p, ty) -> IMap.add p (type_default ty) e)
             IMap.empty f.Func.params)
      in
      let visits : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let prev_out : (string, env) Hashtbl.t = Hashtbl.create 16 in
      let transfer (b : Block.t) (fact : env) : env =
        let out = transfer_block b fact in
        let l = b.Block.label in
        let n = 1 + Option.value (Hashtbl.find_opt visits l) ~default:0 in
        Hashtbl.replace visits l n;
        let out =
          if n > widen_budget then
            match Hashtbl.find_opt prev_out l with
            | Some prev -> widen_env ~prev (L.join prev out)
            | None -> out
          else out
        in
        Hashtbl.replace prev_out l out;
        out
      in
      let edge ~pred ~succ fact =
        refine_edge ~defs ~block_map ~pred ~succ fact
      in
      let result = Solver.solve ~init:init_env ~edge ~transfer f in
      (* replay each reachable block once to record per-register values *)
      let vals = ref IMap.empty in
      List.iter
        (fun (p, ty) -> vals := IMap.add p (type_default ty) !vals)
        f.Func.params;
      List.iter
        (fun (b : Block.t) ->
          match Solver.entry_fact result b.Block.label with
          | Unreached -> ()
          | Env e ->
            ignore
              (List.fold_left
                 (fun e (i : Instr.t) ->
                   if i.Instr.id < 0 then e
                   else
                     match i.Instr.op with
                     | Instr.Phi _ ->
                       vals := IMap.add i.Instr.id (find_aval e i.Instr.id) !vals;
                       e
                     | op ->
                       let v = eval_op e op in
                       vals := IMap.add i.Instr.id
                           (join_aval v
                              (Option.value (IMap.find_opt i.Instr.id !vals)
                                 ~default:Bot))
                           !vals;
                       IMap.add i.Instr.id v e)
                 e b.Block.insns))
        f.Func.blocks;
      Obs.Span.set_attr sp "iterations" (Obs.Event.I result.Solver.iterations);
      { entry_env =
          SMap.of_seq
            (Seq.map
               (fun (l, _) -> (l, Solver.entry_fact result l))
               (Dataflow.SMap.to_seq result.Solver.at_entry));
        vals = !vals;
        iterations = result.Solver.iterations })

let val_of (t : t) (r : int) : aval =
  Option.value (IMap.find_opt r t.vals) ~default:Bot

let env_at_entry (t : t) (label : string) : env =
  Option.value (SMap.find_opt label t.entry_env) ~default:Unreached

let reachable (t : t) (label : string) : bool =
  env_at_entry t label <> Unreached
