(* -instcombine: algebraic peephole simplification.

   Works instruction-at-a-time: each rewrite either folds an instruction to
   an existing value (recorded in a substitution) or replaces its opcode
   with a cheaper one. Runs to a fixed point, then cleans up with trivial
   DCE. The rule set mirrors the high-value LLVM combines: identities,
   constant folding, strength reduction, cast and comparison combines,
   select simplification, and operand canonicalization. *)

open Posetrl_ir
open Instr

let pow2 (v : int64) =
  Int64.compare v 0L > 0 && Int64.equal (Int64.logand v (Int64.sub v 1L)) 0L

let log2 (v : int64) =
  let rec go v acc = if Int64.compare v 1L <= 0 then acc else go (Int64.shift_right_logical v 1) (acc + 1) in
  go v 0

(* Canonicalize: constants on the right of commutative ops, registers
   ordered for CSE friendliness. *)
let canonicalize (op : op) : op =
  match op with
  | Binop (b, ty, (Value.Const _ as c), x) when is_commutative b && not (Value.is_const x) ->
    Binop (b, ty, x, c)
  | Binop (b, ty, Value.Reg r1, Value.Reg r2) when is_commutative b && r2 < r1 ->
    Binop (b, ty, Value.Reg r2, Value.Reg r1)
  | Icmp (p, ty, (Value.Const _ as c), x) when not (Value.is_const x) ->
    Icmp (swap_icmp p, ty, x, c)
  | op -> op

(* One rewriting step for a single instruction. [`Value v] folds the whole
   instruction to [v]; [`Op op] replaces the opcode; [`Keep] leaves it. *)
let combine_op (defs : (int, Instr.op) Hashtbl.t) (op : op) :
    [ `Value of Value.t | `Op of op | `Keep ] =
  let def v = match v with Value.Reg r -> Hashtbl.find_opt defs r | _ -> None in
  match Fold.fold_op op with
  | Some v -> `Value v
  | None ->
    (match canonicalize op with
     | Binop (b, ty, x, y) as op' ->
       (match b, x, y with
        (* x + 0, x - 0, x | 0, x ^ 0, x << 0, ... *)
        | (Add | Sub | Or | Xor | Shl | Lshr | Ashr), x, y when Value.is_zero y -> ignore x; `Value x
        (* only the IEEE-exact float identities: x + -0.0 and x - 0.0 are x
           for every x, but -0.0 + 0.0 is 0.0 *)
        | Fadd, x, y when Value.equal y (Value.cfloat (-0.0)) -> `Value x
        | Fsub, x, y when Value.equal y (Value.cfloat 0.0) -> `Value x
        (* 0 - x stays; x * 1, x / 1 *)
        | (Mul | Sdiv | Udiv), x, y when Value.is_one y -> `Value x
        | (Fmul | Fdiv), x, Value.Const (Value.Cfloat 1.0) -> `Value x
        (* x * 0, x & 0 *)
        | (Mul | And), _, y when Value.is_zero y -> `Value (Value.cint ty 0L)
        (* x & -1 = x; x | -1 = -1 *)
        | And, x, y when Value.is_all_ones y -> `Value x
        | Or, _, y when Value.is_all_ones y -> `Value y
        (* x - x, x ^ x *)
        | (Sub | Xor), x, y when Value.equal x y && not (Value.is_const x) ->
          `Value (Value.cint ty 0L)
        (* x & x, x | x *)
        | (And | Or), x, y when Value.equal x y -> `Value x
        (* srem/urem by 1 *)
        | (Srem | Urem), _, y when Value.is_one y -> `Value (Value.cint ty 0L)
        (* strength reduction: x * 2^k -> x << k; udiv by 2^k -> lshr *)
        | Mul, x, Value.Const (Value.Cint (_, k)) when pow2 k ->
          `Op (Binop (Shl, ty, x, Value.cint ty (Int64.of_int (log2 k))))
        | Udiv, x, Value.Const (Value.Cint (_, k)) when pow2 k ->
          `Op (Binop (Lshr, ty, x, Value.cint ty (Int64.of_int (log2 k))))
        | Urem, x, Value.Const (Value.Cint (_, k)) when pow2 k ->
          `Op (Binop (And, ty, x, Value.cint ty (Int64.sub k 1L)))
        (* (x + c1) + c2 -> x + (c1+c2); same for sub folded into add *)
        | Add, x, Value.Const (Value.Cint (_, c2)) ->
          (match def x with
           | Some (Binop (Add, ty', x', Value.Const (Value.Cint (_, c1))))
             when Types.equal ty ty' ->
             `Op (Binop (Add, ty, x', Value.cint ty (Int64.add c1 c2)))
           | Some (Binop (Sub, ty', x', Value.Const (Value.Cint (_, c1))))
             when Types.equal ty ty' ->
             `Op (Binop (Add, ty, x', Value.cint ty (Int64.sub c2 c1)))
           | _ -> `Keep)
        (* x - c -> x + (-c): canonical form enabling reassociation *)
        | Sub, x, Value.Const (Value.Cint (_, c)) when not (Int64.equal c Int64.min_int) ->
          `Op (Binop (Add, ty, x, Value.cint ty (Int64.neg c)))
        (* (x ^ c1) ^ c2 -> x ^ (c1^c2) *)
        | Xor, x, Value.Const (Value.Cint (_, c2)) ->
          (match def x with
           | Some (Binop (Xor, ty', x', Value.Const (Value.Cint (_, c1))))
             when Types.equal ty ty' ->
             `Op (Binop (Xor, ty, x', Value.cint ty (Int64.logxor c1 c2)))
           | _ -> `Keep)
        (* (x & c1) & c2 -> x & (c1&c2); (x | c1) | c2 -> x | (c1|c2) *)
        | And, x, Value.Const (Value.Cint (_, c2)) ->
          (match def x with
           | Some (Binop (And, ty', x', Value.Const (Value.Cint (_, c1))))
             when Types.equal ty ty' ->
             `Op (Binop (And, ty, x', Value.cint ty (Int64.logand c1 c2)))
           | _ -> `Keep)
        | Or, x, Value.Const (Value.Cint (_, c2)) ->
          (match def x with
           | Some (Binop (Or, ty', x', Value.Const (Value.Cint (_, c1))))
             when Types.equal ty ty' ->
             `Op (Binop (Or, ty, x', Value.cint ty (Int64.logor c1 c2)))
           | _ -> `Keep)
        (* (x << c1) << c2 -> x << (c1+c2) when in range *)
        | Shl, x, Value.Const (Value.Cint (_, c2)) ->
          (match def x with
           | Some (Binop (Shl, ty', x', Value.Const (Value.Cint (_, c1))))
             when Types.equal ty ty'
                  && Int64.to_int (Int64.add c1 c2) < Types.bit_width ty ->
             `Op (Binop (Shl, ty, x', Value.cint ty (Int64.add c1 c2)))
           | _ -> `Keep)
        | _ -> ignore op'; `Keep)
     | Icmp (p, ty, x, y) ->
       (match p, x, y with
        (* x == x, x != x on non-float *)
        | Eq, x, y when Value.equal x y && not (Value.is_const x) -> `Value (Value.ci1 true)
        | Ne, x, y when Value.equal x y && not (Value.is_const x) -> `Value (Value.ci1 false)
        (* unsigned x < 0 is false; unsigned x >= 0 is true *)
        | Ult, _, y when Value.is_zero y -> `Value (Value.ci1 false)
        | Uge, _, y when Value.is_zero y -> `Value (Value.ci1 true)
        (* (x - y) ==/!= 0  ->  x ==/!= y *)
        | (Eq | Ne), x, y when Value.is_zero y ->
          (match def x with
           | Some (Binop (Sub, ty', a, b)) when Types.equal ty ty' ->
             `Op (Icmp (p, ty, a, b))
           | Some (Binop (Xor, ty', a, b)) when Types.equal ty ty' ->
             `Op (Icmp (p, ty, a, b))
           | _ -> `Keep)
        (* icmp of zext: compare in the narrow type *)
        | _, x, Value.Const (Value.Cint (_, c)) ->
          (match def x with
           | Some (Cast (Zext, from_ty, _, v))
             when Types.is_integer from_ty
                  && Int64.compare c (Int64.shift_left 1L (Types.bit_width from_ty - 1)) < 0
                  && Int64.compare c 0L >= 0 ->
             `Op (Icmp (p, from_ty, v, Value.cint from_ty c))
           | _ -> `Keep)
        | _ -> `Keep)
     | Select (ty, c, a, b) ->
       (match c, a, b with
        | _, a, b when Value.equal a b -> `Value a
        (* select c, true, false -> c ; select c, false, true -> !c *)
        | c, a, b when Types.equal ty Types.I1 && Value.is_one a && Value.is_zero b ->
          `Value c
        | c, a, b when Types.equal ty Types.I1 && Value.is_zero a && Value.is_one b ->
          `Op (Binop (Xor, Types.I1, c, Value.ci1 true))
        (* select (icmp) with swapped arms when condition is a negation *)
        | Value.Reg r, a, b ->
          (match Hashtbl.find_opt defs r with
           | Some (Binop (Xor, Types.I1, inner, one)) when Value.is_one one ->
             `Op (Select (ty, inner, b, a))
           | _ -> `Keep)
        | _ -> `Keep)
     | Cast (cop, from_ty, to_ty, v) ->
       if Types.equal from_ty to_ty then `Value v
       else
         (match def v with
          (* zext(zext x) / sext(sext x) -> single cast *)
          | Some (Cast (cop', t0, _, v0))
            when cop = cop' && (cop = Zext || cop = Sext) ->
            `Op (Cast (cop, t0, to_ty, v0))
          (* trunc(zext x) where widths line up *)
          | Some (Cast ((Zext | Sext), t0, _, v0))
            when cop = Trunc && Types.equal t0 to_ty -> `Value v0
          | _ -> `Keep)
     | Phi (_, _) -> `Keep
     | Expect (_, v, _) -> `Value v (* semantically transparent *)
     | Gep (ty, base, idx) ->
       (match def base with
        (* gep(gep(b, i), j) -> gep(b, i + j) when both constant *)
        | Some (Gep (ty', b0, Value.Const (Value.Cint (_, i))))
          when Types.equal ty ty' ->
          (match idx with
           | Value.Const (Value.Cint (_, j)) ->
             `Op (Gep (ty, b0, Value.ci64 (Int64.to_int (Int64.add i j))))
           | _ -> `Keep)
        | _ -> `Keep)
     | _ -> `Keep)

let run_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let step (f : Func.t) : Func.t * bool =
    let defs : (int, Instr.op) Hashtbl.t = Hashtbl.create 64 in
    Func.iter_insns (fun _ i -> if i.Instr.id >= 0 then Hashtbl.replace defs i.Instr.id i.Instr.op) f;
    let subst : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
    let changed = ref false in
    let rewrite (i : Instr.t) : Instr.t =
      match combine_op defs i.Instr.op with
      | `Value v ->
        if i.Instr.id >= 0 then begin
          Hashtbl.replace subst i.Instr.id v;
          changed := true
        end;
        i
      | `Op op' ->
        changed := true;
        Hashtbl.replace defs i.Instr.id op';
        { i with Instr.op = op' }
      | `Keep ->
        let op' = canonicalize i.Instr.op in
        if op' <> i.Instr.op then begin
          changed := true;
          Hashtbl.replace defs i.Instr.id op';
          { i with Instr.op = op' }
        end
        else i
    in
    let f = Func.map_blocks (Block.map_insns rewrite) f in
    (Func.substitute subst f, !changed)
  in
  let f = Utils.to_fixed_point ~max_iters:6 step f in
  f |> Utils.fold_terminators |> Utils.trivial_dce

let pass =
  Pass.function_pass "instcombine"
    ~description:"algebraic instruction combining and peephole simplification"
    run_func

(* -instsimplify is the non-creating subset: it only folds instructions to
   existing values (no new instructions). We reuse the fold logic with the
   `Op rewrites disabled. *)
let simplify_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let subst : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          if i.Instr.id >= 0 then
            match Fold.fold_op i.Instr.op with
            | Some v -> Hashtbl.replace subst i.Instr.id v
            | None -> ())
        b.Block.insns)
    f.Func.blocks;
  Func.substitute subst f |> Utils.trivial_dce

let instsimplify_pass =
  Pass.function_pass "instsimplify"
    ~description:"fold instructions to existing values without creating new ones"
    simplify_func
