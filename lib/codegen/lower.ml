(* Instruction selection as a size/resource model.

   Each MiniIR instruction lowers to a short list of machine-instruction
   records (class + encoded bytes) per target. The mapping captures the
   encoding properties that matter for the paper's size results:
   variable-length x86 versus fixed-width AArch64, immediate-size
   penalties, per-phi copies, and a register-pressure spill estimate that
   makes unrolling and inlining pay a realistic size cost. *)

open Posetrl_ir
open Target

let imm_needs_wide (v : int64) =
  Int64.compare v 65535L > 0 || Int64.compare v (-65536L) < 0

(* extra instructions needed to materialize constants in operands *)
let const_cost (t : Target.t) (v : Value.t) : minst list =
  match t.arch, v with
  | X86_64, Value.Const (Value.Cint (_, k)) when imm_needs_wide k ->
    [ mi MMov 10 ] (* movabs *)
  | X86_64, Value.Const (Value.Cfloat _) -> [ mi MLoad 8 ] (* rip-relative load *)
  | X86_64, Value.Global _ -> [ mi MLea 7 ]
  | AArch64, Value.Const (Value.Cint (_, k)) when imm_needs_wide k ->
    [ mi MMov 4; mi MMov 4 ] (* movz + movk *)
  | AArch64, Value.Const (Value.Cfloat _) -> [ mi MLoad 4; mi MLoad 4 ]
  | AArch64, Value.Global _ -> [ mi MLea 4; mi MLea 4 ] (* adrp + add *)
  | _ -> []

let binop_minsts (t : Target.t) (b : Instr.binop) (ty : Types.t) : minst list =
  let vec = Types.is_vector ty in
  match t.arch, b with
  | _, (Instr.Fadd | Instr.Fsub) when vec -> [ mi MVecAlu (if t.arch = X86_64 then 4 else 4) ]
  | _, Instr.Fmul when vec -> [ mi MVecAlu 4 ]
  | _, Instr.Fdiv when vec -> [ mi MVecAlu 5 ]
  | _, _ when vec -> [ mi MVecAlu (if t.arch = X86_64 then 5 else 4) ]
  | X86_64, (Instr.Fadd | Instr.Fsub) -> [ mi MFpAdd 4 ]
  | X86_64, Instr.Fmul -> [ mi MFpMul 4 ]
  | X86_64, Instr.Fdiv -> [ mi MFpDiv 4 ]
  | X86_64, Instr.Mul -> [ mi MMul 4 ]
  | X86_64, (Instr.Sdiv | Instr.Srem) -> [ mi MMov 3; mi MDiv 3 ] (* cqo; idiv *)
  | X86_64, (Instr.Udiv | Instr.Urem) -> [ mi MMov 2; mi MDiv 3 ]
  | X86_64, (Instr.Shl | Instr.Lshr | Instr.Ashr) -> [ mi MAlu 3 ]
  | X86_64, _ -> [ mi MAlu 3 ]
  | AArch64, (Instr.Fadd | Instr.Fsub) -> [ mi MFpAdd 4 ]
  | AArch64, Instr.Fmul -> [ mi MFpMul 4 ]
  | AArch64, Instr.Fdiv -> [ mi MFpDiv 4 ]
  | AArch64, Instr.Mul -> [ mi MMul 4 ]
  | AArch64, (Instr.Sdiv | Instr.Udiv) -> [ mi MDiv 4 ]
  | AArch64, (Instr.Srem | Instr.Urem) -> [ mi MDiv 4; mi MMul 4 ] (* div + msub *)
  | AArch64, _ -> [ mi MAlu 4 ]

(* lower one IR instruction *)
let lower_insn (t : Target.t) (i : Instr.t) : minst list =
  let consts op = List.concat_map (const_cost t) (Instr.operands op) in
  let base =
    match i.Instr.op with
    | Instr.Binop (b, ty, _, _) -> binop_minsts t b ty
    | Instr.Icmp _ -> [ mi MAlu (if t.arch = X86_64 then 3 else 4) ]
    | Instr.Fcmp _ -> [ mi MFpAdd 4 ]
    | Instr.Select _ -> [ mi MMov 4 ] (* cmov / csel *)
    | Instr.Cast (Instr.Bitcast, from_ty, to_ty, _)
      when (not (Types.is_vector from_ty)) && Types.is_vector to_ty ->
      (* splat / broadcast *)
      [ mi MVecAlu (if t.arch = X86_64 then 5 else 4) ]
    | Instr.Cast (Instr.Bitcast, _, _, _) -> []
    | Instr.Cast ((Instr.Trunc | Instr.Zext | Instr.Sext), _, _, _) ->
      [ mi MMov (if t.arch = X86_64 then 3 else 4) ]
    | Instr.Cast ((Instr.Sitofp | Instr.Fptosi), _, _, _) -> [ mi MFpAdd 4 ]
    | Instr.Alloca _ -> [] (* folded into the frame *)
    | Instr.Load (ty, _) when Types.is_vector ty ->
      [ mi MVecMem (if t.arch = X86_64 then 5 else 4) ]
    | Instr.Load _ -> [ mi MLoad 4 ]
    | Instr.Store (ty, _, _) when Types.is_vector ty ->
      [ mi MVecMem (if t.arch = X86_64 then 5 else 4) ]
    | Instr.Store _ -> [ mi MStore 4 ]
    | Instr.Gep _ -> [ mi MLea 4 ]
    | Instr.Call (_, _, args) ->
      List.map (fun _ -> mi MMov (if t.arch = X86_64 then 3 else 4)) args
      @ [ mi MCall (if t.arch = X86_64 then 5 else 4) ]
    | Instr.Callind (_, _, args) ->
      List.map (fun _ -> mi MMov (if t.arch = X86_64 then 3 else 4)) args
      @ [ mi MCall (if t.arch = X86_64 then 3 else 4) ]
    | Instr.Phi _ -> [ mi MMov (if t.arch = X86_64 then 3 else 4) ]
    | Instr.Memcpy _ ->
      [ mi MMov 3; mi MMov 3; mi MMov 3; mi MCall (if t.arch = X86_64 then 5 else 4) ]
    | Instr.Expect _ -> []
    | Instr.Intrinsic ("memset", _, _) ->
      [ mi MMov 3; mi MMov 3; mi MMov 3; mi MCall (if t.arch = X86_64 then 5 else 4) ]
    | Instr.Intrinsic _ -> []
  in
  base @ consts i.Instr.op

let lower_term (t : Target.t) (term : Instr.term) : minst list =
  match term with
  | Instr.Ret _ -> [ mi MBranch (if t.arch = X86_64 then 1 else 4) ]
  | Instr.Br _ -> [ mi MBranch (if t.arch = X86_64 then 2 else 4) ]
  | Instr.Cbr _ -> [ mi MBranch (if t.arch = X86_64 then 6 else 4) ]
  | Instr.Switch (_, _, cases, _) ->
    List.concat_map
      (fun _ ->
        [ mi MAlu (if t.arch = X86_64 then 4 else 4);
          mi MBranch (if t.arch = X86_64 then 6 else 4) ])
      cases
    @ [ mi MBranch (if t.arch = X86_64 then 2 else 4) ]
  | Instr.Unreachable -> [ mi MNop 1 ]

(* Register-pressure spill estimate: values live in a block beyond the
   allocatable set spill to the stack (one store + reload pair each). *)
let spill_minsts (t : Target.t) (b : Block.t) : minst list =
  let distinct = Hashtbl.create 16 in
  List.iter
    (fun (i : Instr.t) ->
      if i.Instr.id >= 0 then Hashtbl.replace distinct i.Instr.id ();
      List.iter
        (fun v -> match v with Value.Reg r -> Hashtbl.replace distinct r () | _ -> ())
        (Instr.operands i.Instr.op))
    b.Block.insns;
  let live = Hashtbl.length distinct in
  let over = max 0 (live - t.int_regs) in
  List.concat
    (List.init over (fun _ ->
         [ mi MStore (if t.arch = X86_64 then 5 else 4);
           mi MLoad (if t.arch = X86_64 then 5 else 4) ]))

(* A function's lowering: one machine-instruction list per block, in
   the order of [f.Func.blocks]. *)
type lowered_func = {
  blocks : minst list list;
  code_bytes : int;
  call_sites : int; (* relocation count *)
}

let lower_func (t : Target.t) (f : Func.t) : lowered_func =
  let blocks =
    List.map
      (fun (b : Block.t) ->
        List.concat_map (lower_insn t) b.Block.insns
        @ lower_term t b.Block.term @ spill_minsts t b)
      f.Func.blocks
  in
  let body_bytes =
    List.fold_left
      (fun acc minsts -> List.fold_left (fun acc m -> acc + m.bytes) acc minsts)
      0 blocks
  in
  let call_sites =
    Func.fold_insns
      (fun acc _ i ->
        match i.Instr.op with
        | Instr.Call _ | Instr.Memcpy _ -> acc + 1
        | Instr.Intrinsic ("memset", _, _) -> acc + 1
        | op ->
          acc
          + List.length
              (List.filter
                 (fun v -> match v with Value.Global _ -> true | _ -> false)
                 (Instr.operands op)))
      0 f
  in
  { blocks;
    code_bytes = t.prologue_bytes + body_bytes + t.epilogue_bytes;
    call_sites }
