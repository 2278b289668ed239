(* MiniIR instructions and block terminators. *)

type binop =
  | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem
  | And | Or | Xor | Shl | Lshr | Ashr
  | Fadd | Fsub | Fmul | Fdiv

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type castop = Trunc | Zext | Sext | Bitcast | Fptosi | Sitofp

type op =
  | Binop of binop * Types.t * Value.t * Value.t
  | Icmp of icmp * Types.t * Value.t * Value.t
  | Fcmp of icmp * Value.t * Value.t
  | Select of Types.t * Value.t * Value.t * Value.t
  | Cast of castop * Types.t * Types.t * Value.t  (* from, to, v *)
  | Alloca of Types.t * int                        (* elt type, elt count *)
  | Load of Types.t * Value.t
  | Store of Types.t * Value.t * Value.t           (* stored value, pointer *)
  | Gep of Types.t * Value.t * Value.t             (* elt type, base, index *)
  | Call of Types.t * string * Value.t list
  | Callind of Types.t * Value.t * Value.t list
  | Phi of Types.t * (string * Value.t) list       (* predecessor label, value *)
  | Memcpy of Value.t * Value.t * Value.t          (* dst, src, byte count *)
  | Expect of Types.t * Value.t * Value.t          (* value, expected constant *)
  | Intrinsic of string * Types.t * Value.t list   (* assume, lifetime, ... *)

type t = { id : int; op : op }
(* [id] is the SSA register defined by the instruction, or [-1] when the
   instruction produces no value (store, void call, memcpy, ...). *)

type term =
  | Ret of (Types.t * Value.t) option
  | Br of string
  | Cbr of Value.t * string * string
  | Switch of Types.t * Value.t * (int64 * string) list * string
  | Unreachable

let mk id op = { id; op }

let no_result = -1

(* --- structural queries ------------------------------------------------ *)

let operands = function
  | Binop (_, _, a, b) | Icmp (_, _, a, b) | Fcmp (_, a, b) -> [ a; b ]
  | Select (_, c, a, b) -> [ c; a; b ]
  | Cast (_, _, _, v) -> [ v ]
  | Alloca _ -> []
  | Load (_, p) -> [ p ]
  | Store (_, v, p) -> [ v; p ]
  | Gep (_, b, i) -> [ b; i ]
  | Call (_, _, args) -> args
  | Callind (_, f, args) -> f :: args
  | Phi (_, incs) -> List.map snd incs
  | Memcpy (d, s, n) -> [ d; s; n ]
  | Expect (_, v, e) -> [ v; e ]
  | Intrinsic (_, _, args) -> args

let map_operands f op =
  match op with
  | Binop (b, ty, x, y) -> Binop (b, ty, f x, f y)
  | Icmp (p, ty, x, y) -> Icmp (p, ty, f x, f y)
  | Fcmp (p, x, y) -> Fcmp (p, f x, f y)
  | Select (ty, c, x, y) -> Select (ty, f c, f x, f y)
  | Cast (c, t1, t2, v) -> Cast (c, t1, t2, f v)
  | Alloca _ -> op
  | Load (ty, p) -> Load (ty, f p)
  | Store (ty, v, p) -> Store (ty, f v, f p)
  | Gep (ty, b, i) -> Gep (ty, f b, f i)
  | Call (ty, g, args) -> Call (ty, g, List.map f args)
  | Callind (ty, fn, args) -> Callind (ty, f fn, List.map f args)
  | Phi (ty, incs) -> Phi (ty, List.map (fun (l, v) -> (l, f v)) incs)
  | Memcpy (d, s, n) -> Memcpy (f d, f s, f n)
  | Expect (ty, v, e) -> Expect (ty, f v, f e)
  | Intrinsic (n, ty, args) -> Intrinsic (n, ty, List.map f args)

let term_operands = function
  | Ret (Some (_, v)) -> [ v ]
  | Ret None -> []
  | Br _ -> []
  | Cbr (c, _, _) -> [ c ]
  | Switch (_, v, _, _) -> [ v ]
  | Unreachable -> []

let map_term_operands f = function
  | Ret (Some (ty, v)) -> Ret (Some (ty, f v))
  | Ret None -> Ret None
  | Br l -> Br l
  | Cbr (c, t, e) -> Cbr (f c, t, e)
  | Switch (ty, v, cases, d) -> Switch (ty, f v, cases, d)
  | Unreachable -> Unreachable

let successors = function
  | Ret _ | Unreachable -> []
  | Br l -> [ l ]
  | Cbr (_, t, e) -> if String.equal t e then [ t ] else [ t; e ]
  | Switch (_, _, cases, d) ->
    let ls = d :: List.map snd cases in
    List.sort_uniq String.compare ls

let map_term_labels f = function
  | Ret v -> Ret v
  | Unreachable -> Unreachable
  | Br l -> Br (f l)
  | Cbr (c, t, e) -> Cbr (c, f t, f e)
  | Switch (ty, v, cases, d) ->
    Switch (ty, v, List.map (fun (k, l) -> (k, f l)) cases, f d)

(* Result type of an instruction; [Void] when it defines no register. *)
let result_ty = function
  | Binop (_, ty, _, _) -> ty
  | Icmp (_, ty, _, _) ->
    (match ty with Types.Vec (_, n) -> Types.Vec (Types.I1, n) | _ -> Types.I1)
  | Fcmp _ -> Types.I1
  | Select (ty, _, _, _) -> ty
  | Cast (_, _, ty, _) -> ty
  | Alloca _ -> Types.Ptr
  | Load (ty, _) -> ty
  | Store _ -> Types.Void
  | Gep _ -> Types.Ptr
  | Call (ty, _, _) | Callind (ty, _, _) -> ty
  | Phi (ty, _) -> ty
  | Memcpy _ -> Types.Void
  | Expect (ty, _, _) -> ty
  | Intrinsic (_, ty, _) -> ty

(* --- bit-exact identity -------------------------------------------------- *)

(* [op] with every operand in its bit-exact form ([Value.exact]): the key
   CSE and GVN tables look expressions up under, so that fadd x, -0.0 and
   fadd x, 0.0 stay apart under polymorphic compare and hash. *)
let exact_key (op : op) : op = map_operands Value.exact op

let equal (a : t) (b : t) =
  a == b || (a.id = b.id && (a.op == b.op || exact_key a.op = exact_key b.op))

let equal_term (a : term) (b : term) =
  a == b || map_term_operands Value.exact a = map_term_operands Value.exact b

let is_phi = function Phi _ -> true | _ -> false

(* An instruction is pure if it neither reads nor writes memory and cannot
   trap; pure instructions are fair game for CSE, GVN, DCE and hoisting. *)
let is_pure = function
  | Binop ((Sdiv | Udiv | Srem | Urem), _, _, Value.Const (Value.Cint (_, k)))
    when not (Int64.equal k 0L) -> true
  | Binop ((Sdiv | Udiv | Srem | Urem), _, _, _) -> false (* may trap *)
  | Binop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Gep _ | Expect _ -> true
  | Phi _ -> false (* position-dependent *)
  | Alloca _ | Load _ | Store _ | Call _ | Callind _ | Memcpy _ | Intrinsic _ -> false

let writes_memory = function
  | Store _ | Memcpy _ | Call _ | Callind _ -> true
  | Intrinsic (("assume" | "lifetime.start" | "lifetime.end" | "expect"), _, _) -> false
  | Intrinsic _ -> true
  | _ -> false

let reads_memory = function
  | Load _ | Memcpy _ | Call _ | Callind _ -> true
  | _ -> false

let has_side_effects op = writes_memory op

(* --- pretty names for opcodes (used by IR2Vec vocabulary & printer) ----- *)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul"
  | Sdiv -> "sdiv" | Udiv -> "udiv" | Srem -> "srem" | Urem -> "urem"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let icmp_name = function
  | Eq -> "eq" | Ne -> "ne"
  | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt" | Sge -> "sge"
  | Ult -> "ult" | Ule -> "ule" | Ugt -> "ugt" | Uge -> "uge"

let castop_name = function
  | Trunc -> "trunc" | Zext -> "zext" | Sext -> "sext"
  | Bitcast -> "bitcast" | Fptosi -> "fptosi" | Sitofp -> "sitofp"

let opcode_name = function
  | Binop (b, _, _, _) -> binop_name b
  | Icmp _ -> "icmp"
  | Fcmp _ -> "fcmp"
  | Select _ -> "select"
  | Cast (c, _, _, _) -> castop_name c
  | Alloca _ -> "alloca"
  | Load _ -> "load"
  | Store _ -> "store"
  | Gep _ -> "gep"
  | Call _ -> "call"
  | Callind _ -> "callind"
  | Phi _ -> "phi"
  | Memcpy _ -> "memcpy"
  | Expect _ -> "expect"
  | Intrinsic (n, _, _) -> "intrinsic." ^ n

let term_name = function
  | Ret _ -> "ret"
  | Br _ -> "br"
  | Cbr _ -> "cbr"
  | Switch _ -> "switch"
  | Unreachable -> "unreachable"

(* Commutative integer/float ops, used for operand canonicalization. *)
let is_commutative = function
  | Add | Mul | And | Or | Xor | Fadd | Fmul -> true
  | Sub | Sdiv | Udiv | Srem | Urem | Shl | Lshr | Ashr | Fsub | Fdiv -> false

let swap_icmp = function
  | Eq -> Eq | Ne -> Ne
  | Slt -> Sgt | Sle -> Sge | Sgt -> Slt | Sge -> Sle
  | Ult -> Ugt | Ule -> Uge | Ugt -> Ult | Uge -> Ule

let negate_icmp = function
  | Eq -> Ne | Ne -> Eq
  | Slt -> Sge | Sle -> Sgt | Sgt -> Sle | Sge -> Slt
  | Ult -> Uge | Ule -> Ugt | Ugt -> Ule | Uge -> Ult
