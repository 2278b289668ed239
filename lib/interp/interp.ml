(* MiniIR interpreter.

   Plays two roles in the reproduction:
   - it is the "run the binaries and measure execution time" half of the
     paper's evaluation (Table V, Fig 5a/5b): every executed operation is
     charged an abstract cycle cost from a small machine model;
   - it is the oracle for differential testing of passes: a transformed
     module must produce the same return value and output as the original.

   Memory is a flat little-endian byte array; globals live at the bottom,
   allocas on a bump stack that unwinds at function return. *)

open Posetrl_ir

type value =
  | VInt of int64
  | VFloat of float
  | VPtr of int
  | VVec of value array
  | VUndef

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

type outcome = {
  ret : value;
  cycles : int;
  dyn_insns : int;
  output : string;
}

(* --- machine cost model ------------------------------------------------- *)

(* Abstract per-operation cycle cost; one vector op costs the same as its
   scalar counterpart, which is what makes vectorization pay off. *)
let op_cost (op : Instr.op) : int =
  match op with
  | Instr.Binop ((Instr.Sdiv | Instr.Udiv | Instr.Srem | Instr.Urem), _, _, _) -> 24
  | Instr.Binop (Instr.Fdiv, _, _, _) -> 18
  | Instr.Binop ((Instr.Mul | Instr.Fmul), _, _, _) -> 4
  | Instr.Binop ((Instr.Fadd | Instr.Fsub), _, _, _) -> 3
  | Instr.Binop (_, _, _, _) -> 1
  | Instr.Icmp _ | Instr.Fcmp _ -> 1
  | Instr.Select _ -> 1
  | Instr.Cast _ -> 1
  | Instr.Alloca _ -> 1
  | Instr.Load _ -> 4
  | Instr.Store _ -> 2
  | Instr.Gep _ -> 1
  | Instr.Call _ | Instr.Callind _ -> 6
  | Instr.Phi _ -> 0
  | Instr.Memcpy _ -> 8 (* plus per-byte charge at execution *)
  | Instr.Expect _ -> 0
  | Instr.Intrinsic _ -> 2

let term_cost (t : Instr.term) : int =
  match t with
  | Instr.Ret _ -> 2
  | Instr.Br _ -> 1
  | Instr.Cbr _ -> 2
  | Instr.Switch _ -> 3
  | Instr.Unreachable -> 0

(* --- memory -------------------------------------------------------------- *)

type mem = {
  mutable data : Bytes.t;
  mutable brk : int;
  addr_of : (string, int) Hashtbl.t; (* a name's last global, else its last function *)
  addr_func : (int, string) Hashtbl.t;
}

let mem_grow (mem : mem) (needed : int) =
  let cur = Bytes.length mem.data in
  if needed > cur then begin
    let size = max needed (cur * 2) in
    let nd = Bytes.make size '\000' in
    Bytes.blit mem.data 0 nd 0 cur;
    mem.data <- nd
  end

let alloc (mem : mem) (bytes : int) : int =
  let addr = mem.brk in
  (* 8-byte alignment *)
  let bytes = (bytes + 7) land lnot 7 in
  mem.brk <- mem.brk + bytes;
  mem_grow mem mem.brk;
  addr

let check_addr (mem : mem) addr size =
  if addr < 8 || addr + size > Bytes.length mem.data then
    trap "out-of-bounds access at %d (size %d)" addr size

let load_scalar (mem : mem) (ty : Types.t) (addr : int) : value =
  let size = Types.size_bytes ty in
  check_addr mem addr size;
  match ty with
  | Types.I1 | Types.I8 ->
    let b = Char.code (Bytes.get mem.data addr) in
    let v = if b >= 128 then b - 256 else b in
    VInt (Types.wrap ty (Int64.of_int v))
  | Types.I32 -> VInt (Int64.of_int32 (Bytes.get_int32_le mem.data addr))
  | Types.I64 -> VInt (Bytes.get_int64_le mem.data addr)
  | Types.F64 -> VFloat (Int64.float_of_bits (Bytes.get_int64_le mem.data addr))
  | Types.Ptr -> VPtr (Int64.to_int (Bytes.get_int64_le mem.data addr))
  | Types.Void -> trap "load of void"
  | Types.Vec _ -> trap "load_scalar of vector"

let store_scalar (mem : mem) (ty : Types.t) (addr : int) (v : value) =
  let size = Types.size_bytes ty in
  check_addr mem addr size;
  match ty, v with
  | (Types.I1 | Types.I8), VInt x ->
    Bytes.set mem.data addr (Char.chr (Int64.to_int (Int64.logand x 0xFFL)))
  | Types.I32, VInt x -> Bytes.set_int32_le mem.data addr (Int64.to_int32 x)
  | Types.I64, VInt x -> Bytes.set_int64_le mem.data addr x
  | Types.F64, VFloat x -> Bytes.set_int64_le mem.data addr (Int64.bits_of_float x)
  | Types.F64, VInt x -> Bytes.set_int64_le mem.data addr x
  | Types.Ptr, VPtr p -> Bytes.set_int64_le mem.data addr (Int64.of_int p)
  | Types.Ptr, VInt x -> Bytes.set_int64_le mem.data addr x
  | _, VUndef -> () (* undefined store leaves memory as-is *)
  | _ -> trap "type-mismatched store of %s" (Types.to_string ty)

let rec load_value (mem : mem) (ty : Types.t) (addr : int) : value =
  match ty with
  | Types.Vec (t, n) ->
    let es = Types.size_bytes t in
    VVec (Array.init n (fun k -> load_value mem t (addr + (k * es))))
  | _ -> load_scalar mem ty addr

let rec store_value (mem : mem) (ty : Types.t) (addr : int) (v : value) =
  match ty, v with
  | Types.Vec (t, n), VVec vs ->
    if Array.length vs <> n then trap "vector width mismatch on store";
    let es = Types.size_bytes t in
    Array.iteri (fun k e -> store_value mem t (addr + (k * es)) e) vs
  | Types.Vec _, VUndef -> ()
  | _ -> store_scalar mem ty addr v

(* --- module loading ------------------------------------------------------ *)

let func_addr_base = 0x4000000

let init_mem (m : Modul.t) : mem =
  let mem =
    { data = Bytes.make 4096 '\000';
      brk = 16; (* address 0 stays invalid *)
      addr_of = Hashtbl.create 16;
      addr_func = Hashtbl.create 16 }
  in
  List.iteri
    (fun k (f : Func.t) ->
      let addr = func_addr_base + (k * 16) in
      Hashtbl.replace mem.addr_of f.Func.name addr;
      Hashtbl.replace mem.addr_func addr f.Func.name)
    m.Modul.funcs;
  List.iter
    (fun (g : Global.t) ->
      let addr = alloc mem (max 8 (Global.size_bytes g)) in
      Hashtbl.replace mem.addr_of g.Global.name addr;
      let es = Types.size_bytes g.Global.elt_ty in
      let put k v = store_scalar mem g.Global.elt_ty (addr + (k * es)) v in
      match g.Global.init with
      | None | Some Global.Zeroinit -> ()
      | Some (Global.Ints vs) -> Array.iteri (fun k v -> put k (VInt v)) vs
      | Some (Global.Floats vs) -> Array.iteri (fun k v -> put k (VFloat v)) vs
      | Some (Global.Bytes s) ->
        mem_grow mem (addr + String.length s);
        Bytes.blit_string s 0 mem.data addr (String.length s))
    m.Modul.globals;
  mem

(* --- evaluation ----------------------------------------------------------- *)

(* Each function is compiled once per run, on its first call, into
   closures over an unboxed frame.

   A frame slot is a tag byte and 64 payload bits: an integer's value, a
   float's bit pattern or a pointer's address. An undef slot's bits are
   stale and never read; a vector sits boxed in [vecs], beside its tag.
   Registers and every constant and global an operand names get slots.
   Constants and known globals (a global is its address) are preloaded
   from the function's template frame, one slot per exact tag and bits:
   never per [=], which merges 0.0 with -0.0 and every NaN. An unknown
   global's slot stays unset, so reading it traps.

   The operations that dominate the executed mix (binops, icmp, gep,
   load, store, select, integer casts and each edge's phi moves) have
   fast paths that read and write the frame without allocating while
   their operands carry the common tags. Every other tag, type or
   operation goes through [generic], the one boxed evaluator, which keeps
   the reference's operand read order, traps and messages. Values are
   boxed only at the boundary: arguments, returns, builtins and the
   on_assign hook. An int64 that crosses a closure call or a return is
   boxed, so each fast path does its arithmetic and its frame write in
   one closure body. *)

(* Slot tags. Int and pointer differ in bit 0 only: [as_int] reads both
   as the slot's bits. *)
let tag_unset = '\000'
let tag_int = '\002'
let tag_ptr = '\003'
let tag_float = '\004'
let tag_undef = '\005'
let tag_vec = '\006'

type frame = { tags : Bytes.t; bits : Bytes.t; mutable vecs : value array }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Every slot index comes from the compilation that sized the frame, so
   the accessors skip bounds checks. *)
let[@inline always] tag fr s = Bytes.unsafe_get fr.tags s
let[@inline always] payload fr s = get64 fr.bits (s lsl 3)

let[@inline always] put fr s t x =
  Bytes.unsafe_set fr.tags s t;
  set64 fr.bits (s lsl 3) x

let[@inline always] intlike fr s = Char.code (tag fr s) lor 1 = 3
let[@inline always] ints fr x y = intlike fr x && intlike fr y

(* what a slot holds: a register, an unknown global, or a preloaded
   constant *)
type key = Sreg of int | Sglobal of string | Sconst of char * int64

(* slots by what they hold, hashed without the generic traversal *)
module Slots = Hashtbl.Make (struct
  type t = key

  let equal (a : key) (b : key) =
    match a, b with
    | Sreg r, Sreg q -> r = q
    | Sconst (t, x), Sconst (u, y) -> Char.equal t u && Int64.equal x y
    | Sglobal g, Sglobal h -> String.equal g h
    | (Sreg _ | Sconst _ | Sglobal _), _ -> false

  let hash = function
    | Sreg r -> r
    | Sconst (t, x) -> (Int64.to_int x * 7) + Char.code t
    | Sglobal g -> Hashtbl.hash g
end)

type finfo = { fname : string; slots : int Slots.t }

(* an operation whose operands are all slots ([Value.Reg s]), the slot it
   sets (-1: none), its byte size (alloca, gep) and direct callee *)
type rinsn = { op : Instr.op; dst : int; sz : int; callee : int }

(* An edge's phi moves copy [srcs.(j)] to [dsts.(j)]: in order, or
   through the temporary slots from [tmp] when a move reads a slot an
   earlier one wrote. [fail] is raised once the sources are read: a phi
   missing its incoming value, an unknown target (dst -1), or the entry
   block's phis. *)
type edge = { dst : int; srcs : int array; dsts : int array; tmp : int; fail : string option }

(* [term] makes the jump and returns the next block, or returns -1 to
   return slot [ret] (-1: void) *)
type cblock = {
  body : (frame -> unit) array;
  costs : int array;
  tcost : int;
  term : frame -> int;
  ret : int;
}

(* [init] is a call's first frame: its constants and known globals set,
   everything else unset *)
type cfunc = { fi : finfo; init : frame; params : int list; blocks : cblock array; entry : edge }

type state = {
  mem : mem;
  funcs : Func.t array;
  first : (string, int) Hashtbl.t; (* name -> index of its first definition *)
  cfuncs : cfunc option array;
  mutable cycles : int;
  mutable dyn_insns : int;
  mutable fuel : int;
  out : Buffer.t;
  mutable depth : int;
  (* observation hook: called after every register assignment with the
     enclosing function's name — lets differential tests (e.g. the
     abstract-interpretation soundness property) see concrete values
     without rerunning the program *)
  on_assign : (fname:string -> int -> value -> unit) option;
}

let as_int = function
  | VInt v -> v
  | VPtr p -> Int64.of_int p
  | VUndef -> 0L
  | _ -> trap "expected integer value"

let as_float = function
  | VFloat f -> f
  | VUndef -> 0.0
  | _ -> trap "expected float value"

let as_ptr = function
  | VPtr p -> p
  | VInt v -> Int64.to_int v
  | VUndef -> trap "use of undef pointer"
  | _ -> trap "expected pointer value"

let scalar_binop (b : Instr.binop) (ty : Types.t) (x : value) (y : value) : value =
  match b with
  | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv ->
    let r =
      match Fold.eval_fbinop b (as_float x) (as_float y) with
      | Some r -> r
      | None -> trap "bad float op"
    in
    VFloat r
  | _ ->
    (match Fold.eval_binop b (Types.elt_type ty) (as_int x) (as_int y) with
     | Some r -> VInt r
     | None -> trap "division by zero")

let rec eval_binop (b : Instr.binop) (ty : Types.t) (x : value) (y : value) : value =
  match ty with
  | Types.Vec (t, n) ->
    let xe = function VVec a -> a | v -> Array.make n v in
    let xs = xe x and ys = xe y in
    VVec (Array.init n (fun k -> eval_binop b t xs.(k) ys.(k)))
  | _ -> scalar_binop b ty x y

let builtin (st : state) (name : string) (args : value list) : value =
  match name, args with
  | "putchar", [ v ] ->
    Buffer.add_char st.out (Char.chr (Int64.to_int (Int64.logand (as_int v) 0xFFL)));
    VInt (as_int v)
  | "print_i64", [ v ] ->
    Buffer.add_string st.out (Int64.to_string (as_int v));
    Buffer.add_char st.out '\n';
    VInt 0L
  | "print_f64", [ v ] ->
    Buffer.add_string st.out (Printf.sprintf "%.6f\n" (as_float v));
    VInt 0L
  | "abs", [ v ] -> VInt (Int64.abs (as_int v))
  | "labs", [ v ] -> VInt (Int64.abs (as_int v))
  | "sqrt", [ v ] -> VFloat (sqrt (as_float v))
  | "sin", [ v ] -> VFloat (sin (as_float v))
  | "cos", [ v ] -> VFloat (cos (as_float v))
  | "exit", [ v ] -> trap "exit(%Ld)" (as_int v)
  | _ -> trap "call to unknown external @%s/%d" name (List.length args)

(* --- slots as boxed values ------------------------------------------------ *)

(* the trap for reading unset slot [s], which holds a register nothing
   has assigned yet or an unknown global (constants are preloaded, and a
   phi temporary is read only once written) *)
let unreadable (fi : finfo) (s : int) =
  match Slots.fold (fun key s' found -> if s' = s then Some key else found) fi.slots None with
  | Some (Sreg r) -> trap "read of unassigned register %%%d in @%s" r fi.fname
  | Some (Sglobal g) -> trap "unknown global @%s" g
  | Some (Sconst _) | None -> assert false

let read (fi : finfo) (fr : frame) (s : int) : value =
  let t = tag fr s in
  if t = tag_int then VInt (payload fr s)
  else if t = tag_ptr then VPtr (Int64.to_int (payload fr s))
  else if t = tag_float then VFloat (Int64.float_of_bits (payload fr s))
  else if t = tag_undef then VUndef
  else if t = tag_vec then fr.vecs.(s)
  else unreadable fi s

let write (fr : frame) (s : int) (v : value) =
  match v with
  | VInt x -> put fr s tag_int x
  | VPtr p -> put fr s tag_ptr (Int64.of_int p)
  | VFloat f -> put fr s tag_float (Int64.bits_of_float f)
  | VUndef -> Bytes.unsafe_set fr.tags s tag_undef
  | VVec _ ->
    if Array.length fr.vecs = 0 then fr.vecs <- Array.make (Bytes.length fr.tags) VUndef;
    Bytes.unsafe_set fr.tags s tag_vec;
    fr.vecs.(s) <- v

(* every operand of a compiled operation is a slot *)
let lookup (fi : finfo) (fr : frame) (v : Value.t) : value =
  match v with
  | Value.Reg s -> read fi fr s
  | Value.Const _ | Value.Global _ -> assert false

let[@inline] copy (fi : finfo) (fr : frame) (s : int) (d : int) =
  let t = tag fr s in
  if t = tag_unset then unreadable fi s;
  put fr d t (payload fr s);
  if t = tag_vec then fr.vecs.(d) <- fr.vecs.(s)

(* --- fast paths ------------------------------------------------------------

   Each returns the closure for one operation, which calls [slow] (the
   generic evaluator) on any operand tag it does not take. *)

(* [Types.wrap ty] of an integer type is [wrap (wrap_shift ty) (wrap_mask
   ty)]: sign-extend from the type's width, or keep an i1's bit 0 *)
let wrap_shift = function Types.I8 -> 56 | Types.I32 -> 32 | _ -> 0
let wrap_mask = function Types.I1 -> 1L | _ -> -1L
let[@inline always] wrap s m x = Int64.logand (Int64.shift_right (Int64.shift_left x s) s) m
let[@inline always] put_int fr d s m x = put fr d tag_int (wrap s m x)
let[@inline always] put_bool fr d c = put fr d tag_int (if c then 1L else 0L)
let low_bits w = if w >= 64 then Int64.minus_one else Int64.pred (Int64.shift_left 1L w)
let[@inline always] shamt fr y = Int64.to_int (payload fr y) land 63

let int_binop (b : Instr.binop) (ty : Types.t) x y d slow : frame -> unit =
  let s = wrap_shift ty and m = wrap_mask ty and lm = low_bits (Types.bit_width ty) in
  let open Int64 in
  match b with
  | Instr.Add -> fun fr -> if ints fr x y then put_int fr d s m (add (payload fr x) (payload fr y)) else slow fr
  | Instr.Sub -> fun fr -> if ints fr x y then put_int fr d s m (sub (payload fr x) (payload fr y)) else slow fr
  | Instr.Mul -> fun fr -> if ints fr x y then put_int fr d s m (mul (payload fr x) (payload fr y)) else slow fr
  | Instr.Sdiv ->
    fun fr ->
      if ints fr x y && payload fr y <> 0L then put_int fr d s m (div (payload fr x) (payload fr y))
      else slow fr
  | Instr.Srem ->
    fun fr ->
      if ints fr x y && payload fr y <> 0L then put_int fr d s m (rem (payload fr x) (payload fr y))
      else slow fr
  | Instr.And -> fun fr -> if ints fr x y then put_int fr d s m (logand (payload fr x) (payload fr y)) else slow fr
  | Instr.Or -> fun fr -> if ints fr x y then put_int fr d s m (logor (payload fr x) (payload fr y)) else slow fr
  | Instr.Xor -> fun fr -> if ints fr x y then put_int fr d s m (logxor (payload fr x) (payload fr y)) else slow fr
  | Instr.Shl -> fun fr -> if ints fr x y then put_int fr d s m (shift_left (payload fr x) (shamt fr y)) else slow fr
  | Instr.Lshr ->
    fun fr ->
      if ints fr x y then put_int fr d s m (shift_right_logical (logand (payload fr x) lm) (shamt fr y))
      else slow fr
  | Instr.Ashr -> fun fr -> if ints fr x y then put_int fr d s m (shift_right (payload fr x) (shamt fr y)) else slow fr
  | Instr.Udiv | Instr.Urem | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv -> slow

let[@inline always] floats fr x y = tag fr x = tag_float && tag fr y = tag_float
let[@inline always] fl fr s = Int64.float_of_bits (payload fr s)
let[@inline always] put_float fr d f = put fr d tag_float (Int64.bits_of_float f)

let float_binop (b : Instr.binop) x y d slow : frame -> unit =
  match b with
  | Instr.Fadd -> fun fr -> if floats fr x y then put_float fr d (fl fr x +. fl fr y) else slow fr
  | Instr.Fsub -> fun fr -> if floats fr x y then put_float fr d (fl fr x -. fl fr y) else slow fr
  | Instr.Fmul -> fun fr -> if floats fr x y then put_float fr d (fl fr x *. fl fr y) else slow fr
  | Instr.Fdiv -> fun fr -> if floats fr x y then put_float fr d (fl fr x /. fl fr y) else slow fr
  | _ -> slow

(* [as_ptr] cuts an integer to 63 bits, so a pointer compare takes
   pointer slots only: with [lo] = 0 only the pointer tag passes *)
let[@inline always] cmp_ok fr lo x y =
  Char.code (tag fr x) lor lo = 3 && Char.code (tag fr y) lor lo = 3

let icmp (p : Instr.icmp) (ty : Types.t) x y d slow : frame -> unit =
  let lo = if Types.equal ty Types.Ptr then 0 else 1 in
  (* an unsigned order is the signed order of both sides less min_int *)
  let u =
    match p with Instr.Ult | Instr.Ule | Instr.Ugt | Instr.Uge -> Int64.min_int | _ -> 0L
  in
  let open Int64 in
  match p with
  | Instr.Eq -> fun fr -> if cmp_ok fr lo x y then put_bool fr d (payload fr x = payload fr y) else slow fr
  | Instr.Ne -> fun fr -> if cmp_ok fr lo x y then put_bool fr d (payload fr x <> payload fr y) else slow fr
  | Instr.Slt | Instr.Ult ->
    fun fr -> if cmp_ok fr lo x y then put_bool fr d (sub (payload fr x) u < sub (payload fr y) u) else slow fr
  | Instr.Sle | Instr.Ule ->
    fun fr -> if cmp_ok fr lo x y then put_bool fr d (sub (payload fr x) u <= sub (payload fr y) u) else slow fr
  | Instr.Sgt | Instr.Ugt ->
    fun fr -> if cmp_ok fr lo x y then put_bool fr d (sub (payload fr x) u > sub (payload fr y) u) else slow fr
  | Instr.Sge | Instr.Uge ->
    fun fr -> if cmp_ok fr lo x y then put_bool fr d (sub (payload fr x) u >= sub (payload fr y) u) else slow fr

let select fi c a b d slow : frame -> unit =
 fun fr -> if intlike fr c then copy fi fr (if payload fr c = 1L then a else b) d else slow fr

let cast (cop : Instr.castop) (from_ty : Types.t) (to_ty : Types.t) v d slow : frame -> unit =
  if not (Types.is_integer to_ty) then slow
  else
    let s = wrap_shift to_ty and m = wrap_mask to_ty and lm = low_bits (Types.bit_width from_ty) in
    match cop with
    | Instr.Trunc | Instr.Sext -> fun fr -> if intlike fr v then put_int fr d s m (payload fr v) else slow fr
    | Instr.Zext ->
      fun fr -> if intlike fr v then put_int fr d s m (Int64.logand (payload fr v) lm) else slow fr
    | Instr.Bitcast | Instr.Fptosi | Instr.Sitofp -> slow

let gep b idx sz d slow : frame -> unit =
 fun fr ->
  if ints fr b idx then
    put fr d tag_ptr
      (Int64.of_int (Int64.to_int (payload fr b) + (Int64.to_int (payload fr idx) * sz)))
  else slow fr

(* the checked address in pointer slot [p] of an access of [size] bytes *)
let[@inline always] address mem fr p size =
  let a = Int64.to_int (payload fr p) in
  check_addr mem a size;
  a

let load (mem : mem) (ty : Types.t) p d slow : frame -> unit =
  match ty with
  | Types.I64 ->
    fun fr -> if intlike fr p then
        (let a = address mem fr p 8 in put fr d tag_int (Bytes.get_int64_le mem.data a))
      else slow fr
  | Types.I32 ->
    fun fr -> if intlike fr p then
        (let a = address mem fr p 4 in
         put fr d tag_int (Int64.of_int32 (Bytes.get_int32_le mem.data a)))
      else slow fr
  | Types.I8 ->
    fun fr -> if intlike fr p then
        (let a = address mem fr p 1 in
         let c = Char.code (Bytes.get mem.data a) in
         put fr d tag_int (Int64.of_int (if c >= 128 then c - 256 else c)))
      else slow fr
  | Types.I1 ->
    fun fr -> if intlike fr p then
        (let a = address mem fr p 1 in
         put fr d tag_int (Int64.of_int (Char.code (Bytes.get mem.data a) land 1)))
      else slow fr
  | Types.F64 ->
    fun fr -> if intlike fr p then
        (let a = address mem fr p 8 in put fr d tag_float (Bytes.get_int64_le mem.data a))
      else slow fr
  | Types.Ptr ->
    fun fr -> if intlike fr p then
        (let a = address mem fr p 8 in
         put fr d tag_ptr (Int64.of_int (Int64.to_int (Bytes.get_int64_le mem.data a))))
      else slow fr
  | Types.Void | Types.Vec _ -> slow

(* a store takes the value tags [store_scalar] writes as bits *)
let store (mem : mem) (ty : Types.t) v p slow : frame -> unit =
  match ty with
  | Types.I1 | Types.I8 ->
    fun fr -> if tag fr v = tag_int && intlike fr p then
        (let a = address mem fr p 1 in
         Bytes.set mem.data a (Char.unsafe_chr (Int64.to_int (Int64.logand (payload fr v) 0xFFL))))
      else slow fr
  | Types.I32 ->
    fun fr -> if tag fr v = tag_int && intlike fr p then
        (let a = address mem fr p 4 in Bytes.set_int32_le mem.data a (Int64.to_int32 (payload fr v)))
      else slow fr
  | Types.I64 ->
    fun fr -> if tag fr v = tag_int && intlike fr p then
        (let a = address mem fr p 8 in Bytes.set_int64_le mem.data a (payload fr v))
      else slow fr
  | Types.F64 ->
    fun fr -> if (tag fr v = tag_float || tag fr v = tag_int) && intlike fr p then
        (let a = address mem fr p 8 in Bytes.set_int64_le mem.data a (payload fr v))
      else slow fr
  | Types.Ptr ->
    fun fr -> if ints fr v p then
        (let a = address mem fr p 8 in Bytes.set_int64_le mem.data a (payload fr v))
      else slow fr
  | Types.Void | Types.Vec _ -> slow

(* --- blocks and calls ------------------------------------------------------ *)

(* phis evaluate simultaneously against the predecessor environment *)
let jump (st : state) (fi : finfo) (fr : frame) (e : edge) : int =
  let n = Array.length e.srcs in
  (match e.fail with
   | Some msg ->
     Array.iter (fun s -> ignore (read fi fr s : value)) e.srcs;
     raise (Trap msg)
   | None when e.tmp < 0 -> for j = 0 to n - 1 do copy fi fr e.srcs.(j) e.dsts.(j) done
   | None ->
     for j = 0 to n - 1 do copy fi fr e.srcs.(j) (e.tmp + j) done;
     for j = 0 to n - 1 do copy fi fr (e.tmp + j) e.dsts.(j) done);
  st.dyn_insns <- st.dyn_insns + n;
  e.dst

(* each operation and the terminator is charged before it runs, so fuel
   runs out where it would *)
let rec run_from (st : state) (cf : cfunc) (fr : frame) (b : int) : value =
  let blk = Array.unsafe_get cf.blocks b in
  let body = blk.body in
  for k = 0 to Array.length body - 1 do
    st.dyn_insns <- st.dyn_insns + 1;
    st.cycles <- st.cycles + Array.unsafe_get blk.costs k;
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then trap "out of fuel";
    (Array.unsafe_get body k) fr
  done;
  st.cycles <- st.cycles + blk.tcost;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then trap "out of fuel";
  let next = blk.term fr in
  if next >= 0 then run_from st cf fr next
  else if blk.ret < 0 then VUndef
  else read cf.fi fr blk.ret

(* the one boxed evaluator: any operation, any operand tags *)
let rec generic (st : state) (fi : finfo) (fr : frame) (ri : rinsn) : unit =
  let lookup = lookup fi fr in
  let set v = if ri.dst >= 0 then write fr ri.dst v in
  match ri.op with
  | Instr.Binop (b, ty, x, y) -> set (eval_binop b ty (lookup x) (lookup y))
  | Instr.Icmp (p, ty, x, y) ->
    let xv = lookup x and yv = lookup y in
    (match ty with
     | Types.Ptr ->
       set (VInt (if Fold.eval_icmp p (Int64.of_int (as_ptr xv)) (Int64.of_int (as_ptr yv)) then 1L else 0L))
     | _ -> set (VInt (if Fold.eval_icmp p (as_int xv) (as_int yv) then 1L else 0L)))
  | Instr.Fcmp (p, x, y) ->
    set (VInt (if Fold.eval_fcmp p (as_float (lookup x)) (as_float (lookup y)) then 1L else 0L))
  | Instr.Select (_, c, a, b) -> set (if Int64.equal (as_int (lookup c)) 1L then lookup a else lookup b)
  | Instr.Cast (cop, from_ty, to_ty, v) ->
    let vv = lookup v in
    (match cop, to_ty with
     | Instr.Bitcast, Types.Vec (_, n) when not (Types.is_vector from_ty) ->
       (* scalar-to-vector bitcast is the vectorizer's splat *)
       set (VVec (Array.make n vv))
     | Instr.Bitcast, Types.F64 when Types.is_integer from_ty ->
       set (VFloat (Int64.float_of_bits (as_int vv)))
     | Instr.Bitcast, ty when Types.is_integer ty && Types.equal from_ty Types.F64 ->
       set (VInt (Types.wrap ty (Int64.bits_of_float (as_float vv))))
     | Instr.Sitofp, _ -> set (VFloat (Int64.to_float (as_int vv)))
     | Instr.Fptosi, ty ->
       let fv = as_float vv in
       if Float.is_nan fv then set VUndef else set (VInt (Types.wrap ty (Int64.of_float fv)))
     | (Instr.Trunc | Instr.Sext), ty -> set (VInt (Types.wrap ty (as_int vv)))
     | Instr.Zext, ty ->
       set (VInt (Types.wrap ty (Int64.logand (as_int vv) (low_bits (Types.bit_width from_ty)))))
     | Instr.Bitcast, _ -> set vv)
  | Instr.Alloca _ -> set (VPtr (alloc st.mem ri.sz))
  | Instr.Load (ty, p) -> set (load_value st.mem ty (as_ptr (lookup p)))
  | Instr.Store (ty, v, p) -> store_value st.mem ty (as_ptr (lookup p)) (lookup v)
  | Instr.Gep (_, b, idx) ->
    let base = as_ptr (lookup b) in
    let off = Int64.to_int (as_int (lookup idx)) * ri.sz in
    set (VPtr (base + off))
  | Instr.Call (_, g, args) ->
    let argv = List.map lookup args in
    if ri.callee >= 0 then set (call_function st ri.callee argv) else set (builtin st g argv)
  | Instr.Callind (_, fv, args) ->
    let addr = as_ptr (lookup fv) in
    (match Hashtbl.find_opt st.mem.addr_func addr with
     | Some g -> set (call_function st (Hashtbl.find st.first g) (List.map lookup args))
     | None -> trap "indirect call to non-function address %d" addr)
  | Instr.Phi _ -> trap "phi executed outside block entry"
  | Instr.Memcpy (d, s, n) ->
    let dst = as_ptr (lookup d) and src = as_ptr (lookup s) in
    let n = Int64.to_int (as_int (lookup n)) in
    if n < 0 then trap "negative memcpy";
    check_addr st.mem dst n;
    check_addr st.mem src n;
    Bytes.blit st.mem.data src st.mem.data dst n;
    st.cycles <- st.cycles + (n / 8)
  | Instr.Expect (_, v, _) -> set (lookup v)
  | Instr.Intrinsic ("memset", _, [ base; v; count; elt_size ]) ->
    let addr = as_ptr (lookup base) in
    let count = Int64.to_int (as_int (lookup count)) in
    let es = Int64.to_int (as_int (lookup elt_size)) in
    let vv = lookup v in
    if count < 0 || es <= 0 then trap "bad memset";
    check_addr st.mem addr (count * es);
    let ty =
      match es with
      | 1 -> Types.I8 | 4 -> Types.I32 | _ -> Types.I64
    in
    for k = 0 to count - 1 do
      store_scalar st.mem ty (addr + (k * es)) vv
    done;
    st.cycles <- st.cycles + (count * es / 8)
  | Instr.Intrinsic (("assume" | "assume.aligned" | "lifetime.start" | "lifetime.end"), _, _) ->
    ()
  | Instr.Intrinsic (name, _, _) -> trap "unknown intrinsic %s" name

and call_function (st : state) (k : int) (args : value list) : value =
  let f = st.funcs.(k) in
  if Func.is_declaration f then builtin st f.Func.name args
  else begin
    st.depth <- st.depth + 1;
    if st.depth > 10000 then trap "call stack overflow";
    let frame_brk = st.mem.brk in
    (if List.length args <> List.length f.Func.params then
       trap "arity mismatch calling @%s" f.Func.name);
    let cf = match st.cfuncs.(k) with Some cf -> cf | None -> compile st k in
    let fr = { tags = Bytes.copy cf.init.tags; bits = Bytes.copy cf.init.bits; vecs = [||] } in
    List.iter2 (write fr) cf.params args;
    let result = run_from st cf fr (jump st cf.fi fr cf.entry) in
    st.mem.brk <- frame_brk;
    st.depth <- st.depth - 1;
    result
  end

(* Compiles function [k] and keeps it in the run's state. A malformed
   operation traps only when it runs, with the message a by-name lookup
   gave. *)
and compile (st : state) (k : int) : cfunc =
  let f = st.funcs.(k) in
  let fi = { fname = f.Func.name; slots = Slots.create 64 } in
  let nslots = ref 0 in
  let slot key =
    match Slots.find_opt fi.slots key with
    | Some s -> s
    | None ->
      let s = !nslots in
      incr nslots;
      Slots.add fi.slots key s;
      s
  in
  let reg r = slot (Sreg r) in
  let sv (v : Value.t) =
    slot
      (match v with
       | Value.Reg r -> Sreg r
       | Value.Const (Value.Cint (_, x)) -> Sconst (tag_int, x)
       | Value.Const (Value.Cfloat x) -> Sconst (tag_float, Int64.bits_of_float x)
       | Value.Const Value.Cnull -> Sconst (tag_ptr, 0L)
       | Value.Const (Value.Cundef _) -> Sconst (tag_undef, 0L)
       | Value.Global g ->
         (match Hashtbl.find_opt st.mem.addr_of g with
          | Some a -> Sconst (tag_ptr, Int64.of_int a)
          | None -> Sglobal g))
  in
  let blocks = Array.of_list f.Func.blocks and index = Hashtbl.create 16 in
  Array.iteri (fun k b -> Hashtbl.replace index b.Block.label k) blocks;
  let edge (src : string) (l : string) : edge =
    match Hashtbl.find_opt index l with
    | None ->
      { dst = -1; srcs = [||]; dsts = [||]; tmp = -1; fail = Some ("jump to unknown block " ^ l) }
    | Some t ->
      let rec go acc = function
        | { Instr.id; op = Instr.Phi (_, incs) } :: rest ->
          (match List.assoc_opt src incs with
           | Some v -> go ((reg id, sv v) :: acc) rest
           | None -> (acc, Some (Printf.sprintf "phi %%%d missing incoming from %s" id src)))
        | _ -> (acc, None)
      in
      let moves, fail = go [] blocks.(t).Block.insns in
      let moves = Array.of_list (List.rev moves) in
      let dsts = Array.map fst moves and srcs = Array.map snd moves in
      let clash = ref false in
      Array.iteri (fun k s -> for j = 0 to k - 1 do if dsts.(j) = s then clash := true done) srcs;
      let n = Array.length moves in
      let tmp = if !clash then (nslots := !nslots + n; !nslots - n) else -1 in
      { dst = t; srcs; dsts; tmp; fail }
  in
  let insn (i : Instr.t) : frame -> unit =
    let op = Instr.map_operands (fun v -> Value.Reg (sv v)) i.Instr.op in
    let sz, callee =
      match op with
      | Instr.Alloca (ty, n) -> (Types.size_bytes ty * n, -1)
      | Instr.Gep (ty, _, _) -> (Types.size_bytes (Types.elt_type ty), -1)
      | Instr.Call (_, g, _) -> (0, Option.value (Hashtbl.find_opt st.first g) ~default:(-1))
      | _ -> (0, -1)
    in
    let d = if i.Instr.id >= 0 then reg i.Instr.id else -1 in
    let ri = { op; dst = d; sz; callee } in
    let slow fr = generic st fi fr ri in
    let c =
      match op with
      | Instr.Store (ty, Value.Reg v, Value.Reg p) -> store st.mem ty v p slow
      | _ when d < 0 -> slow
      | Instr.Binop (b, ty, Value.Reg x, Value.Reg y) when Types.is_integer ty ->
        int_binop b ty x y d slow
      | Instr.Binop (b, Types.F64, Value.Reg x, Value.Reg y) -> float_binop b x y d slow
      | Instr.Icmp (p, ty, Value.Reg x, Value.Reg y)
        when Types.is_integer ty || Types.equal ty Types.Ptr ->
        icmp p ty x y d slow
      | Instr.Select (_, Value.Reg c, Value.Reg a, Value.Reg b) -> select fi c a b d slow
      | Instr.Cast (cop, from_ty, to_ty, Value.Reg v) -> cast cop from_ty to_ty v d slow
      | Instr.Gep (_, Value.Reg b, Value.Reg idx) -> gep b idx sz d slow
      | Instr.Load (ty, Value.Reg p) -> load st.mem ty p d slow
      | _ -> slow
    in
    match st.on_assign, op with
    | None, _ | _, (Instr.Store _ | Instr.Memcpy _ | Instr.Intrinsic _ | Instr.Phi _) -> c
    | Some h, _ ->
      if d < 0 then c
      else
        let r = i.Instr.id in
        fun fr ->
          c fr;
          h ~fname:fi.fname r (read fi fr d)
  in
  let block (b : Block.t) : cblock =
    let insns = snd (Block.split_phis b) in
    let labels =
      match b.Block.term with
      | Instr.Br l -> [ l ]
      | Instr.Cbr (_, t, e) -> [ t; e ]
      | Instr.Switch (_, _, cases, d) -> List.map snd cases @ [ d ]
      | Instr.Ret _ | Instr.Unreachable -> []
    in
    let edges = Array.of_list (List.map (edge b.Block.label) labels) in
    let term =
      match b.Block.term with
      | Instr.Ret _ -> fun _ -> -1
      | Instr.Br _ -> fun fr -> jump st fi fr edges.(0)
      | Instr.Cbr (c, _, _) ->
        let c = sv c in
        fun fr ->
          let taken =
            if intlike fr c then payload fr c = 1L else Int64.equal (as_int (read fi fr c)) 1L
          in
          jump st fi fr edges.(if taken then 0 else 1)
      | Instr.Switch (_, v, cases, _) ->
        let v = sv v in
        fun fr ->
          let k = as_int (read fi fr v) in
          let j = List.find_index (fun (k', _) -> Int64.equal k' k) cases in
          jump st fi fr edges.(Option.value j ~default:(List.length cases))
      | Instr.Unreachable -> fun _ -> trap "reached unreachable"
    in
    let ret = match b.Block.term with Instr.Ret (Some (_, v)) -> sv v | _ -> -1 in
    { body = Array.of_list (List.map insn insns);
      costs = Array.of_list (List.map (fun (i : Instr.t) -> op_cost i.Instr.op) insns);
      tcost = term_cost b.Block.term; term; ret }
  in
  let params = List.map (fun (p, _) -> reg p) f.Func.params in
  let cblocks = Array.map block blocks in
  let dst = Hashtbl.find index (Func.entry f).Block.label in
  let fail = if fst (Block.split_phis blocks.(dst)) = [] then None else Some "phi in entry block" in
  let n = !nslots in
  let init = { tags = Bytes.make n tag_unset; bits = Bytes.make (8 * n) '\000'; vecs = [||] } in
  Slots.iter (fun key s -> match key with Sconst (t, x) -> put init s t x | Sreg _ | Sglobal _ -> ()) fi.slots;
  let cf =
    { fi; init; params; blocks = cblocks;
      entry = { dst; srcs = [||]; dsts = [||]; tmp = -1; fail } }
  in
  st.cfuncs.(k) <- Some cf;
  cf

(* --- public API ----------------------------------------------------------- *)

let default_fuel = 200_000_000

let run ?(fuel = default_fuel) ?(entry = "main") ?(args = []) ?on_assign
    (m : Modul.t) : outcome =
  let mem = init_mem m in
  let funcs = Array.of_list m.Modul.funcs and first = Hashtbl.create 16 in
  for k = Array.length funcs - 1 downto 0 do Hashtbl.replace first funcs.(k).Func.name k done;
  let st =
    { mem; funcs; first; cfuncs = Array.make (Array.length funcs) None; cycles = 0;
      dyn_insns = 0; fuel; out = Buffer.create 64; depth = 0; on_assign }
  in
  ignore (Modul.find_func_exn m entry : Func.t);
  let ret = call_function st (Hashtbl.find first entry) args in
  { ret; cycles = st.cycles; dyn_insns = st.dyn_insns; output = Buffer.contents st.out }

(* Convenience for differential tests: observable behaviour of a run. *)
let observe ?(fuel = default_fuel) ?(entry = "main") ?(args = []) (m : Modul.t) :
    (string * string, string) result =
  match run ~fuel ~entry ~args m with
  | { ret; output; _ } ->
    let rs =
      match ret with
      | VInt v -> Int64.to_string v
      | VFloat f -> Printf.sprintf "%.12g" f
      | VPtr p -> Printf.sprintf "ptr:%d" p
      | VVec _ -> "vec"
      | VUndef -> "undef"
    in
    Ok (rs, output)
  | exception Trap msg -> Error msg
