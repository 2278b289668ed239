(* Reference interpreter: Posetrl_interp.Interp as it was before each
   function was resolved once per run, kept verbatim. It looks every
   block, register, phi input, callee and global up by name on every
   use. test_interp.ml checks that both interpreters give the same
   outcome and the same on_assign calls.

   MiniIR interpreter.

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
  global_addr : (string, int) Hashtbl.t;
  func_addr : (string, int) Hashtbl.t;
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
  | Types.Vec (t, n), VUndef ->
    ignore (t, n)
  | _ -> store_scalar mem ty addr v

(* --- module loading ------------------------------------------------------ *)

let func_addr_base = 0x4000000

let init_mem (m : Modul.t) : mem =
  let mem =
    { data = Bytes.make 4096 '\000';
      brk = 16; (* address 0 stays invalid *)
      global_addr = Hashtbl.create 16;
      func_addr = Hashtbl.create 16;
      addr_func = Hashtbl.create 16 }
  in
  List.iter
    (fun (g : Global.t) ->
      let addr = alloc mem (max 8 (Global.size_bytes g)) in
      Hashtbl.replace mem.global_addr g.Global.name addr;
      match g.Global.init with
      | None | Some Global.Zeroinit -> ()
      | Some (Global.Ints vs) ->
        Array.iteri
          (fun k v ->
            store_scalar mem g.Global.elt_ty (addr + (k * Types.size_bytes g.Global.elt_ty)) (VInt v))
          vs
      | Some (Global.Floats vs) ->
        Array.iteri
          (fun k v ->
            store_scalar mem g.Global.elt_ty (addr + (k * Types.size_bytes g.Global.elt_ty)) (VFloat v))
          vs
      | Some (Global.Bytes s) ->
        mem_grow mem (addr + String.length s);
        Bytes.blit_string s 0 mem.data addr (String.length s))
    m.Modul.globals;
  List.iteri
    (fun k (f : Func.t) ->
      let addr = func_addr_base + (k * 16) in
      Hashtbl.replace mem.func_addr f.Func.name addr;
      Hashtbl.replace mem.addr_func addr f.Func.name)
    m.Modul.funcs;
  mem

(* --- evaluation ----------------------------------------------------------- *)

type state = {
  m : Modul.t;
  mem : mem;
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

let eval_const (c : Value.const) : value =
  match c with
  | Value.Cint (_, v) -> VInt v
  | Value.Cfloat f -> VFloat f
  | Value.Cnull -> VPtr 0
  | Value.Cundef _ -> VUndef

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

let rec call_function (st : state) (f : Func.t) (args : value list) : value =
  if Func.is_declaration f then builtin st f.Func.name args
  else begin
    st.depth <- st.depth + 1;
    if st.depth > 10000 then trap "call stack overflow";
    let frame_brk = st.mem.brk in
    let regs : (int, value) Hashtbl.t = Hashtbl.create 64 in
    (if List.length args <> List.length f.Func.params then
       trap "arity mismatch calling @%s" f.Func.name);
    List.iter2 (fun (p, _) a -> Hashtbl.replace regs p a) f.Func.params args;
    let block_map = Func.block_map f in
    let lookup (v : Value.t) : value =
      match v with
      | Value.Const c -> eval_const c
      | Value.Reg r ->
        (match Hashtbl.find_opt regs r with
         | Some v -> v
         | None -> trap "read of unassigned register %%%d in @%s" r f.Func.name)
      | Value.Global g ->
        (match Hashtbl.find_opt st.mem.global_addr g with
         | Some a -> VPtr a
         | None ->
           (match Hashtbl.find_opt st.mem.func_addr g with
            | Some a -> VPtr a
            | None -> trap "unknown global @%s" g))
    in
    let set r v =
      if r >= 0 then begin
        Hashtbl.replace regs r v;
        match st.on_assign with
        | Some h -> h ~fname:f.Func.name r v
        | None -> ()
      end
    in
    let exec_insn (i : Instr.t) : unit =
      st.dyn_insns <- st.dyn_insns + 1;
      st.cycles <- st.cycles + op_cost i.Instr.op;
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then trap "out of fuel";
      match i.Instr.op with
      | Instr.Binop (b, ty, x, y) -> set i.Instr.id (eval_binop b ty (lookup x) (lookup y))
      | Instr.Icmp (p, ty, x, y) ->
        let xv = lookup x and yv = lookup y in
        (match ty with
         | Types.Ptr ->
           set i.Instr.id (VInt (if Fold.eval_icmp p (Int64.of_int (as_ptr xv)) (Int64.of_int (as_ptr yv)) then 1L else 0L))
         | _ ->
           set i.Instr.id
             (VInt (if Fold.eval_icmp p (as_int xv) (as_int yv) then 1L else 0L)))
      | Instr.Fcmp (p, x, y) ->
        set i.Instr.id
          (VInt (if Fold.eval_fcmp p (as_float (lookup x)) (as_float (lookup y)) then 1L else 0L))
      | Instr.Select (_, c, a, b) ->
        set i.Instr.id (if Int64.equal (as_int (lookup c)) 1L then lookup a else lookup b)
      | Instr.Cast (cop, from_ty, to_ty, v) ->
        let vv = lookup v in
        (match cop, to_ty with
         | Instr.Bitcast, Types.Vec (t, n) when not (Types.is_vector from_ty) ->
           (* scalar-to-vector bitcast is the vectorizer's splat *)
           ignore t;
           set i.Instr.id (VVec (Array.make n vv))
         | Instr.Bitcast, Types.F64 when Types.is_integer from_ty ->
           set i.Instr.id (VFloat (Int64.float_of_bits (as_int vv)))
         | Instr.Bitcast, ty when Types.is_integer ty && Types.equal from_ty Types.F64 ->
           set i.Instr.id (VInt (Types.wrap ty (Int64.bits_of_float (as_float vv))))
         | Instr.Sitofp, _ -> set i.Instr.id (VFloat (Int64.to_float (as_int vv)))
         | Instr.Fptosi, ty ->
           let fv = as_float vv in
           if Float.is_nan fv then set i.Instr.id VUndef
           else set i.Instr.id (VInt (Types.wrap ty (Int64.of_float fv)))
         | (Instr.Trunc | Instr.Sext), ty -> set i.Instr.id (VInt (Types.wrap ty (as_int vv)))
         | Instr.Zext, ty ->
           let w = Types.bit_width from_ty in
           let mask =
             if w >= 64 then Int64.minus_one else Int64.sub (Int64.shift_left 1L w) 1L
           in
           set i.Instr.id (VInt (Types.wrap ty (Int64.logand (as_int vv) mask)))
         | Instr.Bitcast, ty ->
           (match vv with
            | VPtr _ when Types.equal ty Types.Ptr -> set i.Instr.id vv
            | _ -> set i.Instr.id vv))
      | Instr.Alloca (ty, n) ->
        let addr = alloc st.mem (Types.size_bytes ty * n) in
        set i.Instr.id (VPtr addr)
      | Instr.Load (ty, p) -> set i.Instr.id (load_value st.mem ty (as_ptr (lookup p)))
      | Instr.Store (ty, v, p) -> store_value st.mem ty (as_ptr (lookup p)) (lookup v)
      | Instr.Gep (ty, b, idx) ->
        let base = as_ptr (lookup b) in
        let off = Int64.to_int (as_int (lookup idx)) * Types.size_bytes (Types.elt_type ty) in
        set i.Instr.id (VPtr (base + off))
      | Instr.Call (_, g, args) ->
        let argv = List.map lookup args in
        (match Modul.find_func st.m g with
         | Some callee -> set i.Instr.id (call_function st callee argv)
         | None -> set i.Instr.id (builtin st g argv))
      | Instr.Callind (_, fv, args) ->
        let addr = as_ptr (lookup fv) in
        (match Hashtbl.find_opt st.mem.addr_func addr with
         | Some g ->
           let callee = Modul.find_func_exn st.m g in
           set i.Instr.id (call_function st callee (List.map lookup args))
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
      | Instr.Expect (_, v, _) -> set i.Instr.id (lookup v)
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
    in
    (* block execution loop *)
    let rec run_block (prev : string option) (label : string) : value =
      let blk =
        match Func.SMap.find_opt label block_map with
        | Some b -> b
        | None -> trap "jump to unknown block %s" label
      in
      let phis, rest = Block.split_phis blk in
      (* phis evaluate simultaneously against the predecessor environment *)
      (match prev, phis with
       | _, [] -> ()
       | None, _ -> trap "phi in entry block"
       | Some pred, phis ->
         let vals =
           List.map
             (fun (i : Instr.t) ->
               match i.Instr.op with
               | Instr.Phi (_, incs) ->
                 (match List.assoc_opt pred incs with
                  | Some v -> (i.Instr.id, lookup v)
                  | None -> trap "phi %%%d missing incoming from %s" i.Instr.id pred)
               | _ -> assert false)
             phis
         in
         List.iter (fun (r, v) -> Hashtbl.replace regs r v) vals;
         st.dyn_insns <- st.dyn_insns + List.length vals);
      List.iter exec_insn rest;
      st.cycles <- st.cycles + term_cost blk.Block.term;
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then trap "out of fuel";
      match blk.Block.term with
      | Instr.Ret None -> VUndef
      | Instr.Ret (Some (_, v)) -> lookup v
      | Instr.Br l -> run_block (Some label) l
      | Instr.Cbr (c, t, e) ->
        let taken = Int64.equal (as_int (lookup c)) 1L in
        run_block (Some label) (if taken then t else e)
      | Instr.Switch (_, v, cases, d) ->
        let k = as_int (lookup v) in
        let target = Option.value (List.assoc_opt k cases) ~default:d in
        run_block (Some label) target
      | Instr.Unreachable -> trap "reached unreachable"
    in
    let result = run_block None (Func.entry f).Block.label in
    st.mem.brk <- frame_brk;
    st.depth <- st.depth - 1;
    result
  end

(* --- public API ----------------------------------------------------------- *)

let default_fuel = 200_000_000

let run ?(fuel = default_fuel) ?(entry = "main") ?(args = []) ?on_assign
    (m : Modul.t) : outcome =
  let mem = init_mem m in
  let st =
    { m; mem; cycles = 0; dyn_insns = 0; fuel; out = Buffer.create 64;
      depth = 0; on_assign }
  in
  let f = Modul.find_func_exn m entry in
  let ret = call_function st f args in
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
