(* Interpreter semantics tests: arithmetic wrapping, memory, phis, calls,
   intrinsics, traps, and the fold/interp agreement property. *)

open Posetrl_ir
module I = Posetrl_interp.Interp

let run_main m = I.run m

let ret_i64 m =
  match (run_main m).I.ret with
  | I.VInt v -> v
  | _ -> Alcotest.fail "expected integer return"

let test_arith_wrapping () =
  let m =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        (* i32 overflow must wrap *)
        let big = Value.cint Types.I32 2147483647L in
        let x = Builder.add b Types.I32 big (Value.cint Types.I32 1L) in
        let y = Builder.sext b ~from_ty:Types.I32 ~to_ty:Types.I64 x in
        Builder.ret b Types.I64 y)
  in
  Alcotest.(check int64) "i32 wraps" (-2147483648L) (ret_i64 m)

let test_division_trap () =
  let m =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 0) p;
        let z = Builder.load b Types.I64 p in
        let x = Builder.sdiv b Types.I64 (Value.ci64 5) z in
        Builder.ret b Types.I64 x)
  in
  Alcotest.(check bool) "div by zero traps" true
    (match I.observe m with Error _ -> true | Ok _ -> false)

let test_memory_byte_granularity () =
  let m =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I8 8 in
        Builder.store b Types.I64 (Value.ci64 0x0102030405060708) p;
        (* read back byte 0 (little endian => 8) *)
        let x = Builder.load b Types.I8 p in
        let y = Builder.zext b ~from_ty:Types.I8 ~to_ty:Types.I64 x in
        Builder.ret b Types.I64 y)
  in
  Alcotest.(check int64) "little endian" 8L (ret_i64 m)

let test_global_init_ints () =
  let g =
    Global.mk ~is_const:true ~linkage:Global.Internal
      ~init:(Global.Ints [| 10L; 20L; 30L |]) "tbl" Types.I64 3
  in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let p = Builder.gep b Types.I64 (Value.global "tbl") (Value.ci64 2) in
  let x = Builder.load b Types.I64 p in
  Builder.ret b Types.I64 x;
  let m = Modul.mk ~name:"t" ~globals:[ g ] [ Builder.finish b ] in
  Alcotest.(check int64) "init read" 30L (ret_i64 m)

let test_global_bytes_and_putchar () =
  let g =
    Global.mk ~is_const:true ~linkage:Global.Internal ~init:(Global.Bytes "Hi")
      "msg" Types.I8 2
  in
  let decl = Func.declare ~name:"putchar" ~params:[ Types.I64 ] ~ret:Types.I64 () in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let c0 = Builder.load b Types.I8 (Value.global "msg") in
  let c0' = Builder.zext b ~from_ty:Types.I8 ~to_ty:Types.I64 c0 in
  let _ = Builder.call b Types.I64 "putchar" [ c0' ] in
  let p1 = Builder.gep b Types.I8 (Value.global "msg") (Value.ci64 1) in
  let c1 = Builder.load b Types.I8 p1 in
  let c1' = Builder.zext b ~from_ty:Types.I8 ~to_ty:Types.I64 c1 in
  let _ = Builder.call b Types.I64 "putchar" [ c1' ] in
  Builder.ret b Types.I64 (Value.ci64 0);
  let m = Modul.mk ~name:"t" ~globals:[ g ] [ decl; Builder.finish b ] in
  Alcotest.(check string) "output" "Hi" (run_main m).I.output

let test_phi_simultaneous_swap () =
  (* the classic swap test: phis must read predecessor values atomically *)
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  Builder.br b "loop";
  Builder.block b "loop";
  let x = Builder.phi b Types.I64 [ ("entry", Value.ci64 1); ("loop", Value.Reg 1) ] in
  let y = Builder.phi b Types.I64 [ ("entry", Value.ci64 2); ("loop", Value.Reg 0) ] in
  (* note: x is %0, y is %1 — each phi reads the other (swap each iteration) *)
  let i = Builder.phi b Types.I64 [ ("entry", Value.ci64 0); ("loop", Value.Reg 3) ] in
  let i' = Builder.add b Types.I64 i (Value.ci64 1) in
  let c = Builder.icmp b Instr.Slt Types.I64 i' (Value.ci64 3) in
  Builder.cbr b c "loop" "exit";
  Builder.block b "exit";
  (* after 3 iterations (odd number of swaps): x=2, y=1 — value of x on exit *)
  let r = Builder.mul b Types.I64 x (Value.ci64 10) in
  let r2 = Builder.add b Types.I64 r y in
  Builder.ret b Types.I64 r2;
  let m = Modul.mk ~name:"t" [ Builder.finish b ] in
  Verifier.check m;
  (* iteration values: enter (1,2); iter1 -> (2,1); iter2 -> (1,2); iter3 -> (2,1);
     but the exit reads the CURRENT iteration's phi values, i.e. after the
     third entry into loop: x=1,y=2 on 3rd entry... compute via interpreter *)
  let v = ret_i64 m in
  Alcotest.(check bool) "swap result consistent" true (v = 12L || v = 21L);
  (* and it must equal the fixed semantic value *)
  Alcotest.(check int64) "exact" 12L v

let test_call_stack_depth_trap () =
  let bh = Builder.create ~name:"inf" ~params:[ Types.I64 ] ~ret:Types.I64 () in
  Builder.block bh "entry";
  let r = Builder.call bh Types.I64 "inf" [ Builder.param bh 0 ] in
  Builder.ret bh Types.I64 r;
  let inf = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let r = Builder.call b Types.I64 "inf" [ Value.ci64 0 ] in
  Builder.ret b Types.I64 r;
  let m = Modul.mk ~name:"t" [ inf; Builder.finish b ] in
  Alcotest.(check bool) "stack overflow trapped" true
    (match I.observe m with Error _ -> true | Ok _ -> false)

let test_fuel_exhaustion () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  Builder.br b "spin";
  Builder.block b "spin";
  Builder.br b "spin";
  let m = Modul.mk ~name:"t" [ Builder.finish b ] in
  Alcotest.(check bool) "out of fuel" true
    (match I.observe ~fuel:1000 m with Error e -> e = "out of fuel" | Ok _ -> false)

let test_memset_intrinsic () =
  let m =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let a = Builder.alloca b Types.I64 4 in
        let _ =
          Builder.intrinsic b "memset" Types.Void
            [ a; Value.ci64 9; Value.ci64 4; Value.ci64 8 ]
        in
        let p = Builder.gep b Types.I64 a (Value.ci64 3) in
        let x = Builder.load b Types.I64 p in
        Builder.ret b Types.I64 x)
  in
  Alcotest.(check int64) "memset wrote" 9L (ret_i64 m)

let test_memcpy_op () =
  let m =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let src = Builder.alloca b Types.I64 2 in
        let dst = Builder.alloca b Types.I64 2 in
        Builder.store b Types.I64 (Value.ci64 5) src;
        let s1 = Builder.gep b Types.I64 src (Value.ci64 1) in
        Builder.store b Types.I64 (Value.ci64 6) s1;
        Builder.memcpy b dst src (Value.ci64 16);
        let d1 = Builder.gep b Types.I64 dst (Value.ci64 1) in
        let x = Builder.load b Types.I64 dst in
        let y = Builder.load b Types.I64 d1 in
        let s = Builder.add b Types.I64 x y in
        Builder.ret b Types.I64 s)
  in
  Alcotest.(check int64) "memcpy copied" 11L (ret_i64 m)

let vector_module () =
  Testutil.wrap_main (fun b ->
      Builder.block b "entry";
      let a = Builder.alloca b Types.I64 4 in
      (* write 1,2,3,4 *)
      List.iteri
        (fun k v ->
          let p = Builder.gep b Types.I64 a (Value.ci64 k) in
          Builder.store b Types.I64 (Value.ci64 v) p)
        [ 1; 2; 3; 4 ];
      let vec_ty = Types.Vec (Types.I64, 4) in
      let v = Builder.load b vec_ty a in
      (* splat 10 and add *)
      let s = Builder.cast b Instr.Bitcast ~from_ty:Types.I64 ~to_ty:vec_ty (Value.ci64 10) in
      let sum = Builder.add b vec_ty v s in
      Builder.store b vec_ty sum a;
      (* read back element 2 -> 13 *)
      let p2 = Builder.gep b Types.I64 a (Value.ci64 2) in
      let x = Builder.load b Types.I64 p2 in
      Builder.ret b Types.I64 x)

let test_vector_ops () = Alcotest.(check int64) "vector lane" 13L (ret_i64 (vector_module ()))

let test_switch_dispatch () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let p = Builder.alloca b Types.I64 1 in
  Builder.store b Types.I64 (Value.ci64 2) p;
  let x = Builder.load b Types.I64 p in
  Builder.switch b Types.I64 x [ (1L, "one"); (2L, "two") ] "other";
  Builder.block b "one";
  Builder.ret b Types.I64 (Value.ci64 100);
  Builder.block b "two";
  Builder.ret b Types.I64 (Value.ci64 200);
  Builder.block b "other";
  Builder.ret b Types.I64 (Value.ci64 300);
  let m = Modul.mk ~name:"t" [ Builder.finish b ] in
  Alcotest.(check int64) "switch" 200L (ret_i64 m)

let test_cycles_monotone_in_work () =
  let mk n =
    let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
    let c = Posetrl_workloads.Dsl.ctx b in
    Builder.block b "entry";
    let acc = Posetrl_workloads.Dsl.var c Types.I64 (Value.ci64 0) in
    Posetrl_workloads.Dsl.for_up c ~from:0 ~bound:(Value.ci64 n) (fun ip ->
        Posetrl_workloads.Dsl.bump c acc (Posetrl_workloads.Dsl.get c Types.I64 ip));
    Builder.ret b Types.I64 (Posetrl_workloads.Dsl.get c Types.I64 acc);
    Modul.mk ~name:"t" [ Builder.finish b ]
  in
  let c10 = (run_main (mk 10)).I.cycles in
  let c100 = (run_main (mk 100)).I.cycles in
  Alcotest.(check bool) "more work, more cycles" true (c100 > c10 * 5)

(* --- traps on malformed modules ---------------------------------------------

   The parser does not verify, so these modules are written as text. Each
   pins the exact message: the equiv sanitizer and `posetrl run` print
   it. *)

let trap_of (src : string) : string =
  match I.observe (Parser.parse_module src) with
  | Error e -> e
  | Ok (r, _) -> Alcotest.failf "expected a trap, returned %s" r

let main_body ?(name = "t") body = "module " ^ name ^ "\n\nfunc @main(): i64 {\n" ^ body ^ "}\n"

(* an unknown global read after the loop exits, as a load's address and
   as a phi's incoming value *)
let unknown_global_src ~phi =
  main_body
    ("entry:\n  br loop\nloop:\n  %0 = phi i64 [entry: 0], [loop: %1]\n  %1 = add i64 %0, 1\n\
      %2 = icmp slt i64 %1, 5\n  cbr %2, loop, bad\n"
    ^
    if phi then "bad:\n  br join\njoin:\n  %3 = phi ptr [bad: @nope]\n  %4 = load i64, %3\n  ret i64 %4\n"
    else "bad:\n  %3 = load i64, @nope\n  ret i64 %3\n")

(* name, message, module *)
let malformed : (string * string * string) list =
  [ ("unknown block", "jump to unknown block nowhere", main_body "entry:\n  br nowhere\n");
    ( "missing phi incoming", "phi %1 missing incoming from body",
      main_body
        "entry:\n  br body\nbody:\n  br join\n\
         join:\n  %1 = phi i64 [entry: 0]\n  ret i64 %1\n" );
    ( "phi in entry", "phi in entry block",
      main_body "entry:\n  %0 = phi i64 [entry: 0]\n  ret i64 %0\n" );
    ( "phi after a non-phi", "phi executed outside block entry",
      main_body
        "entry:\n  br next\nnext:\n  %1 = add i64 1, 2\n\
         %2 = phi i64 [entry: 0]\n  ret i64 %2\n" );
    ( "unassigned register", "read of unassigned register %7 in @main",
      main_body "entry:\n  ret i64 %7\n" );
    ( "unknown global", "unknown global @nope",
      main_body "entry:\n  %0 = load i64, @nope\n  ret i64 %0\n" );
    ( "arity mismatch", "arity mismatch calling @f",
      "module t\n\nfunc @f(%0: i64): i64 {\nentry:\n  ret i64 %0\n}\n\n"
      ^ "func @main(): i64 {\nentry:\n  %0 = call i64 @f(1, 2)\n  ret i64 %0\n}\n" );
    (* the first global sits at address 16, the bottom of the heap *)
    ( "indirect call to data", "indirect call to non-function address 16",
      "module t\n\ninternal global @g: i64 x 1 = zeroinit\n\n"
      ^ "func @main(): i64 {\nentry:\n  %0 = callind i64 @g(1)\n  ret i64 %0\n}\n" );
    ( "unknown intrinsic", "unknown intrinsic frobnicate",
      main_body "entry:\n  intrinsic frobnicate void ()\n  ret i64 0\n" );
    (* operands are read right to left: the second operand traps first *)
    ( "binop operand order", "read of unassigned register %5 in @main",
      main_body "entry:\n  %0 = add i64 %4, %5\n  ret i64 %0\n" );
    ( "store operand order", "read of unassigned register %4 in @main",
      main_body "entry:\n  store i64 %4, %5\n  ret i64 0\n" );
    ( "call arguments left to right", "read of unassigned register %4 in @main",
      "module t\n\nfunc @f(%0: i64, %1: i64): i64 {\nentry:\n  ret i64 %0\n}\n\n"
      ^ "func @main(): i64 {\nentry:\n  %0 = call i64 @f(%4, %5)\n  ret i64 %0\n}\n" );
    ("unknown global on a taken path", "unknown global @nope", unknown_global_src ~phi:false);
    ( "unknown global through a phi on a taken path", "unknown global @nope",
      unknown_global_src ~phi:true ) ]

let test_malformed_traps () =
  List.iter
    (fun (name, want, src) -> Alcotest.(check string) name want (trap_of src))
    malformed

(* Every trap above sits on a path that never runs here: traps are
   raised when the operation executes, never when a function is
   entered. *)
let untaken_src =
  main_body
    "entry:\n  %0 = select i64 1, 5, %99\n  cbr 1, done, bad\n\
     bad:\n  %1 = load i64, @nope\n  %2 = add i64 %1, %98\n\
     intrinsic frobnicate void ()\n  %3 = phi i64 [done: 0]\n  br nowhere\n\
     done:\n  ret i64 %0\n"

let test_untaken_path_does_not_trap () =
  Alcotest.(check (result (pair string string) string)) "returns" (Ok ("5", ""))
    (I.observe (Parser.parse_module untaken_src))

let callind_src =
  "module t\n\ninternal func @sq(%0: i64): i64 {\nentry:\n  %1 = mul i64 %0, %0\n\
   ret i64 %1\n}\n\nfunc @main(): i64 {\nentry:\n  %0 = callind i64 @sq(7)\n\
   %1 = call i64 @sq(%0)\n  ret i64 %1\n}\n"

let test_callind_through_function_address () =
  let o = run_main (Parser.parse_module callind_src) in
  Alcotest.(check int64) "sq (sq 7)" 2401L
    (match o.I.ret with I.VInt v -> v | _ -> Alcotest.fail "expected integer return");
  (* two calls (6 each), two muls (4 each), three rets (2 each) *)
  Alcotest.(check int) "cycles" 26 o.I.cycles;
  Alcotest.(check int) "dynamic instructions" 4 o.I.dyn_insns

(* Shapes the workloads never produce: a switch with a repeated case
   value and a phi with a repeated incoming label (the first of each
   wins), a cbr with one target twice, and two functions of one name (a
   call and an indirect call through the name's address both run the
   first). *)
let edge_src =
  "module t\n\nfunc @f(%0: i64): i64 {\nentry:\n  %1 = add i64 %0, 1\n  ret i64 %1\n}\n\n\
   func @f(%0: i64): i64 {\nentry:\n  ret i64 0\n}\n\n\
   func @main(): i64 {\nentry:\n  br head\n\
   head:\n  %0 = phi i64 [entry: 0], [latch: %5], [entry: 7]\n\
   %1 = phi i64 [entry: 0], [latch: %6]\n  %2 = icmp slt i64 %0, 6\n  cbr %2, body, exit\n\
   body:\n  %3 = srem i64 %0, 3\n  switch i64 %3 [0: a, 1: b, 0: b], default c\n\
   a:\n  br latch\nb:\n  br latch\nc:\n  cbr 1, latch, latch\n\
   latch:\n  %4 = phi i64 [a: 10], [b: 20], [c: 30], [a: 99]\n  %5 = add i64 %0, 1\n\
   %7 = call i64 @f(%4)\n  %8 = callind i64 @f(%7)\n  %6 = add i64 %1, %8\n  br head\n\
   exit:\n  ret i64 %1\n}\n"

(* a gep over a vector type steps by the element size *)
let vector_gep_src =
  main_body
    "entry:\n  %0 = alloca i64 x 4\n  %1 = gep i64 %0, 1\n  store i64 5, %1\n\
     %2 = gep <4 x i64> %0, 1\n  %3 = load i64, %2\n  ret i64 %3\n"

let test_edge_shapes () =
  Alcotest.(check int64) "first case, first incoming, first definition" 132L
    (ret_i64 (Parser.parse_module edge_src));
  Alcotest.(check int64) "vector gep" 5L (ret_i64 (Parser.parse_module vector_gep_src))

(* --- the fast paths' edges ---------------------------------------------------

   The interpreter computes the common tag and type combinations in an
   unboxed frame and hands every other one to its boxed evaluator. Each
   module below sits on a seam between the two; the reference test
   below runs each of them. *)

(* Undef from a call's return keeps the register's previous bits (1 in
   the last round), which no integer read may see: as a binop, icmp,
   select and cbr operand, and through a phi. *)
let undef_edges_src =
  "module undef_edges\n\n\
   internal func @u(%0: i64): i64 {\nentry:\n  %1 = icmp eq i64 %0, 0\n  cbr %1, zero, other\n\
   zero:\n  ret i64 undef\nother:\n  ret i64 %0\n}\n\n\
   func @main(): i64 {\nentry:\n  br loop\n\
   loop:\n  %0 = phi i64 [entry: 3], [latch: %9]\n  %1 = call i64 @u(%0)\n\
   %2 = add i64 %1, 100\n  %3 = icmp eq i64 %1, 1\n  %4 = zext i1 %3 to i64\n\
   %5 = select i64 %1, 10, 20\n  %6 = call i64 @print_i64(%2)\n  %7 = call i64 @print_i64(%4)\n\
   %8 = call i64 @print_i64(%5)\n  cbr %1, one, other\n\
   one:\n  br latch\nother:\n  br latch\n\
   latch:\n  %10 = phi i64 [one: 1], [other: 0]\n  %11 = call i64 @print_i64(%10)\n\
   %9 = sub i64 %0, 1\n  %12 = icmp sge i64 %9, 0\n  cbr %12, loop, exit\n\
   exit:\n  %13 = phi i64 [latch: %1]\n  %14 = mul i64 %13, 3\n  %15 = add i64 undef, %14\n\
   ret i64 %15\n}\n"

(* A pointer as an integer operand and an integer as a pointer; a
   pointer compare reads an integer as [as_ptr] does, cut to 63 bits. *)
let ptr_int_edges_src =
  main_body ~name:"ptr_int_edges"
    "entry:\n  %0 = alloca i64 x 4\n  %1 = add i64 %0, 8\n  store i64 42, %1\n\
     %2 = gep i64 %0, 1\n  %3 = load i64, %2\n  %4 = icmp eq i64 %1, %2\n\
     %5 = icmp eq ptr %1, %2\n  %6 = sub i64 %2, %0\n  %7 = gep i64 %1, 1\n\
     store i64 7, %7\n  %8 = load i64, %7\n  %9 = icmp ult ptr %0, %2\n\
     %10 = icmp eq ptr -1, 9223372036854775807\n  %11 = alloca ptr x 2\n\
     store ptr %2, %11\n  %12 = gep ptr %11, 1\n  store ptr %1, %12\n\
     %13 = load ptr, %12\n  %14 = load i64, %11\n  %15 = icmp eq ptr %13, %2\n\
     %16 = select ptr %4, %1, %0\n  %17 = load i64, %16\n\
     %18 = call i64 @print_i64(%3)\n  %19 = call i64 @print_i64(%6)\n\
     %20 = call i64 @print_i64(%8)\n  %21 = sub i64 %14, %0\n  %22 = call i64 @print_i64(%21)\n\
     %23 = call i64 @print_i64(%17)\n  %24 = zext i1 %4 to i64\n  %25 = zext i1 %5 to i64\n\
     %26 = zext i1 %9 to i64\n  %27 = zext i1 %10 to i64\n  %28 = zext i1 %15 to i64\n\
     %29 = shl i64 %25, 1\n  %30 = shl i64 %26, 2\n  %31 = shl i64 %27, 3\n\
     %32 = shl i64 %28, 4\n  %33 = or i64 %24, %29\n  %34 = or i64 %33, %30\n\
     %35 = or i64 %34, %31\n  %36 = or i64 %35, %32\n  ret i64 %36\n"

(* -0.0 beside 0.0, and a NaN with a payload, through phis, selects and
   an f64 store and load, then back to i64 *)
let float_edges_src =
  main_body ~name:"float_edges"
    "entry:\n  %0 = alloca f64 x 1\n  %1 = bitcast i64 9221120237041090611 to f64\n  br loop\n\
     loop:\n  %2 = phi i64 [entry: 0], [loop: %6]\n  %3 = phi f64 [entry: 0.0], [loop: -0.0]\n\
     %4 = phi f64 [entry: -0.0], [loop: %1]\n  %5 = phi f64 [entry: %1], [loop: 0.0]\n\
     %6 = add i64 %2, 1\n  %7 = icmp slt i64 %6, 2\n  cbr %7, loop, exit\n\
     exit:\n  %8 = select f64 %7, %4, %3\n  %9 = select f64 1, %4, %5\n\
     store f64 %9, %0\n  %10 = load f64, %0\n  %11 = bitcast f64 %10 to i64\n\
     %12 = bitcast f64 %8 to i64\n  %13 = fdiv f64 1.0, %5\n  %14 = fdiv f64 1.0, %8\n\
     %15 = bitcast f64 %13 to i64\n  %16 = bitcast f64 %14 to i64\n  store f64 %8, %0\n\
     %17 = load i64, %0\n  %18 = fsub f64 0.0, -0.0\n  %19 = bitcast f64 %18 to i64\n\
     %20 = call i64 @print_i64(%11)\n  %21 = call i64 @print_i64(%12)\n\
     %22 = call i64 @print_i64(%15)\n  %23 = call i64 @print_i64(%16)\n\
     %24 = call i64 @print_i64(%17)\n  %25 = call i64 @print_i64(%19)\n  ret i64 %11\n"

(* i1, i8 and i32 results wrap, from operands that are not yet wrapped *)
let wrap_edges_src =
  "module wrap_edges\n\ninternal func @w(%0: i64): i64 {\nentry:\n\
   %1 = add i8 %0, 1\n  %2 = mul i8 %0, %0\n  %3 = shl i8 %0, 7\n  %4 = ashr i8 %3, 3\n\
   %5 = lshr i8 %0, 1\n  %6 = add i32 %0, 2147483647\n  %7 = mul i32 %0, 65536\n\
   %8 = shl i32 %0, 31\n  %9 = ashr i32 %8, 4\n  %10 = add i1 %0, 1\n  %11 = mul i1 %0, %0\n\
   %12 = shl i1 %0, 1\n  %13 = ashr i1 %0, 0\n  %14 = trunc i64 %0 to i8\n\
   %15 = trunc i64 %0 to i1\n  %16 = trunc i64 %0 to i32\n  %17 = sext i8 %14 to i64\n\
   %18 = zext i8 %14 to i64\n  %19 = sext i1 %15 to i64\n  %20 = zext i1 %15 to i64\n\
   %21 = zext i32 %6 to i64\n  %22 = sext i32 %6 to i64\n"
  ^ String.concat ""
      (List.init 22 (fun k -> Printf.sprintf "  %%%d = call i64 @print_i64(%%%d)\n" (k + 23) (k + 1)))
  ^ "  ret i64 %22\n}\n\nfunc @main(): i64 {\nentry:\n  %0 = call i64 @w(127)\n\
     %1 = call i64 @w(300)\n  %2 = call i64 @w(-1)\n  %3 = call i64 @w(4294967297)\n\
     %4 = call i64 @w(-129)\n  ret i64 %4\n}\n"

(* vectors through a swapping pair of phis (their moves go through
   temporaries), a select, a store and a load, and a call's return *)
let vector_edges_src =
  "module vector_edges\n\ninternal func @splat(%0: i64): <4 x i64> {\nentry:\n\
   %1 = bitcast i64 %0 to <4 x i64>\n  ret <4 x i64> %1\n}\n\n\
   func @main(): i64 {\nentry:\n  %0 = alloca i64 x 4\n  %1 = call <4 x i64> @splat(3)\n\
   %2 = bitcast i64 5 to <4 x i64>\n  br loop\n\
   loop:\n  %3 = phi <4 x i64> [entry: %1], [loop: %4]\n  %4 = phi <4 x i64> [entry: %2], [loop: %3]\n\
   %5 = phi i64 [entry: 0], [loop: %6]\n  %6 = add i64 %5, 1\n  %7 = icmp slt i64 %6, 3\n\
   cbr %7, loop, exit\n\
   exit:\n  %8 = add <4 x i64> %3, %4\n  %9 = select <4 x i64> %7, %3, %8\n\
   store <4 x i64> %9, %0\n  %10 = load <4 x i64>, %0\n  %11 = mul <4 x i64> %10, %3\n\
   store <4 x i64> %11, %0\n  %12 = gep i64 %0, 2\n  %13 = load i64, %12\n  ret i64 %13\n}\n"

(* property: Fold.fold_op agrees with interpreter execution on random
   integer binops *)
let prop_fold_matches_interp =
  QCheck2.Test.make ~count:500 ~name:"fold_op agrees with interpreter"
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(triple (int_range 0 12) (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (opidx, a, b) ->
      let bop =
        [| Instr.Add; Instr.Sub; Instr.Mul; Instr.Sdiv; Instr.Udiv; Instr.Srem;
           Instr.Urem; Instr.And; Instr.Or; Instr.Xor; Instr.Shl; Instr.Lshr;
           Instr.Ashr |].(opidx)
      in
      let op = Instr.Binop (bop, Types.I64, Value.ci64 a, Value.ci64 b) in
      match Fold.fold_op op with
      | None -> true (* division by zero etc.: nothing to compare *)
      | Some (Value.Const (Value.Cint (_, folded))) ->
        let m =
          Testutil.wrap_main (fun bb ->
              Builder.block bb "entry";
              let p = Builder.alloca bb Types.I64 1 in
              Builder.store bb Types.I64 (Value.ci64 a) p;
              let x = Builder.load bb Types.I64 p in
              let r = Builder.binop bb bop Types.I64 x (Value.ci64 b) in
              Builder.ret bb Types.I64 r)
        in
        (match (run_main m).I.ret with
         | I.VInt v -> Int64.equal v folded
         | _ -> false)
      | Some _ -> false)

(* --- the resolved interpreter against the reference (interp_ref.ml) -------- *)

module R = Interp_ref

let rec of_ref : R.value -> I.value = function
  | R.VInt x -> I.VInt x
  | R.VFloat f -> I.VFloat f
  | R.VPtr p -> I.VPtr p
  | R.VVec vs -> I.VVec (Array.map of_ref vs)
  | R.VUndef -> I.VUndef

(* floats by their bits, so -0.0 and 0.0 (or two NaNs) stay apart *)
let rec show (v : I.value) : string =
  match v with
  | I.VInt x -> Int64.to_string x
  | I.VFloat f -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)
  | I.VPtr p -> Printf.sprintf "ptr:%d" p
  | I.VVec vs -> "<" ^ String.concat ", " (Array.to_list (Array.map show vs)) ^ ">"
  | I.VUndef -> "undef"

(* the same distinction as a hash, without allocating: it runs on every
   on_assign call *)
let rec value_hash (v : I.value) : int =
  match v with
  | I.VInt x -> Hashtbl.hash (0, x)
  | I.VFloat f -> Hashtbl.hash (1, Int64.bits_of_float f)
  | I.VPtr p -> Hashtbl.hash (2, p)
  | I.VVec vs -> Array.fold_left (fun h v -> Hashtbl.hash (h, value_hash v)) 3 vs
  | I.VUndef -> 4

(* A run's outcome (floats by bits) or the exception it raised, the
   number of on_assign calls and a hash of their sequence. *)
type seen = {
  result : (string * int * int * string, string) result;
  assigns : int;
  assign_hash : int;
}

let seen_of (run : (fname:string -> int -> I.value -> unit) option -> I.outcome) ~(hook : bool)
    : seen =
  let n = ref 0 and h = ref 0 in
  let on_assign ~fname r v =
    incr n;
    h := Hashtbl.hash (!h, Hashtbl.hash fname, r, value_hash v)
  in
  let result =
    match run (if hook then Some on_assign else None) with
    | o ->
      Ok (show o.I.ret, o.I.cycles, o.I.dyn_insns, o.I.output)
    | exception (I.Trap msg | R.Trap msg) -> Error ("trap: " ^ msg)
    | exception e -> Error (Printexc.to_string e)
  in
  { result; assigns = !n; assign_hash = !h }

(* Both interpreters on [m] at [fuel] (None: the default), with or
   without the hook: [None] when they agree, else what differs. *)
let differs (m : Modul.t) ((fuel, hook) : int option * bool) : string option =
  let mine = seen_of ~hook (fun on_assign -> I.run ?fuel ?on_assign m) in
  let theirs =
    seen_of ~hook (fun on_assign ->
        let on_assign = Option.map (fun h ~fname r v -> h ~fname r (of_ref v)) on_assign in
        let o = R.run ?fuel ?on_assign m in
        { I.ret = of_ref o.R.ret; cycles = o.R.cycles; dyn_insns = o.R.dyn_insns;
          output = o.R.output })
  in
  if mine = theirs then None
  else
    Some
      (Printf.sprintf "%s differs at fuel %s%s" m.Modul.name
         (Option.fold ~none:"default" ~some:string_of_int fuel)
         (if hook then " with on_assign" else ""))

(* four ways: default fuel with and without the hook, and two small
   fuels that stop mid-run *)
let same_as_reference (m : Modul.t) : (string, string) result =
  match
    List.find_map (differs m) [ (None, false); (None, true); (Some 3_000, false); (Some 777, true) ]
  with
  | None -> Ok m.Modul.name
  | Some e -> Error e

(* the 31 validation programs and every fifth training-corpus program,
   raw (O0) and at -Oz, and the hand-written modules above: the
   malformed ones, the switches and vectors no workload has, and the
   fast paths' edges *)
let test_matches_reference_on_suites () =
  let raw =
    List.map snd (Posetrl_workloads.Suites.all_programs ())
    @ List.filteri (fun k _ -> k mod 5 = 0)
        (Array.to_list (Posetrl_workloads.Suites.training_corpus ()))
  in
  let oz = List.map (Posetrl_passes.Pass_manager.run_level Posetrl_passes.Pipelines.Oz) raw in
  let hand =
    List.map Parser.parse_module
      (untaken_src :: callind_src :: edge_src :: vector_gep_src
       :: List.map (fun (_, _, src) -> src) malformed
       @ [ undef_edges_src; ptr_int_edges_src; float_edges_src; wrap_edges_src; vector_edges_src ])
    @ List.map (fun key -> Test_switch_misc.switch_module ~key ()) [ 0; 1; 2; 42 ]
    @ [ vector_module (); Testutil.sum_squares_module () ]
  in
  List.iter
    (fun m -> Alcotest.(check (result string string)) "same outcome" (Ok m.Modul.name)
        (same_as_reference m))
    (raw @ oz @ hand)

(* Genprog and Templates programs after 15 random ODG actions, as one
   training episode could take them: the four ways, and once more
   stopped by fuel at any point of the first 3000 steps, with or without
   the hook *)
let prop_matches_reference_under_odg_schedules =
  let space = Posetrl_odg.Action_space.odg in
  QCheck2.Test.make ~count:100 ~name:"resolved interpreter = reference under random ODG schedules"
    ~print:QCheck2.Print.(tup5 int bool (list int) int bool)
    QCheck2.Gen.(
      tup5 (int_range 800_000 900_000) bool
        (list_repeat 15 (int_range 0 (Posetrl_odg.Action_space.n_actions space - 1)))
        (int_range 1 3000) bool)
    (fun (seed, templ, schedule, fuel, hook) ->
      let m =
        if templ then Posetrl_workloads.Templates.generate ~seed
        else Posetrl_workloads.Genprog.generate ~seed
      in
      let m = Posetrl_core.Inference.apply_sequence ~actions:space schedule m in
      match same_as_reference m, differs m (Some fuel, hook) with
      | Ok _, None -> true
      | Error e, _ | _, Some e -> QCheck2.Test.fail_report e)

let suite =
  [ Alcotest.test_case "arith wrapping" `Quick test_arith_wrapping;
    Alcotest.test_case "division trap" `Quick test_division_trap;
    Alcotest.test_case "memory byte granularity" `Quick test_memory_byte_granularity;
    Alcotest.test_case "global init ints" `Quick test_global_init_ints;
    Alcotest.test_case "global bytes + putchar" `Quick test_global_bytes_and_putchar;
    Alcotest.test_case "phi simultaneous swap" `Quick test_phi_simultaneous_swap;
    Alcotest.test_case "stack depth trap" `Quick test_call_stack_depth_trap;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "memset intrinsic" `Quick test_memset_intrinsic;
    Alcotest.test_case "memcpy" `Quick test_memcpy_op;
    Alcotest.test_case "vector ops" `Quick test_vector_ops;
    Alcotest.test_case "switch dispatch" `Quick test_switch_dispatch;
    Alcotest.test_case "cycles monotone" `Quick test_cycles_monotone_in_work;
    Alcotest.test_case "malformed-module trap messages" `Quick test_malformed_traps;
    Alcotest.test_case "untaken path does not trap" `Quick test_untaken_path_does_not_trap;
    Alcotest.test_case "callind through a function address" `Quick
      test_callind_through_function_address;
    Alcotest.test_case "repeated cases, incomings and names" `Quick test_edge_shapes;
    Alcotest.test_case "resolved interpreter = reference on the suites" `Quick
      test_matches_reference_on_suites;
    QCheck_alcotest.to_alcotest prop_matches_reference_under_odg_schedules;
    QCheck_alcotest.to_alcotest prop_fold_matches_interp ]
