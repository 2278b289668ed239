(* Unit tests for the scalar passes: each test builds a tiny function
   exhibiting the pattern the pass targets, runs the single pass (with IR
   verification), and checks both the structural effect and behavioural
   equivalence under the interpreter. *)

open Posetrl_ir
open Testutil

let is_binop b = function Instr.Binop (b', _, _, _) -> b = b' | _ -> false
let is_call = function Instr.Call _ -> true | _ -> false
let is_load = function Instr.Load _ -> true | _ -> false
let is_store = function Instr.Store _ -> true | _ -> false
let is_alloca = function Instr.Alloca _ -> true | _ -> false
let is_phi = function Instr.Phi _ -> true | _ -> false
let is_select = function Instr.Select _ -> true | _ -> false

(* --- instcombine ---------------------------------------------------------- *)

let test_instcombine_add_zero () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 7) p;
        let x = Builder.load b Types.I64 p in
        let y = Builder.add b Types.I64 x (Value.ci64 0) in
        Builder.ret b Types.I64 y)
  in
  let m' = run_pass "instcombine" m in
  check_same_behaviour "add zero" m m';
  Alcotest.(check int) "add removed" 0 (count_insns (is_binop Instr.Add) m')

let test_instcombine_mul_pow2 () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 5) p;
        let x = Builder.load b Types.I64 p in
        let y = Builder.mul b Types.I64 x (Value.ci64 8) in
        Builder.ret b Types.I64 y)
  in
  let m' = run_pass "instcombine" m in
  check_same_behaviour "mul pow2" m m';
  Alcotest.(check int) "mul gone" 0 (count_insns (is_binop Instr.Mul) m');
  Alcotest.(check int) "shl appears" 1 (count_insns (is_binop Instr.Shl) m')

let test_instcombine_constant_chain () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        let a = Builder.add b Types.I64 x (Value.ci64 3) in
        let bq = Builder.add b Types.I64 a (Value.ci64 4) in
        Builder.ret b Types.I64 bq)
  in
  let m' = run_pass "instcombine" m in
  check_same_behaviour "(x+3)+4" m m';
  Alcotest.(check int) "single add left" 1 (count_insns (is_binop Instr.Add) m')

let test_instcombine_sub_self () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 9) p;
        let x = Builder.load b Types.I64 p in
        let y = Builder.sub b Types.I64 x x in
        Builder.ret b Types.I64 y)
  in
  let m' = run_pass "instcombine" m in
  check_same_behaviour "x-x" m m';
  Alcotest.(check string) "returns 0" "0" (ret_of m')

let test_instcombine_folds_constants () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let x = Builder.add b Types.I64 (Value.ci64 2) (Value.ci64 3) in
        let y = Builder.mul b Types.I64 x (Value.ci64 4) in
        Builder.ret b Types.I64 y)
  in
  let m' = run_pass "instcombine" m in
  Alcotest.(check string) "still 20" "20" (ret_of m');
  Alcotest.(check int) "no arithmetic left" 0
    (count_insns (fun op -> match op with Instr.Binop _ -> true | _ -> false) m')

let test_instcombine_urem_pow2 () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 29) p;
        let x = Builder.load b Types.I64 p in
        let y = Builder.binop b Instr.Urem Types.I64 x (Value.ci64 16) in
        Builder.ret b Types.I64 y)
  in
  let m' = run_pass "instcombine" m in
  check_same_behaviour "urem 16" m m';
  Alcotest.(check int) "became and" 1 (count_insns (is_binop Instr.And) m')

(* --- instsimplify ----------------------------------------------------------- *)

let test_instsimplify_folds () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let x = Builder.add b Types.I64 (Value.ci64 40) (Value.ci64 2) in
        Builder.ret b Types.I64 x)
  in
  let m' = run_pass "instsimplify" m in
  Alcotest.(check string) "folded" "42" (ret_of m');
  Alcotest.(check int) "empty body" 0 (count_insns (fun _ -> true) m')

(* --- early-cse --------------------------------------------------------------- *)

let test_early_cse_dedups () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 6) p;
        let x = Builder.load b Types.I64 p in
        let a = Builder.mul b Types.I64 x x in
        let bq = Builder.mul b Types.I64 x x in
        let s = Builder.add b Types.I64 a bq in
        Builder.ret b Types.I64 s)
  in
  let m' = run_pass "early-cse" m in
  check_same_behaviour "cse" m m';
  Alcotest.(check int) "one mul" 1 (count_insns (is_binop Instr.Mul) m')

let test_early_cse_store_load_forward () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 11) p;
        let x = Builder.load b Types.I64 p in
        Builder.ret b Types.I64 x)
  in
  let m' = run_pass "early-cse" m in
  check_same_behaviour "forward" m m';
  Alcotest.(check int) "load gone" 0 (count_insns is_load m')

let test_early_cse_memssa_not_across_store () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        Builder.store b Types.I64 (Value.ci64 2) p;
        let y = Builder.load b Types.I64 p in
        let s = Builder.add b Types.I64 x y in
        Builder.ret b Types.I64 s)
  in
  let m' = run_pass "early-cse-memssa" m in
  check_same_behaviour "clobber respected" m m';
  Alcotest.(check string) "3" "3" (ret_of m')

(* --- gvn ----------------------------------------------------------------------- *)

let test_gvn_commutative () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 3) p;
        let x = Builder.load b Types.I64 p in
        let q = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 4) q;
        let y = Builder.load b Types.I64 q in
        let a = Builder.add b Types.I64 x y in
        let bq = Builder.add b Types.I64 y x in
        let s = Builder.mul b Types.I64 a bq in
        Builder.ret b Types.I64 s)
  in
  let m' = run_pass "gvn" m in
  check_same_behaviour "gvn commutative" m m';
  Alcotest.(check int) "one add" 1 (count_insns (is_binop Instr.Add) m')

let test_gvn_across_blocks () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 5) p;
        let x = Builder.load b Types.I64 p in
        let a = Builder.mul b Types.I64 x x in
        let c = Builder.icmp b Instr.Sgt Types.I64 a (Value.ci64 10) in
        Builder.cbr b c "big" "small";
        Builder.block b "big";
        let a2 = Builder.mul b Types.I64 x x in
        Builder.ret b Types.I64 a2;
        Builder.block b "small";
        Builder.ret b Types.I64 (Value.ci64 0))
  in
  let m' = run_pass "gvn" m in
  check_same_behaviour "gvn dominating" m m';
  Alcotest.(check int) "one mul" 1 (count_insns (is_binop Instr.Mul) m')

(* --- sccp ------------------------------------------------------------------------ *)

let test_sccp_folds_branch () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let c = Builder.icmp b Instr.Slt Types.I64 (Value.ci64 1) (Value.ci64 2) in
        Builder.cbr b c "t" "f";
        Builder.block b "t";
        Builder.ret b Types.I64 (Value.ci64 10);
        Builder.block b "f";
        Builder.ret b Types.I64 (Value.ci64 20))
  in
  let m' = run_pass "sccp" m in
  Alcotest.(check string) "took true" "10" (ret_of m');
  (* sccp removes the dead arm; block merging is simplifycfg's job *)
  Alcotest.(check bool) "dead branch removed" true (count_blocks m' <= 2)

let test_sccp_through_phi () =
  (* both incoming edges carry the same constant; sccp must see through *)
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        let c = Builder.icmp b Instr.Sgt Types.I64 x (Value.ci64 0) in
        Builder.cbr b c "a" "b";
        Builder.block b "a";
        Builder.br b "join";
        Builder.block b "b";
        Builder.br b "join";
        Builder.block b "join";
        let ph = Builder.phi b Types.I64 [ ("a", Value.ci64 7); ("b", Value.ci64 7) ] in
        let y = Builder.add b Types.I64 ph (Value.ci64 1) in
        Builder.ret b Types.I64 y)
  in
  let m' = run_pass "sccp" m in
  check_same_behaviour "phi const" m m';
  Alcotest.(check int) "add folded away" 0 (count_insns (is_binop Instr.Add) m')

let test_ipsccp_specializes_args () =
  let bh = Builder.create ~name:"addk" ~params:[ Types.I64; Types.I64 ] ~ret:Types.I64 () in
  Builder.block bh "entry";
  let s = Builder.add bh Types.I64 (Builder.param bh 0) (Builder.param bh 1) in
  Builder.ret bh Types.I64 s;
  let addk = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let p = Builder.alloca b Types.I64 1 in
  Builder.store b Types.I64 (Value.ci64 1) p;
  let x = Builder.load b Types.I64 p in
  let r1 = Builder.call b Types.I64 "addk" [ x; Value.ci64 10 ] in
  let r2 = Builder.call b Types.I64 "addk" [ r1; Value.ci64 10 ] in
  Builder.ret b Types.I64 r2;
  let m = Modul.mk ~name:"t" [ addk; Builder.finish b ] in
  let m' = run_pass "ipsccp" m in
  check_same_behaviour "ipsccp" m m'

(* --- dce family --------------------------------------------------------------------- *)

let test_adce_removes_dead_cycle () =
  (* two phis feeding only each other across a loop must die *)
  let m = Testutil.sum_squares_module () in
  let m1 = run_pass "mem2reg" m in
  let m' = run_pass "adce" m1 in
  check_same_behaviour "adce" m m'

let test_adce_keeps_stores () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 3) p;
        let x = Builder.load b Types.I64 p in
        Builder.ret b Types.I64 x)
  in
  let m' = run_pass "adce" m in
  check_same_behaviour "adce stores" m m';
  Alcotest.(check int) "store kept" 1 (count_insns is_store m')

let test_bdce_masked_bits () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 0xAB) p;
        let x = Builder.load b Types.I64 p in
        (* high bits of the shl are masked off entirely *)
        let hi = Builder.shl b Types.I64 x (Value.ci64 32) in
        let masked = Builder.and_ b Types.I64 hi (Value.ci64 0xFF) in
        let r = Builder.or_ b Types.I64 masked x in
        Builder.ret b Types.I64 r)
  in
  let m' = run_pass "bdce" m in
  check_same_behaviour "bdce" m m'

(* --- dse -------------------------------------------------------------------------------- *)

let test_dse_overwritten_store () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        Builder.store b Types.I64 (Value.ci64 2) p;
        let x = Builder.load b Types.I64 p in
        Builder.ret b Types.I64 x)
  in
  let m' = run_pass "dse" m in
  check_same_behaviour "dse overwrite" m m';
  Alcotest.(check int) "one store" 1 (count_insns is_store m')

let test_dse_never_read () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        Builder.ret b Types.I64 (Value.ci64 0))
  in
  let m' = run_pass "dse" m in
  Alcotest.(check int) "store removed" 0 (count_insns is_store m')

let test_dse_respects_intervening_load () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        Builder.store b Types.I64 (Value.ci64 2) p;
        let y = Builder.load b Types.I64 p in
        let s = Builder.add b Types.I64 x y in
        Builder.ret b Types.I64 s)
  in
  let m' = run_pass "dse" m in
  check_same_behaviour "intervening load" m m';
  Alcotest.(check string) "3" "3" (ret_of m')

(* --- mem2reg / sroa --------------------------------------------------------------------- *)

let test_mem2reg_promotes () =
  let m = Testutil.sum_squares_module () in
  let m' = run_pass "mem2reg" m in
  check_same_behaviour "mem2reg" m m';
  Alcotest.(check int) "no allocas" 0 (count_insns is_alloca m');
  Alcotest.(check bool) "phis inserted" true (count_insns is_phi m' > 0)

let test_mem2reg_skips_escaping () =
  let bh = Builder.create ~name:"writer" ~params:[ Types.Ptr ] ~ret:Types.Void () in
  Builder.block bh "entry";
  Builder.store bh Types.I64 (Value.ci64 99) (Builder.param bh 0);
  Builder.ret_void bh;
  let writer = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let p = Builder.alloca b Types.I64 1 in
  Builder.store b Types.I64 (Value.ci64 1) p;
  let _ = Builder.call b Types.Void "writer" [ p ] in
  let x = Builder.load b Types.I64 p in
  Builder.ret b Types.I64 x;
  let m = Modul.mk ~name:"t" [ writer; Builder.finish b ] in
  let m' = run_pass "mem2reg" m in
  check_same_behaviour "escape respected" m m';
  Alcotest.(check string) "99" "99" (ret_of m');
  Alcotest.(check int) "alloca kept" 1 (count_insns is_alloca m')

let test_sroa_splits_and_promotes () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let a = Builder.alloca b Types.I64 4 in
        let p0 = Builder.gep b Types.I64 a (Value.ci64 0) in
        let p1 = Builder.gep b Types.I64 a (Value.ci64 1) in
        Builder.store b Types.I64 (Value.ci64 10) p0;
        Builder.store b Types.I64 (Value.ci64 20) p1;
        let x = Builder.load b Types.I64 p0 in
        let y = Builder.load b Types.I64 p1 in
        let s = Builder.add b Types.I64 x y in
        Builder.ret b Types.I64 s)
  in
  let m' = run_pass "sroa" m in
  check_same_behaviour "sroa" m m';
  Alcotest.(check string) "30" "30" (ret_of m');
  Alcotest.(check int) "allocas promoted away" 0 (count_insns is_alloca m')

let test_sroa_skips_variable_index () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let a = Builder.alloca b Types.I64 4 in
        let ip = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 2) ip;
        let iv = Builder.load b Types.I64 ip in
        let p = Builder.gep b Types.I64 a iv in
        Builder.store b Types.I64 (Value.ci64 5) p;
        let x = Builder.load b Types.I64 p in
        Builder.ret b Types.I64 x)
  in
  let m' = run_pass "sroa" m in
  check_same_behaviour "variable index respected" m m'

(* --- jump-threading / correlated-propagation ---------------------------------------------- *)

let test_jump_threading () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        let c = Builder.icmp b Instr.Sgt Types.I64 x (Value.ci64 0) in
        Builder.cbr b c "a" "b";
        Builder.block b "a";
        Builder.br b "hub";
        Builder.block b "b";
        Builder.br b "hub";
        Builder.block b "hub";
        let ph = Builder.phi b Types.I1 [ ("a", Value.ci1 true); ("b", Value.ci1 false) ] in
        Builder.cbr b ph "t" "f";
        Builder.block b "t";
        Builder.ret b Types.I64 (Value.ci64 100);
        Builder.block b "f";
        Builder.ret b Types.I64 (Value.ci64 200))
  in
  let m' = run_pass "jump-threading" m in
  check_same_behaviour "jump threading" m m'

let test_correlated_propagation () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 5) p;
        let x = Builder.load b Types.I64 p in
        let c = Builder.icmp b Instr.Eq Types.I64 x (Value.ci64 5) in
        Builder.cbr b c "t" "f";
        Builder.block b "t";
        (* inside the true arm x is 5 *)
        let y = Builder.add b Types.I64 x (Value.ci64 1) in
        Builder.ret b Types.I64 y;
        Builder.block b "f";
        Builder.ret b Types.I64 (Value.ci64 0))
  in
  let m' = run_pass "correlated-propagation" m in
  check_same_behaviour "correlated" m m';
  Alcotest.(check string) "6" "6" (ret_of m')

(* --- tailcallelim ---------------------------------------------------------------------------- *)

let test_tailcallelim () =
  (* sum(n) = n <= 0 ? 0 : sum2(n-1, acc+n) — classic accumulating tail call *)
  let bh = Builder.create ~name:"sum_to" ~params:[ Types.I64; Types.I64 ] ~ret:Types.I64 () in
  Builder.block bh "entry";
  let n = Builder.param bh 0 and acc = Builder.param bh 1 in
  let c = Builder.icmp bh Instr.Sle Types.I64 n (Value.ci64 0) in
  Builder.cbr bh c "base" "rec";
  Builder.block bh "base";
  Builder.ret bh Types.I64 acc;
  Builder.block bh "rec";
  let n1 = Builder.sub bh Types.I64 n (Value.ci64 1) in
  let a1 = Builder.add bh Types.I64 acc n in
  let r = Builder.call bh Types.I64 "sum_to" [ n1; a1 ] in
  Builder.ret bh Types.I64 r;
  let sum_to = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let r = Builder.call b Types.I64 "sum_to" [ Value.ci64 100; Value.ci64 0 ] in
  Builder.ret b Types.I64 r;
  let m = Modul.mk ~name:"t" [ sum_to; Builder.finish b ] in
  let m' = run_pass "tailcallelim" m in
  check_same_behaviour "tailcall" m m';
  Alcotest.(check string) "5050" "5050" (ret_of m');
  (* the self-call is gone *)
  let self_calls =
    count_insns (fun op -> match op with Instr.Call (_, "sum_to", _) -> true | _ -> false) m'
    - 1 (* main's call remains *)
  in
  Alcotest.(check int) "recursion removed" 0 self_calls

(* --- reassociate ------------------------------------------------------------------------------- *)

let test_reassociate_constant_meeting () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 5) p;
        let x = Builder.load b Types.I64 p in
        (* ((x + 1) + x) + 2 : constants should meet and fold *)
        let a = Builder.add b Types.I64 x (Value.ci64 1) in
        let bq = Builder.add b Types.I64 a x in
        let cq = Builder.add b Types.I64 bq (Value.ci64 2) in
        Builder.ret b Types.I64 cq)
  in
  let m' = run_pass "reassociate" m in
  check_same_behaviour "reassociate" m m';
  Alcotest.(check string) "13" "13" (ret_of m')

(* --- div-rem-pairs ------------------------------------------------------------------------------ *)

let test_div_rem_pairs () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 17) p;
        let x = Builder.load b Types.I64 p in
        let q = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 5) q;
        let y = Builder.load b Types.I64 q in
        let d = Builder.sdiv b Types.I64 x y in
        let r = Builder.srem b Types.I64 x y in
        let s = Builder.add b Types.I64 d r in
        Builder.ret b Types.I64 s)
  in
  let m' = run_pass "div-rem-pairs" m in
  check_same_behaviour "div-rem" m m';
  Alcotest.(check int) "one division" 1
    (count_insns (fun op -> is_binop Instr.Sdiv op || is_binop Instr.Srem op) m');
  Alcotest.(check string) "5" "5" (ret_of m')

(* --- lower-expect / lower-constant-intrinsics --------------------------------------------------- *)

let test_lower_expect () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        let e = Builder.expect b Types.I64 x (Value.ci64 1) in
        Builder.ret b Types.I64 e)
  in
  let m' = run_pass "lower-expect" m in
  check_same_behaviour "lower-expect" m m';
  Alcotest.(check int) "expects gone" 0
    (count_insns (fun op -> match op with Instr.Expect _ -> true | _ -> false) m');
  Alcotest.(check bool) "branch-hints attr" true
    (Func.has_attr "branch-hints" (main_func m'))

(* An expect of an expect: the outer one's uses must reach the first
   operand, not the inner expect it was lowered away from. *)
let test_lower_expect_nested () =
  check_ssa_clean "lower-expect"
    "module nested\n\nfunc @main(): i64 {\nentry:\n  %1 = add i64 40, 2\n\
     %2 = expect i64 %1, 1\n  %3 = expect i64 %2, 1\n  ret i64 %3\n}\n"

let test_lower_constant_intrinsics () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let isc = Builder.intrinsic b "is.constant" Types.I1 [ Value.ci64 5 ] in
        let z = Builder.zext b ~from_ty:Types.I1 ~to_ty:Types.I64 isc in
        Builder.ret b Types.I64 z)
  in
  let m' = run_pass "lower-constant-intrinsics" m in
  Alcotest.(check string) "is.constant(5)=1" "1" (ret_of m')

(* --- float2int ----------------------------------------------------------------------------------- *)

let test_float2int () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 6) p;
        let x = Builder.load b Types.I64 p in
        let fx = Builder.cast b Instr.Sitofp ~from_ty:Types.I64 ~to_ty:Types.F64 x in
        let fy = Builder.cast b Instr.Sitofp ~from_ty:Types.I64 ~to_ty:Types.F64 (Value.ci64 7) in
        let fs = Builder.fmul b fx fy in
        let r = Builder.cast b Instr.Fptosi ~from_ty:Types.F64 ~to_ty:Types.I64 fs in
        Builder.ret b Types.I64 r)
  in
  let m' = run_pass "float2int" m in
  check_same_behaviour "float2int" m m';
  Alcotest.(check string) "42" "42" (ret_of m');
  Alcotest.(check int) "no fmul left" 0 (count_insns (is_binop Instr.Fmul) m')

(* --- speculative-execution / simplifycfg if-conversion -------------------------------------------- *)

let test_simplifycfg_if_conversion () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 4) p;
        let x = Builder.load b Types.I64 p in
        let c = Builder.icmp b Instr.Sgt Types.I64 x (Value.ci64 0) in
        Builder.cbr b c "t" "f";
        Builder.block b "t";
        Builder.br b "join";
        Builder.block b "f";
        Builder.br b "join";
        Builder.block b "join";
        let ph = Builder.phi b Types.I64 [ ("t", Value.ci64 1); ("f", Value.ci64 2) ] in
        Builder.ret b Types.I64 ph)
  in
  let m' = run_pass "simplifycfg" m in
  check_same_behaviour "if-convert" m m';
  Alcotest.(check int) "single block" 1 (count_blocks m');
  Alcotest.(check bool) "select or folded" true
    (count_insns is_select m' <= 1)

let test_simplifycfg_folds_constant_branch () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        Builder.cbr b (Value.ci1 true) "t" "f";
        Builder.block b "t";
        Builder.ret b Types.I64 (Value.ci64 1);
        Builder.block b "f";
        Builder.ret b Types.I64 (Value.ci64 2))
  in
  let m' = run_pass "simplifycfg" m in
  Alcotest.(check string) "1" "1" (ret_of m');
  Alcotest.(check int) "one block" 1 (count_blocks m')

let test_speculative_execution_hoists () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 3) p;
        let x = Builder.load b Types.I64 p in
        let c = Builder.icmp b Instr.Sgt Types.I64 x (Value.ci64 0) in
        Builder.cbr b c "t" "f";
        Builder.block b "t";
        let a = Builder.add b Types.I64 x (Value.ci64 1) in
        Builder.ret b Types.I64 a;
        Builder.block b "f";
        let d = Builder.sub b Types.I64 x (Value.ci64 1) in
        Builder.ret b Types.I64 d)
  in
  let m' = run_pass "speculative-execution" m in
  check_same_behaviour "speculation" m m'

(* --- memcpyopt / mldst-motion ----------------------------------------------------------------------- *)

let test_memcpyopt_expands_small () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let src = Builder.alloca b Types.I64 2 in
        let dst = Builder.alloca b Types.I64 2 in
        Builder.store b Types.I64 (Value.ci64 7) src;
        let s1 = Builder.gep b Types.I64 src (Value.ci64 1) in
        Builder.store b Types.I64 (Value.ci64 8) s1;
        Builder.memcpy b dst src (Value.ci64 16);
        let x = Builder.load b Types.I64 dst in
        let d1 = Builder.gep b Types.I64 dst (Value.ci64 1) in
        let y = Builder.load b Types.I64 d1 in
        let r = Builder.add b Types.I64 x y in
        Builder.ret b Types.I64 r)
  in
  let m' = run_pass "memcpyopt" m in
  check_same_behaviour "memcpy expand" m m';
  Alcotest.(check string) "15" "15" (ret_of m');
  Alcotest.(check int) "no memcpy" 0
    (count_insns (fun op -> match op with Instr.Memcpy _ -> true | _ -> false) m')

let test_mldst_motion_sinks_stores () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        let q = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 2) q;
        let x = Builder.load b Types.I64 q in
        let c = Builder.icmp b Instr.Sgt Types.I64 x (Value.ci64 0) in
        Builder.cbr b c "t" "f";
        Builder.block b "t";
        Builder.store b Types.I64 (Value.ci64 1) p;
        Builder.br b "join";
        Builder.block b "f";
        Builder.store b Types.I64 (Value.ci64 9) p;
        Builder.br b "join";
        Builder.block b "join";
        let r = Builder.load b Types.I64 p in
        Builder.ret b Types.I64 r)
  in
  let m' = run_pass "mldst-motion" m in
  check_same_behaviour "mldst" m m';
  Alcotest.(check int) "stores merged" 2 (count_insns is_store m')

(* --- signed zeros ----------------------------------------------------------- *)

(* probe(-0.0) prints x + -0.0, x + 0.0, x - 0.0, x - -0.0 and x * 0.0,
   which are -0, 0, -0, 0 and -0: merging or folding float constants by
   value rather than by bit pattern flips a sign. *)
let test_signed_zeros_survive () =
  let bp = Builder.create ~name:"probe" ~params:[ Types.F64 ] ~ret:Types.I64 () in
  Builder.block bp "entry";
  let x = Builder.param bp 0 in
  List.iter
    (fun (op, z) ->
      let r = Builder.binop bp op Types.F64 x (Value.cfloat z) in
      ignore (Builder.call bp Types.I64 "print_f64" [ r ]))
    [ (Instr.Fadd, -0.0); (Instr.Fadd, 0.0); (Instr.Fsub, 0.0);
      (Instr.Fsub, -0.0); (Instr.Fmul, 0.0) ];
  Builder.ret bp Types.I64 (Value.ci64 0);
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let r = Builder.call b Types.I64 "probe" [ Value.cfloat (-0.0) ] in
  Builder.ret b Types.I64 r;
  let print_f64 = Func.declare ~name:"print_f64" ~params:[ Types.F64 ] ~ret:Types.I64 () in
  let m = Modul.mk ~name:"signed_zero" [ print_f64; Builder.finish bp; Builder.finish b ] in
  Alcotest.(check bool) "reference output" true
    (observe m = Ok ("0", "-0.000000\n0.000000\n-0.000000\n0.000000\n-0.000000\n"));
  List.iter
    (fun name -> check_same_behaviour name m (run_pass name m))
    [ "early-cse"; "early-cse-memssa"; "gvn"; "instcombine" ]

let suite =
  [ Alcotest.test_case "instcombine add zero" `Quick test_instcombine_add_zero;
    Alcotest.test_case "instcombine mul pow2" `Quick test_instcombine_mul_pow2;
    Alcotest.test_case "instcombine const chain" `Quick test_instcombine_constant_chain;
    Alcotest.test_case "instcombine x-x" `Quick test_instcombine_sub_self;
    Alcotest.test_case "instcombine folds constants" `Quick test_instcombine_folds_constants;
    Alcotest.test_case "instcombine urem pow2" `Quick test_instcombine_urem_pow2;
    Alcotest.test_case "instsimplify folds" `Quick test_instsimplify_folds;
    Alcotest.test_case "early-cse dedups" `Quick test_early_cse_dedups;
    Alcotest.test_case "early-cse store-load" `Quick test_early_cse_store_load_forward;
    Alcotest.test_case "early-cse-memssa clobber" `Quick test_early_cse_memssa_not_across_store;
    Alcotest.test_case "gvn commutative" `Quick test_gvn_commutative;
    Alcotest.test_case "gvn across blocks" `Quick test_gvn_across_blocks;
    Alcotest.test_case "sccp folds branch" `Quick test_sccp_folds_branch;
    Alcotest.test_case "sccp through phi" `Quick test_sccp_through_phi;
    Alcotest.test_case "ipsccp specializes" `Quick test_ipsccp_specializes_args;
    Alcotest.test_case "adce dead cycle" `Quick test_adce_removes_dead_cycle;
    Alcotest.test_case "adce keeps stores" `Quick test_adce_keeps_stores;
    Alcotest.test_case "bdce masked bits" `Quick test_bdce_masked_bits;
    Alcotest.test_case "dse overwritten store" `Quick test_dse_overwritten_store;
    Alcotest.test_case "dse never read" `Quick test_dse_never_read;
    Alcotest.test_case "dse intervening load" `Quick test_dse_respects_intervening_load;
    Alcotest.test_case "mem2reg promotes" `Quick test_mem2reg_promotes;
    Alcotest.test_case "mem2reg skips escaping" `Quick test_mem2reg_skips_escaping;
    Alcotest.test_case "sroa splits+promotes" `Quick test_sroa_splits_and_promotes;
    Alcotest.test_case "sroa variable index" `Quick test_sroa_skips_variable_index;
    Alcotest.test_case "jump threading" `Quick test_jump_threading;
    Alcotest.test_case "correlated propagation" `Quick test_correlated_propagation;
    Alcotest.test_case "tailcallelim" `Quick test_tailcallelim;
    Alcotest.test_case "reassociate" `Quick test_reassociate_constant_meeting;
    Alcotest.test_case "div-rem-pairs" `Quick test_div_rem_pairs;
    Alcotest.test_case "lower-expect" `Quick test_lower_expect;
    Alcotest.test_case "lower-expect of an expect" `Quick test_lower_expect_nested;
    Alcotest.test_case "lower-constant-intrinsics" `Quick test_lower_constant_intrinsics;
    Alcotest.test_case "float2int" `Quick test_float2int;
    Alcotest.test_case "simplifycfg if-conversion" `Quick test_simplifycfg_if_conversion;
    Alcotest.test_case "simplifycfg constant branch" `Quick test_simplifycfg_folds_constant_branch;
    Alcotest.test_case "speculative execution" `Quick test_speculative_execution_hoists;
    Alcotest.test_case "memcpyopt expands" `Quick test_memcpyopt_expands_small;
    Alcotest.test_case "mldst-motion" `Quick test_mldst_motion_sinks_stores;
    Alcotest.test_case "signed zeros survive cse, gvn, instcombine" `Quick
      test_signed_zeros_survive ]
