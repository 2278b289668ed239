(* Unit tests for interprocedural and attribute passes. *)

open Posetrl_ir
open Testutil

let is_call g = function Instr.Call (_, g', _) -> g = g' | _ -> false

(* --- inline -------------------------------------------------------------- *)

let test_inline_small_callee () =
  let m = sum_squares_module () in
  let cfg = { Posetrl_passes.Config.oz with Posetrl_passes.Config.inline_threshold = 100 } in
  let m' = run_pass_cfg "inline" cfg m in
  check_same_behaviour "inline" m m';
  Alcotest.(check int) "call gone" 0 (count_insns (is_call "square") m')

let test_inline_respects_threshold () =
  let m = sum_squares_module () in
  let cfg = { Posetrl_passes.Config.oz with Posetrl_passes.Config.inline_threshold = 1 } in
  let m' = run_pass_cfg "inline" cfg m in
  Alcotest.(check int) "call kept" 1 (count_insns (is_call "square") m')

let test_inline_respects_noinline () =
  let m = sum_squares_module () in
  let m =
    Modul.map_funcs
      (fun f ->
        if f.Func.name = "square" then Func.add_attr Attrs.noinline f else f)
      m
  in
  let cfg = { Posetrl_passes.Config.oz with Posetrl_passes.Config.inline_threshold = 1000 } in
  let m' = run_pass_cfg "inline" cfg m in
  Alcotest.(check int) "noinline kept" 1 (count_insns (is_call "square") m')

let test_inline_always_inline () =
  let m = sum_squares_module () in
  let m =
    Modul.map_funcs
      (fun f ->
        if f.Func.name = "square" then Func.add_attr Attrs.always_inline f else f)
      m
  in
  let cfg = { Posetrl_passes.Config.oz with Posetrl_passes.Config.inline_threshold = 0 } in
  (* threshold 0 disables the pass entirely in our model, so use 1 *)
  let cfg = { cfg with Posetrl_passes.Config.inline_threshold = 1 } in
  let m' = run_pass_cfg "inline" cfg m in
  check_same_behaviour "alwaysinline" m m';
  Alcotest.(check int) "inlined" 0 (count_insns (is_call "square") m')

let test_inline_recursive_not_inlined_into_self () =
  let bh = Builder.create ~name:"fact" ~params:[ Types.I64 ] ~ret:Types.I64 () in
  Builder.block bh "entry";
  let n = Builder.param bh 0 in
  let c = Builder.icmp bh Instr.Sle Types.I64 n (Value.ci64 1) in
  Builder.cbr bh c "base" "rec";
  Builder.block bh "base";
  Builder.ret bh Types.I64 (Value.ci64 1);
  Builder.block bh "rec";
  let n1 = Builder.sub bh Types.I64 n (Value.ci64 1) in
  let r = Builder.call bh Types.I64 "fact" [ n1 ] in
  let p = Builder.mul bh Types.I64 n r in
  Builder.ret bh Types.I64 p;
  let fact = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let r = Builder.call b Types.I64 "fact" [ Value.ci64 10 ] in
  Builder.ret b Types.I64 r;
  let m = Modul.mk ~name:"t" [ fact; Builder.finish b ] in
  let cfg = { Posetrl_passes.Config.oz with Posetrl_passes.Config.inline_threshold = 1000 } in
  let m' = run_pass_cfg "inline" cfg m in
  check_same_behaviour "recursion" m m';
  Alcotest.(check string) "3628800" "3628800" (ret_of m')

let test_inline_void_callee () =
  let gl = Global.mk ~linkage:Global.Internal ~init:Global.Zeroinit "cell" Types.I64 1 in
  let bh = Builder.create ~name:"poke" ~params:[ Types.I64 ] ~ret:Types.Void () in
  Builder.block bh "entry";
  Builder.store bh Types.I64 (Builder.param bh 0) (Value.global "cell");
  Builder.ret_void bh;
  let poke = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let _ = Builder.call b Types.Void "poke" [ Value.ci64 123 ] in
  let x = Builder.load b Types.I64 (Value.global "cell") in
  Builder.ret b Types.I64 x;
  let m = Modul.mk ~name:"t" ~globals:[ gl ] [ poke; Builder.finish b ] in
  let cfg = { Posetrl_passes.Config.oz with Posetrl_passes.Config.inline_threshold = 100 } in
  let m' = run_pass_cfg "inline" cfg m in
  check_same_behaviour "void inline" m m';
  Alcotest.(check string) "123" "123" (ret_of m')

(* --- globaldce ------------------------------------------------------------- *)

let test_globaldce_removes_unused () =
  let bh = Builder.create ~name:"unused" ~params:[] ~ret:Types.I64 () in
  Builder.block bh "entry";
  Builder.ret bh Types.I64 (Value.ci64 0);
  let unused = Builder.finish bh in
  let gl = Global.mk ~linkage:Global.Internal ~init:Global.Zeroinit "unused_g" Types.I64 4 in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  Builder.ret b Types.I64 (Value.ci64 1);
  let m = Modul.mk ~name:"t" ~globals:[ gl ] [ unused; Builder.finish b ] in
  let m' = run_pass "globaldce" m in
  Alcotest.(check int) "function removed" 1 (List.length m'.Modul.funcs);
  Alcotest.(check int) "global removed" 0 (List.length m'.Modul.globals)

let test_globaldce_keeps_reachable () =
  let m = sum_squares_module () in
  let m' = run_pass "globaldce" m in
  Alcotest.(check int) "both kept" 2 (List.length m'.Modul.funcs);
  check_same_behaviour "globaldce" m m'

(* --- deadargelim ------------------------------------------------------------- *)

let test_deadargelim () =
  let bh = Builder.create ~name:"f" ~params:[ Types.I64; Types.I64 ] ~ret:Types.I64 () in
  Builder.block bh "entry";
  (* second parameter unused *)
  let x = Builder.param bh 0 in
  let r = Builder.add bh Types.I64 x (Value.ci64 1) in
  Builder.ret bh Types.I64 r;
  let f = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let r = Builder.call b Types.I64 "f" [ Value.ci64 4; Value.ci64 999 ] in
  Builder.ret b Types.I64 r;
  let m = Modul.mk ~name:"t" [ f; Builder.finish b ] in
  let m' = run_pass "deadargelim" m in
  check_same_behaviour "deadargelim" m m';
  let f' = Modul.find_func_exn m' "f" in
  Alcotest.(check int) "one param" 1 (List.length f'.Func.params)

(* --- constmerge ------------------------------------------------------------------ *)

let test_constmerge () =
  let g1 =
    Global.mk ~is_const:true ~linkage:Global.Internal
      ~init:(Global.Ints [| 1L; 2L |]) "c1" Types.I64 2
  in
  let g2 =
    Global.mk ~is_const:true ~linkage:Global.Internal
      ~init:(Global.Ints [| 1L; 2L |]) "c2" Types.I64 2
  in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let x = Builder.load b Types.I64 (Value.global "c1") in
  let p = Builder.gep b Types.I64 (Value.global "c2") (Value.ci64 1) in
  let y = Builder.load b Types.I64 p in
  let s = Builder.add b Types.I64 x y in
  Builder.ret b Types.I64 s;
  let m = Modul.mk ~name:"t" ~globals:[ g1; g2 ] [ Builder.finish b ] in
  let m' = run_pass "constmerge" m in
  check_same_behaviour "constmerge" m m';
  Alcotest.(check int) "merged to one" 1 (List.length m'.Modul.globals);
  Alcotest.(check string) "3" "3" (ret_of m')

(* --- globalopt --------------------------------------------------------------------- *)

let test_globalopt_constantizes () =
  let g = Global.mk ~linkage:Global.Internal ~init:(Global.Ints [| 41L |]) "k" Types.I64 1 in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let x = Builder.load b Types.I64 (Value.global "k") in
  let r = Builder.add b Types.I64 x (Value.ci64 1) in
  Builder.ret b Types.I64 r;
  let m = Modul.mk ~name:"t" ~globals:[ g ] [ Builder.finish b ] in
  let m' = run_pass "globalopt" m in
  check_same_behaviour "globalopt" m m';
  Alcotest.(check string) "42" "42" (ret_of m');
  Alcotest.(check int) "load folded" 0
    (count_insns (fun op -> match op with Instr.Load _ -> true | _ -> false) m')

let test_globalopt_drops_writeonly_stores () =
  let g = Global.mk ~linkage:Global.Internal ~init:Global.Zeroinit "sinkhole" Types.I64 1 in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  Builder.store b Types.I64 (Value.ci64 5) (Value.global "sinkhole");
  Builder.ret b Types.I64 (Value.ci64 0);
  let m = Modul.mk ~name:"t" ~globals:[ g ] [ Builder.finish b ] in
  let m' = run_pass "globalopt" m in
  Alcotest.(check int) "store dropped" 0
    (count_insns (fun op -> match op with Instr.Store _ -> true | _ -> false) m')

(* --- called-value-propagation -------------------------------------------------------- *)

let test_cvp_devirtualizes () =
  let bh = Builder.create ~name:"target" ~params:[ Types.I64 ] ~ret:Types.I64 () in
  Builder.block bh "entry";
  let r = Builder.mul bh Types.I64 (Builder.param bh 0) (Value.ci64 2) in
  Builder.ret bh Types.I64 r;
  let target = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let r = Builder.callind b Types.I64 (Value.global "target") [ Value.ci64 21 ] in
  Builder.ret b Types.I64 r;
  let m = Modul.mk ~name:"t" [ target; Builder.finish b ] in
  let m' = run_pass "called-value-propagation" m in
  check_same_behaviour "cvp" m m';
  Alcotest.(check string) "42" "42" (ret_of m');
  Alcotest.(check int) "now direct" 1 (count_insns (is_call "target") m');
  Alcotest.(check int) "no indirect" 0
    (count_insns (fun op -> match op with Instr.Callind _ -> true | _ -> false) m')

(* --- strip-dead-prototypes ------------------------------------------------------------- *)

let test_strip_dead_prototypes () =
  let decl = Func.declare ~name:"never_called" ~params:[ Types.I64 ] ~ret:Types.I64 () in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  Builder.ret b Types.I64 (Value.ci64 0);
  let m = Modul.mk ~name:"t" [ decl; Builder.finish b ] in
  let m' = run_pass "strip-dead-prototypes" m in
  Alcotest.(check int) "prototype stripped" 1 (List.length m'.Modul.funcs)

(* --- functionattrs / attributor ---------------------------------------------------------- *)

let test_functionattrs_readnone () =
  let m = sum_squares_module () in
  let m' = run_pass "functionattrs" m in
  let sq = Modul.find_func_exn m' "square" in
  Alcotest.(check bool) "square readnone" true (Func.has_attr Attrs.readnone sq);
  Alcotest.(check bool) "square norecurse" true (Func.has_attr Attrs.norecurse sq)

let test_functionattrs_readonly_propagates () =
  (* a function that only loads is readonly; its caller (that also only
     loads and calls it) becomes readonly too *)
  let g = Global.mk ~linkage:Global.Internal ~init:(Global.Ints [| 7L |]) "k" Types.I64 1 in
  let bh = Builder.create ~name:"reader" ~params:[] ~ret:Types.I64 () in
  Builder.block bh "entry";
  let x = Builder.load bh Types.I64 (Value.global "k") in
  Builder.ret bh Types.I64 x;
  let reader = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let r = Builder.call b Types.I64 "reader" [] in
  Builder.ret b Types.I64 r;
  let m = Modul.mk ~name:"t" ~globals:[ g ] [ reader; Builder.finish b ] in
  let m' = run_pass "functionattrs" m in
  Alcotest.(check bool) "reader readonly" true
    (Func.has_attr Attrs.readonly (Modul.find_func_exn m' "reader"));
  Alcotest.(check bool) "main readonly" true
    (Func.has_attr Attrs.readonly (Modul.find_func_exn m' "main"))

let test_attributor_willreturn () =
  (* willreturn needs a recognizable counted loop: promote to SSA first *)
  let m = sum_squares_module () |> run_pass "mem2reg" in
  let m' = run_pass "attributor" m in
  Alcotest.(check bool) "main willreturn" true
    (Func.has_attr Attrs.willreturn (Modul.find_func_exn m' "main"))

let test_forceattrs_sets_size_attrs () =
  let m = sum_squares_module () in
  let m' = run_pass_cfg "forceattrs" Posetrl_passes.Config.oz m in
  Alcotest.(check bool) "minsize" true
    (Func.has_attr Attrs.minsize (Modul.find_func_exn m' "main"));
  let m2 = run_pass_cfg "forceattrs" Posetrl_passes.Config.o3 m in
  Alcotest.(check bool) "no minsize at O3" false
    (Func.has_attr Attrs.minsize (Modul.find_func_exn m2 "main"))

let test_inferattrs_library_decls () =
  let decl = Func.declare ~name:"sqrt" ~params:[ Types.F64 ] ~ret:Types.F64 () in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let r = Builder.call b Types.F64 "sqrt" [ Value.cfloat 4.0 ] in
  let i = Builder.cast b Instr.Fptosi ~from_ty:Types.F64 ~to_ty:Types.I64 r in
  Builder.ret b Types.I64 i;
  let m = Modul.mk ~name:"t" [ decl; Builder.finish b ] in
  let m' = run_pass "inferattrs" m in
  Alcotest.(check bool) "sqrt readnone" true
    (Func.has_attr Attrs.readnone (Modul.find_func_exn m' "sqrt"));
  Alcotest.(check string) "runs" "2" (ret_of m')

let test_prune_eh_nounwind () =
  let m = sum_squares_module () in
  let m' = run_pass "prune-eh" m in
  Alcotest.(check bool) "nounwind" true
    (Func.has_attr Attrs.nounwind (Modul.find_func_exn m' "main"))

(* @f passes itself to an indirect call and is called directly with a
   constant: its address is taken, so ipsccp must not specialize its
   parameters on that call's arguments, or the indirect call, which
   passes 2, would take the specialized branch again and never return *)
let self_passing_src =
  "module t\n\ninternal func @f(%0: i64, %1: ptr): i64 {\nentry:\n\
   \  %2 = icmp eq i64 %0, 1\n  cbr %2, again, done\nagain:\n\
   \  %3 = callind i64 %1(2, %1)\n  %4 = add i64 %3, 100\n  ret i64 %4\n\
   done:\n  ret i64 %0\n}\n\nfunc @main(): i64 {\nentry:\n\
   \  %0 = call i64 @f(1, @f)\n  ret i64 %0\n}\n"

let test_ipsccp_address_taken_self () =
  let m = Parser.parse_module self_passing_src in
  Alcotest.(check string) "returns before" "102" (ret_of m);
  let m' =
    Posetrl_passes.Pass_manager.run ~sanitize:Posetrl_analysis.Sanitize.Equiv
      Posetrl_passes.Config.oz [ "ipsccp" ] m
  in
  Alcotest.(check string) "returns after" "102" (ret_of m')

let test_barrier_identity () =
  let m = sum_squares_module () in
  let m' = run_pass "barrier" m in
  Alcotest.(check string) "identical print" (Printer.module_to_string m)
    (Printer.module_to_string m')

let suite =
  [ Alcotest.test_case "inline small callee" `Quick test_inline_small_callee;
    Alcotest.test_case "inline threshold" `Quick test_inline_respects_threshold;
    Alcotest.test_case "inline noinline" `Quick test_inline_respects_noinline;
    Alcotest.test_case "inline alwaysinline" `Quick test_inline_always_inline;
    Alcotest.test_case "inline recursion" `Quick test_inline_recursive_not_inlined_into_self;
    Alcotest.test_case "inline void callee" `Quick test_inline_void_callee;
    Alcotest.test_case "globaldce removes unused" `Quick test_globaldce_removes_unused;
    Alcotest.test_case "globaldce keeps reachable" `Quick test_globaldce_keeps_reachable;
    Alcotest.test_case "deadargelim" `Quick test_deadargelim;
    Alcotest.test_case "constmerge" `Quick test_constmerge;
    Alcotest.test_case "globalopt constantizes" `Quick test_globalopt_constantizes;
    Alcotest.test_case "globalopt write-only" `Quick test_globalopt_drops_writeonly_stores;
    Alcotest.test_case "cvp devirtualizes" `Quick test_cvp_devirtualizes;
    Alcotest.test_case "strip-dead-prototypes" `Quick test_strip_dead_prototypes;
    Alcotest.test_case "functionattrs readnone" `Quick test_functionattrs_readnone;
    Alcotest.test_case "functionattrs readonly" `Quick test_functionattrs_readonly_propagates;
    Alcotest.test_case "attributor willreturn" `Quick test_attributor_willreturn;
    Alcotest.test_case "forceattrs size attrs" `Quick test_forceattrs_sets_size_attrs;
    Alcotest.test_case "inferattrs library" `Quick test_inferattrs_library_decls;
    Alcotest.test_case "prune-eh nounwind" `Quick test_prune_eh_nounwind;
    Alcotest.test_case "ipsccp address-taken self" `Quick test_ipsccp_address_taken_self;
    Alcotest.test_case "barrier identity" `Quick test_barrier_identity ]
