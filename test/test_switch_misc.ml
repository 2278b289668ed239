(* Switch-terminator handling across passes, plus assorted edge cases
   that the main suites don't reach. *)

open Posetrl_ir
open Testutil

let switch_module ?(key = 2) () =
  wrap_main (fun b ->
      Builder.block b "entry";
      let p = Builder.alloca b Types.I64 1 in
      Builder.store b Types.I64 (Value.ci64 key) p;
      let x = Builder.load b Types.I64 p in
      Builder.switch b Types.I64 x [ (0L, "zero"); (1L, "one"); (2L, "two") ] "def";
      Builder.block b "zero";
      Builder.ret b Types.I64 (Value.ci64 100);
      Builder.block b "one";
      Builder.ret b Types.I64 (Value.ci64 200);
      Builder.block b "two";
      Builder.ret b Types.I64 (Value.ci64 300);
      Builder.block b "def";
      Builder.ret b Types.I64 (Value.ci64 999))

let test_switch_through_oz () =
  let m = switch_module () in
  let m' = Posetrl_passes.Pass_manager.run_level ~sanitize:Structural Posetrl_passes.Pipelines.Oz m in
  check_same_behaviour "switch through Oz" m m';
  Alcotest.(check string) "300" "300" (ret_of m')

let test_sccp_folds_switch () =
  let m = switch_module ~key:1 () in
  (* after mem2reg the switch key is the constant 1 *)
  let m' = m |> run_pass "mem2reg" |> run_pass "sccp" in
  Alcotest.(check string) "took case 1" "200" (ret_of m');
  Alcotest.(check bool) "dead cases removed" true (count_blocks m' <= 2)

let test_switch_default_taken () =
  let m = switch_module ~key:42 () in
  Alcotest.(check string) "default" "999" (ret_of m);
  let m' = Posetrl_passes.Pass_manager.run_level ~sanitize:Structural Posetrl_passes.Pipelines.O2 m in
  Alcotest.(check string) "default after O2" "999" (ret_of m')

let test_switch_roundtrip () =
  let m = switch_module () in
  let text = Printer.module_to_string m in
  let m' = Parser.parse_module text in
  Alcotest.(check string) "roundtrip" text (Printer.module_to_string m')

let test_switch_in_loop () =
  (* a state machine driven by a switch inside a loop *)
  let open Posetrl_workloads.Dsl in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let acc = var c Types.I64 (i64 0) in
  let state = var c Types.I64 (i64 0) in
  let i = var c Types.I64 (i64 0) in
  Builder.br b "head";
  Builder.block b "head";
  let iv = get c Types.I64 i in
  let cont = Builder.icmp b Instr.Slt Types.I64 iv (i64 50) in
  Builder.cbr b cont "dispatch" "exit";
  Builder.block b "dispatch";
  let sv = get c Types.I64 state in
  Builder.switch b Types.I64 sv [ (0L, "s0"); (1L, "s1") ] "s2";
  Builder.block b "s0";
  bump c acc (i64 1);
  set c Types.I64 state (i64 1);
  Builder.br b "cont";
  Builder.block b "s1";
  bump c acc (i64 10);
  set c Types.I64 state (i64 2);
  Builder.br b "cont";
  Builder.block b "s2";
  bump c acc (i64 100);
  set c Types.I64 state (i64 0);
  Builder.br b "cont";
  Builder.block b "cont";
  set c Types.I64 i (Builder.add b Types.I64 (get c Types.I64 i) (i64 1));
  Builder.br b "head";
  Builder.block b "exit";
  Builder.ret b Types.I64 (get c Types.I64 acc);
  let m = Modul.mk ~name:"sm" [ Builder.finish b ] in
  Verifier.check m;
  let expect = ret_of m in
  List.iter
    (fun level ->
      let m' = Posetrl_passes.Pass_manager.run_level ~sanitize:Structural level m in
      Alcotest.(check string)
        (Posetrl_passes.Pipelines.level_to_string level ^ " preserves switch loop")
        expect (ret_of m'))
    [ Posetrl_passes.Pipelines.O1; Posetrl_passes.Pipelines.O2;
      Posetrl_passes.Pipelines.O3; Posetrl_passes.Pipelines.Os;
      Posetrl_passes.Pipelines.Oz ]

(* --- printer/parser edges ------------------------------------------------- *)

let test_parser_negative_and_float_literals () =
  let text =
    "module lits\n\
     func @main(): i64 {\n\
     entry:\n\
     \  %0 = add i64 -42, 100\n\
     \  %1 = fadd f64 1.5, -2.25\n\
     \  %2 = fptosi f64 %1 to i64\n\
     \  %3 = add i64 %0, %2\n\
     \  ret i64 %3\n\
     }\n"
  in
  let m = Parser.parse_module text in
  Alcotest.(check string) "58 + trunc(-0.75) = 58" "58" (ret_of m)

let test_parser_vector_type () =
  let text =
    "module v\n\
     func @main(): i64 {\n\
     entry:\n\
     \  %0 = alloca i64 x 4\n\
     \  store i64 9, %0\n\
     \  %1 = load <4 x i64>, %0\n\
     \  %2 = add <4 x i64> %1, %1\n\
     \  store <4 x i64> %2, %0\n\
     \  %3 = load i64, %0\n\
     \  ret i64 %3\n\
     }\n"
  in
  let m = Parser.parse_module text in
  Alcotest.(check string) "vector doubles" "18" (ret_of m)

let test_parser_comments () =
  let text =
    "module c ; a comment\n\
     ; full line comment\n\
     func @main(): i64 {\n\
     entry: ; trailing\n\
     \  ret i64 7\n\
     }\n"
  in
  Alcotest.(check string) "comments skipped" "7" (ret_of (Parser.parse_module text))

let test_printer_special_floats () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.F64 1 in
        Builder.store b Types.F64 (Value.cfloat Float.infinity) p;
        let x = Builder.load b Types.F64 p in
        let c = Builder.fcmp b Instr.Sgt x (Value.cfloat 1e300) in
        let z = Builder.zext b ~from_ty:Types.I1 ~to_ty:Types.I64 c in
        Builder.ret b Types.I64 z)
  in
  let text = Printer.module_to_string m in
  let m' = Parser.parse_module text in
  Alcotest.(check string) "inf survives" (ret_of m) (ret_of m')

(* --- attribute plumbing ----------------------------------------------------- *)

let test_attrs_roundtrip () =
  let m = sum_squares_module () in
  let m =
    Modul.map_funcs (fun f -> Func.add_attr Attrs.inline_hint (Func.add_attr Attrs.cold f)) m
  in
  let text = Printer.module_to_string m in
  let m' = Parser.parse_module text in
  let f = Modul.find_func_exn m' "square" in
  Alcotest.(check bool) "attrs parsed" true
    (Func.has_attr Attrs.inline_hint f && Func.has_attr Attrs.cold f)

(* --- environment/odg cross checks ------------------------------------------- *)

let test_manual_actions_compose_to_oz () =
  (* applying manual actions 1..15 in order = running the Oz pipeline
     (modulo the duplicated barrier, which is a no-op) *)
  let m = Posetrl_workloads.Mibench.crc32 () in
  let via_actions =
    Array.fold_left
      (fun m action ->
        Posetrl_passes.Pass_manager.run Posetrl_passes.Config.oz action m)
      m
      Posetrl_odg.Action_space.manual.Posetrl_odg.Action_space.actions
  in
  let via_oz = Posetrl_passes.Pass_manager.run_level Posetrl_passes.Pipelines.Oz m in
  Alcotest.(check string) "same text" (Printer.module_to_string via_oz)
    (Printer.module_to_string via_actions)

let suite =
  [ Alcotest.test_case "switch through Oz" `Quick test_switch_through_oz;
    Alcotest.test_case "sccp folds switch" `Quick test_sccp_folds_switch;
    Alcotest.test_case "switch default" `Quick test_switch_default_taken;
    Alcotest.test_case "switch roundtrip" `Quick test_switch_roundtrip;
    Alcotest.test_case "switch state machine" `Quick test_switch_in_loop;
    Alcotest.test_case "parser literals" `Quick test_parser_negative_and_float_literals;
    Alcotest.test_case "parser vector type" `Quick test_parser_vector_type;
    Alcotest.test_case "parser comments" `Quick test_parser_comments;
    Alcotest.test_case "printer special floats" `Quick test_printer_special_floats;
    Alcotest.test_case "attrs roundtrip" `Quick test_attrs_roundtrip;
    Alcotest.test_case "manual actions = Oz" `Quick test_manual_actions_compose_to_oz ]
