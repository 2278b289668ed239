(* Tests for the MiniIR core: types, values, instructions, builder,
   verifier, printer/parser round trips, CFG, dominators, loops. *)

open Posetrl_ir

let test_type_sizes () =
  Alcotest.(check int) "i1" 1 (Types.size_bytes Types.I1);
  Alcotest.(check int) "i8" 1 (Types.size_bytes Types.I8);
  Alcotest.(check int) "i32" 4 (Types.size_bytes Types.I32);
  Alcotest.(check int) "i64" 8 (Types.size_bytes Types.I64);
  Alcotest.(check int) "f64" 8 (Types.size_bytes Types.F64);
  Alcotest.(check int) "ptr" 8 (Types.size_bytes Types.Ptr);
  Alcotest.(check int) "vec" 32 (Types.size_bytes (Types.Vec (Types.I64, 4)))

let test_type_wrap () =
  Alcotest.(check int64) "i8 wrap 200" (-56L) (Types.wrap Types.I8 200L);
  Alcotest.(check int64) "i8 wrap -1" (-1L) (Types.wrap Types.I8 (-1L));
  Alcotest.(check int64) "i32 wrap 2^31" (-2147483648L) (Types.wrap Types.I32 2147483648L);
  Alcotest.(check int64) "i1 wrap 3" 1L (Types.wrap Types.I1 3L);
  Alcotest.(check int64) "i64 identity" 123456789L (Types.wrap Types.I64 123456789L)

let test_type_strings () =
  Alcotest.(check string) "vec" "<4 x i32>" (Types.to_string (Types.Vec (Types.I32, 4)));
  Alcotest.(check string) "ptr" "ptr" (Types.to_string Types.Ptr)

let test_value_equal () =
  Alcotest.(check bool) "int eq" true (Value.equal (Value.ci64 5) (Value.ci64 5));
  Alcotest.(check bool) "nan eq nan (bitwise)" true
    (Value.equal (Value.cfloat Float.nan) (Value.cfloat Float.nan));
  Alcotest.(check bool) "reg eq" true (Value.equal (Value.Reg 3) (Value.Reg 3));
  Alcotest.(check bool) "reg ne" false (Value.equal (Value.Reg 3) (Value.Reg 4))

(* Bit-exact module equality: float constants and float initializers by
   bit pattern, attributes as sets whatever order built them. *)
let test_module_equal_bit_exact () =
  let prog ?(attrs = []) ?(init = [| 0.0 |]) z =
    let b = Builder.create ~attrs:(Attrs.of_list attrs) ~name:"main" ~params:[] ~ret:Types.F64 () in
    Builder.block b "entry";
    let r = Builder.fadd b (Value.cfloat 1.0) (Value.cfloat z) in
    Builder.ret b Types.F64 r;
    Modul.mk ~name:"m"
      ~globals:[ Global.mk ~init:(Global.Floats init) "g" Types.F64 1 ]
      [ Builder.finish b ]
  in
  Alcotest.(check bool) "same build" true (Modul.equal (prog 0.0) (prog 0.0));
  Alcotest.(check bool) "sign of a zero operand" false
    (Modul.equal (prog 0.0) (prog (-0.0)));
  Alcotest.(check bool) "sign of a zero initializer" false
    (Modul.equal (prog ~init:[| 0.0 |] 0.0) (prog ~init:[| -0.0 |] 0.0));
  let abc = [ Attrs.nounwind; Attrs.readonly; Attrs.optsize; Attrs.cold ] in
  Alcotest.(check bool) "attribute sets, not their shape" true
    (Modul.equal (prog ~attrs:abc 0.0) (prog ~attrs:(List.rev abc) 0.0))

let test_value_predicates () =
  Alcotest.(check bool) "zero" true (Value.is_zero (Value.ci64 0));
  Alcotest.(check bool) "null is zero" true (Value.is_zero Value.cnull);
  Alcotest.(check bool) "one" true (Value.is_one (Value.ci64 1));
  Alcotest.(check bool) "all ones" true (Value.is_all_ones (Value.cint Types.I64 (-1L)))

let test_instr_operands () =
  let op = Instr.Select (Types.I64, Value.Reg 0, Value.Reg 1, Value.ci64 2) in
  Alcotest.(check int) "select has 3 operands" 3 (List.length (Instr.operands op));
  let mapped = Instr.map_operands (fun _ -> Value.ci64 9) op in
  Alcotest.(check int) "mapped all" 3
    (List.length (List.filter (Value.equal (Value.ci64 9)) (Instr.operands mapped)))

let test_instr_purity () =
  Alcotest.(check bool) "add pure" true
    (Instr.is_pure (Instr.Binop (Instr.Add, Types.I64, Value.Reg 0, Value.Reg 1)));
  Alcotest.(check bool) "div by var impure" false
    (Instr.is_pure (Instr.Binop (Instr.Sdiv, Types.I64, Value.Reg 0, Value.Reg 1)));
  Alcotest.(check bool) "div by const pure" true
    (Instr.is_pure (Instr.Binop (Instr.Sdiv, Types.I64, Value.Reg 0, Value.ci64 3)));
  Alcotest.(check bool) "store impure" false
    (Instr.is_pure (Instr.Store (Types.I64, Value.Reg 0, Value.Reg 1)));
  Alcotest.(check bool) "load reads memory" true
    (Instr.reads_memory (Instr.Load (Types.I64, Value.Reg 0)))

let test_instr_successors () =
  Alcotest.(check (list string)) "cbr" [ "a"; "b" ]
    (Instr.successors (Instr.Cbr (Value.Reg 0, "a", "b")));
  Alcotest.(check (list string)) "cbr same" [ "a" ]
    (Instr.successors (Instr.Cbr (Value.Reg 0, "a", "a")));
  Alcotest.(check (list string)) "switch dedup" [ "a"; "d" ]
    (Instr.successors (Instr.Switch (Types.I64, Value.Reg 0, [ (1L, "a"); (2L, "a") ], "d")))

let test_icmp_helpers () =
  Alcotest.(check bool) "swap slt" true (Instr.swap_icmp Instr.Slt = Instr.Sgt);
  Alcotest.(check bool) "negate sle" true (Instr.negate_icmp Instr.Sle = Instr.Sgt);
  Alcotest.(check bool) "commutative add" true (Instr.is_commutative Instr.Add);
  Alcotest.(check bool) "non-commutative sub" false (Instr.is_commutative Instr.Sub)

let test_builder_basic () =
  let m = Testutil.sum_squares_module () in
  Alcotest.(check (list string)) "no verifier errors" []
    (List.map Verifier.error_to_string (Verifier.verify_module m));
  Alcotest.(check string) "executes" "285" (Testutil.ret_of m)

let test_builder_unterminated () =
  let b = Builder.create ~name:"f" ~params:[] ~ret:Types.Void () in
  Builder.block b "entry";
  Alcotest.(check bool) "finish raises" true
    (try ignore (Builder.finish b); false with Invalid_argument _ -> true)

let test_verifier_catches_undefined_reg () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  Builder.ret b Types.I64 (Value.Reg 99);
  let m = Modul.mk ~name:"bad" [ Builder.finish b ] in
  Alcotest.(check bool) "caught" false (Verifier.is_valid m)

let test_verifier_catches_bad_label () =
  let blk = Block.mk "entry" [] (Instr.Br "nowhere") in
  let f =
    Func.mk ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.Void
      ~blocks:[ blk ] ~next_id:0 ()
  in
  Alcotest.(check bool) "caught" false (Verifier.is_valid (Modul.mk ~name:"bad" [ f ]))

let test_verifier_catches_duplicate_def () =
  let insns =
    [ Instr.mk 0 (Instr.Binop (Instr.Add, Types.I64, Value.ci64 1, Value.ci64 2));
      Instr.mk 0 (Instr.Binop (Instr.Add, Types.I64, Value.ci64 1, Value.ci64 2)) ]
  in
  let blk = Block.mk "entry" insns (Instr.Ret (Some (Types.I64, Value.Reg 0))) in
  let f =
    Func.mk ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64
      ~blocks:[ blk ] ~next_id:2 ()
  in
  Alcotest.(check bool) "caught" false (Verifier.is_valid (Modul.mk ~name:"bad" [ f ]))

let test_verifier_catches_phi_after_insn () =
  let insns =
    [ Instr.mk 0 (Instr.Binop (Instr.Add, Types.I64, Value.ci64 1, Value.ci64 2));
      Instr.mk 1 (Instr.Phi (Types.I64, [])) ]
  in
  let blk = Block.mk "entry" insns (Instr.Ret (Some (Types.I64, Value.Reg 0))) in
  let f =
    Func.mk ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64
      ~blocks:[ blk ] ~next_id:2 ()
  in
  Alcotest.(check bool) "caught" false (Verifier.is_valid (Modul.mk ~name:"bad" [ f ]))

let test_verifier_ret_type () =
  let blk = Block.mk "entry" [] (Instr.Ret None) in
  let f =
    Func.mk ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64
      ~blocks:[ blk ] ~next_id:0 ()
  in
  Alcotest.(check bool) "caught" false (Verifier.is_valid (Modul.mk ~name:"bad" [ f ]));
  (* the annotation matches the function, the returned value does not *)
  let m =
    Parser.parse_module
      "module t\n\nfunc @main(): i64 {\nentry:\n  %0 = alloca i64 x 4\n\
      \  %1 = load <4 x i64>, %0\n  ret i64 %1\n}\n"
  in
  Alcotest.(check (list string)) "mistyped value"
    [ "main/entry: ret type i64 does not match its value's type <4 x i64>" ]
    (List.map Verifier.error_to_string (Verifier.verify_module m));
  (* a returned parameter or constant is checked the same way *)
  let ret_of v =
    let blk = Block.mk "entry" [] (Instr.Ret (Some (Types.I64, v))) in
    let f =
      Func.mk ~linkage:Func.External ~name:"main" ~params:[ (0, Types.F64) ]
        ~ret:Types.I64 ~blocks:[ blk ] ~next_id:1 ()
    in
    Verifier.is_valid (Modul.mk ~name:"t" [ f ])
  in
  Alcotest.(check (list bool)) "parameter, constant" [ false; false; true ]
    [ ret_of (Value.Reg 0); ret_of (Value.cfloat 1.5); ret_of (Value.ci64 1) ]

(* integer binops take integer (vector) types, fadd/fsub/fmul/fdiv take
   f64 (vectors): the constant folders wrap integer results and raise on
   any other type *)
let test_verifier_binop_types () =
  let errors op ty =
    let insns = [ Instr.mk 0 (Instr.Binop (op, ty, Value.Reg 1, Value.Reg 1)) ] in
    let blk = Block.mk "entry" insns (Instr.Ret (Some (Types.I64, Value.ci64 0))) in
    let f =
      Func.mk ~linkage:Func.External ~name:"main" ~params:[ (1, ty) ]
        ~ret:Types.I64 ~blocks:[ blk ] ~next_id:2 ()
    in
    List.map Verifier.error_to_string (Verifier.verify_module (Modul.mk ~name:"t" [ f ]))
  in
  List.iter
    (fun (op, ty, want) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s %s" (Instr.binop_name op) (Types.to_string ty))
        want (errors op ty))
    [ (Instr.Mul, Types.Ptr, [ "main/entry: mul on non-integer type ptr" ]);
      (Instr.Add, Types.F64, [ "main/entry: add on non-integer type f64" ]);
      (Instr.Shl, Types.Vec (Types.F64, 2),
       [ "main/entry: shl on non-integer type <2 x f64>" ]);
      (Instr.Fadd, Types.I64, [ "main/entry: fadd on non-float type i64" ]);
      (Instr.Fdiv, Types.Vec (Types.I32, 4),
       [ "main/entry: fdiv on non-float type <4 x i32>" ]);
      (Instr.Mul, Types.I64, []);
      (Instr.Xor, Types.I1, []);
      (Instr.Add, Types.Vec (Types.I32, 4), []);
      (Instr.Fmul, Types.F64, []);
      (Instr.Fsub, Types.Vec (Types.F64, 2), []) ]

let test_verifier_accepts_suites () =
  List.iter
    (fun (name, m) ->
      Alcotest.(check (list string)) (name ^ " verifies") []
        (List.map Verifier.error_to_string (Verifier.verify_module m)))
    (Posetrl_workloads.Suites.all_programs ())

(* a cbr diamond where "right" uses a reg defined only on "left":
   structurally fine, SSA-dominance invalid *)
let undominated_use_module () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let c = Builder.icmp b Instr.Slt Types.I64 (Value.ci64 1) (Value.ci64 2) in
  Builder.cbr b c "left" "right";
  Builder.block b "left";
  let x = Builder.add b Types.I64 (Value.ci64 1) (Value.ci64 2) in
  Builder.ret b Types.I64 x;
  Builder.block b "right";
  let y = Builder.add b Types.I64 x (Value.ci64 3) in
  Builder.ret b Types.I64 y;
  Modul.mk ~name:"undom" [ Builder.finish b ]

let test_verifier_dom_catches_undominated_use () =
  let m = undominated_use_module () in
  Alcotest.(check bool) "structural check passes" true (Verifier.is_valid m);
  Alcotest.(check bool) "dominance check fails" false (Verifier.is_valid ~dom:true m)

let test_verifier_dom_phi_pred_rule () =
  (* a phi may name a value defined in the predecessor itself — that is
     dominance-legal (def-block dominates the incoming edge's source) *)
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let c = Builder.icmp b Instr.Slt Types.I64 (Value.ci64 1) (Value.ci64 2) in
  Builder.cbr b c "left" "right";
  Builder.block b "left";
  let l = Builder.add b Types.I64 (Value.ci64 1) (Value.ci64 2) in
  Builder.br b "join";
  Builder.block b "right";
  let r = Builder.add b Types.I64 (Value.ci64 3) (Value.ci64 4) in
  Builder.br b "join";
  Builder.block b "join";
  let p = Builder.phi b Types.I64 [ ("left", l); ("right", r) ] in
  Builder.ret b Types.I64 p;
  let m = Modul.mk ~name:"phi_ok" [ Builder.finish b ] in
  Alcotest.(check (list string)) "phi incoming from defining pred is legal" []
    (List.map Verifier.error_to_string (Verifier.verify_module ~dom:true m))

let test_verifier_dom_accepts_suites () =
  List.iter
    (fun (name, m) ->
      Alcotest.(check (list string)) (name ^ " verifies with ~dom") []
        (List.map Verifier.error_to_string (Verifier.verify_module ~dom:true m)))
    (Posetrl_workloads.Suites.all_programs ())

let test_roundtrip_sum_squares () =
  let m = Testutil.sum_squares_module () in
  let text = Printer.module_to_string m in
  let m' = Parser.parse_module text in
  Alcotest.(check string) "reprint equal" text (Printer.module_to_string m');
  Alcotest.(check string) "same behaviour" (Testutil.ret_of m) (Testutil.ret_of m')

let test_roundtrip_suites () =
  List.iter
    (fun (name, m) ->
      let text = Printer.module_to_string m in
      let m' = Parser.parse_module text in
      Alcotest.(check string) (name ^ " roundtrip") text (Printer.module_to_string m'))
    (Posetrl_workloads.Suites.all_programs ())

(* malformed input is a Parse_error, never a stdlib Failure or
   Invalid_argument from a literal conversion: serve parses untrusted
   MiniIR and catches only Parse_error *)
let test_parser_rejects_garbage () =
  let body insn = "module x\nfunc @main(): i64 {\nentry:\n  " ^ insn ^ "\n}\n" in
  List.iter
    (fun (what, text) ->
      Alcotest.(check bool) (what ^ " is a Parse_error") true
        (match Parser.parse_module text with
         | _ -> false
         | exception Parser.Parse_error _ -> true))
    [ ("garbage", "module x\nfunc oops");
      ("i64 overflow", body "ret i64 99999999999999999999999");
      ("register overflow", body "ret i64 %99999999999999999999999");
      ("float without exponent digits", body "ret double 1e");
      ("\\x at end of input", "module x\nconst @s: i8 x 1 = bytes \"\\x4");
      ("\\x non-hex", "module x\nconst @s: i8 x 1 = bytes \"\\xZZ\"\n");
      ("decimal escape above 255", "module x\nconst @s: i8 x 1 = bytes \"\\999\"\n");
      ("decimal escape overflow",
       "module x\nconst @s: i8 x 1 = bytes \"\\99999999999999999999999\"\n") ];
  (* escapes that parse keep their bytes *)
  let m = Parser.parse_module "module x\nconst @s: i8 x 3 = bytes \"\\x41\\066\\t\"\n" in
  Alcotest.(check string) "escapes decode"
    "module x\n\nconst @s: i8 x 3 = bytes \"AB\\t\"\n\n"
    (Printer.module_to_string m)

let test_parser_global_forms () =
  let text =
    "module g\n\
     internal const @tbl: i64 x 3 = ints [1, 2, 3]\n\
     internal global @buf: i8 x 16 = zeroinit\n\
     internal const @msg: i8 x 3 = bytes \"hi\\n\"\n\
     func @main(): i64 {\n\
     entry:\n\
     \  %0 = load i64, @tbl\n\
     \  ret i64 %0\n\
     }\n"
  in
  let m = Parser.parse_module text in
  Alcotest.(check int) "3 globals" 3 (List.length m.Modul.globals);
  Alcotest.(check string) "runs" "1" (Testutil.ret_of m)

(* --- CFG / dominators / loops ------------------------------------------- *)

let diamond_func () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let c = Builder.icmp b Instr.Slt Types.I64 (Value.ci64 1) (Value.ci64 2) in
  Builder.cbr b c "then" "else";
  Builder.block b "then";
  Builder.br b "join";
  Builder.block b "else";
  Builder.br b "join";
  Builder.block b "join";
  let p = Builder.phi b Types.I64 [ ("then", Value.ci64 1); ("else", Value.ci64 2) ] in
  Builder.ret b Types.I64 p;
  Builder.finish b

let test_cfg_preds_succs () =
  let f = diamond_func () in
  let cfg = Cfg.of_func f in
  Alcotest.(check (list string)) "entry succs" [ "then"; "else" ] (Cfg.succs cfg "entry");
  Alcotest.(check int) "join preds" 2 (List.length (Cfg.preds cfg "join"));
  Alcotest.(check (list string)) "join succs" [] (Cfg.succs cfg "join")

let test_cfg_rpo () =
  let f = diamond_func () in
  let cfg = Cfg.of_func f in
  let rpo = Cfg.rpo cfg in
  Alcotest.(check string) "entry first" "entry" (List.hd rpo);
  Alcotest.(check string) "join last" "join" (List.nth rpo 3);
  Alcotest.(check int) "all blocks" 4 (List.length rpo)

let test_dominators_diamond () =
  let f = diamond_func () in
  let dom = Dom.of_func f in
  Alcotest.(check bool) "entry dominates join" true (Dom.dominates dom "entry" "join");
  Alcotest.(check bool) "then does not dominate join" false
    (Dom.dominates dom "then" "join");
  Alcotest.(check (option string)) "idom of join" (Some "entry") (Dom.idom dom "join");
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom "then" "then")

let test_loops_detection () =
  let m = Testutil.sum_squares_module () in
  let f = Testutil.main_func m in
  let li = Loops.compute f in
  Alcotest.(check int) "one loop" 1 (Loops.loop_count li);
  let l = List.hd li.Loops.loops in
  Alcotest.(check string) "header" "loop" l.Loops.header;
  Alcotest.(check int) "depth of loop" 1 (Loops.depth li "loop");
  Alcotest.(check int) "depth of entry" 0 (Loops.depth li "entry")

let test_loops_nested_depth () =
  let open Posetrl_workloads in
  let m = Mibench.dijkstra () in
  let f = Testutil.main_func m in
  let li = Loops.compute f in
  let max_depth = List.fold_left (fun d l -> max d l.Loops.depth) 0 li.Loops.loops in
  Alcotest.(check bool) "has nested loops" true (max_depth >= 2)

let test_func_use_counts () =
  let m = Testutil.sum_squares_module () in
  let f = Testutil.main_func m in
  let uses = Func.use_counts f in
  (* register 2 (alloca i) is loaded and stored: at least 2 uses *)
  Alcotest.(check bool) "alloca used" true (Hashtbl.length uses > 0)

(* --- register substitution -------------------------------------------- *)

let subst_of (pairs : (int * Value.t) list) : (int, Value.t) Hashtbl.t =
  Hashtbl.of_seq (List.to_seq pairs)

let check_value = Alcotest.(check (testable Value.pp Value.equal))

let test_resolve_chain () =
  let s = subst_of [ (1, Value.Reg 2); (2, Value.Reg 3); (3, Value.ci64 7) ] in
  check_value "1 -> 2 -> 3 -> 7" (Value.ci64 7) (Func.resolve s (Value.Reg 1));
  check_value "mid-chain" (Value.ci64 7) (Func.resolve s (Value.Reg 2));
  check_value "unsubstituted" (Value.Reg 4) (Func.resolve s (Value.Reg 4));
  check_value "constant" (Value.ci64 1) (Func.resolve s (Value.ci64 1))

let test_resolve_self_map () =
  let s = subst_of [ (5, Value.Reg 5) ] in
  check_value "self" (Value.Reg 5) (Func.resolve s (Value.Reg 5))

(* a cycle ends at the first register the walk meets again *)
let test_resolve_cycle () =
  let s = subst_of [ (6, Value.Reg 7); (7, Value.Reg 6) ] in
  check_value "6 -> 7 -> 6" (Value.Reg 6) (Func.resolve s (Value.Reg 6));
  check_value "7 -> 6 -> 7" (Value.Reg 7) (Func.resolve s (Value.Reg 7))

let test_substitute () =
  let f = Testutil.main_func (Testutil.sum_squares_module ()) in
  Alcotest.(check bool) "empty table: the function itself" true
    (Func.substitute (Hashtbl.create 1) f == f);
  (* the loop's first add reads the accumulator's load: substituting that
     load drops it and rewrites the add *)
  let load_acc =
    Func.fold_insns
      (fun acc _ i ->
        match acc, i.Instr.op with
        | None, Instr.Binop (Instr.Add, _, Value.Reg r, _) -> Some r
        | _ -> acc)
      None f
    |> Option.get
  in
  let f' = Func.substitute (subst_of [ (load_acc, Value.ci64 0) ]) f in
  Alcotest.(check int) "definition dropped" (Func.insn_count f - 1) (Func.insn_count f');
  Alcotest.(check bool) "no use left" false
    (Hashtbl.mem (Func.use_counts f') load_acc)

let test_modul_callgraph () =
  let m = Testutil.sum_squares_module () in
  Alcotest.(check (list string)) "main calls square" [ "square" ]
    (Modul.callees (Testutil.main_func m));
  Alcotest.(check (list string)) "square called by main" [ "main" ]
    (Modul.callers m "square")

let suite =
  [ Alcotest.test_case "type sizes" `Quick test_type_sizes;
    Alcotest.test_case "type wrap" `Quick test_type_wrap;
    Alcotest.test_case "type strings" `Quick test_type_strings;
    Alcotest.test_case "value equal" `Quick test_value_equal;
    Alcotest.test_case "module equality is bit-exact" `Quick test_module_equal_bit_exact;
    Alcotest.test_case "value predicates" `Quick test_value_predicates;
    Alcotest.test_case "instr operands" `Quick test_instr_operands;
    Alcotest.test_case "instr purity" `Quick test_instr_purity;
    Alcotest.test_case "instr successors" `Quick test_instr_successors;
    Alcotest.test_case "icmp helpers" `Quick test_icmp_helpers;
    Alcotest.test_case "builder basic" `Quick test_builder_basic;
    Alcotest.test_case "builder unterminated" `Quick test_builder_unterminated;
    Alcotest.test_case "verifier undefined reg" `Quick test_verifier_catches_undefined_reg;
    Alcotest.test_case "verifier bad label" `Quick test_verifier_catches_bad_label;
    Alcotest.test_case "verifier duplicate def" `Quick test_verifier_catches_duplicate_def;
    Alcotest.test_case "verifier phi position" `Quick test_verifier_catches_phi_after_insn;
    Alcotest.test_case "verifier ret type" `Quick test_verifier_ret_type;
    Alcotest.test_case "verifier binop types" `Quick test_verifier_binop_types;
    Alcotest.test_case "verifier accepts suites" `Quick test_verifier_accepts_suites;
    Alcotest.test_case "verifier ~dom catches undominated use" `Quick
      test_verifier_dom_catches_undominated_use;
    Alcotest.test_case "verifier ~dom phi-pred rule" `Quick test_verifier_dom_phi_pred_rule;
    Alcotest.test_case "verifier ~dom accepts suites" `Quick test_verifier_dom_accepts_suites;
    Alcotest.test_case "roundtrip sum_squares" `Quick test_roundtrip_sum_squares;
    Alcotest.test_case "roundtrip suites" `Quick test_roundtrip_suites;
    Alcotest.test_case "parser rejects garbage" `Quick test_parser_rejects_garbage;
    Alcotest.test_case "parser global forms" `Quick test_parser_global_forms;
    Alcotest.test_case "cfg preds/succs" `Quick test_cfg_preds_succs;
    Alcotest.test_case "cfg rpo" `Quick test_cfg_rpo;
    Alcotest.test_case "dominators diamond" `Quick test_dominators_diamond;
    Alcotest.test_case "loops detection" `Quick test_loops_detection;
    Alcotest.test_case "loops nested depth" `Quick test_loops_nested_depth;
    Alcotest.test_case "func use counts" `Quick test_func_use_counts;
    Alcotest.test_case "resolve follows a chain" `Quick test_resolve_chain;
    Alcotest.test_case "resolve stops at a self-map" `Quick test_resolve_self_map;
    Alcotest.test_case "resolve stops where a cycle closes" `Quick test_resolve_cycle;
    Alcotest.test_case "substitute drops definitions" `Quick test_substitute;
    Alcotest.test_case "module callgraph" `Quick test_modul_callgraph ]
