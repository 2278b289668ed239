(* Unit tests for the loop passes. Loops are built in the canonical
   clang -O0 shape via the workloads DSL and promoted with mem2reg/sroa
   first where a pass expects SSA-form loops. *)

open Posetrl_ir
open Posetrl_workloads.Dsl
open Testutil

(* main: acc = 0; for (i = 0; i < n; i++) acc += i*k; return acc *)
let counted_loop_module ?(n = 10) ?(k = 3) () : Modul.t =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let acc = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 n) (fun ip ->
      let iv = get c Types.I64 ip in
      let t = Builder.mul c.b Types.I64 iv (i64 k) in
      bump c acc t);
  Builder.ret b Types.I64 (get c Types.I64 acc);
  Modul.mk ~name:"counted" [ Builder.finish b ]

(* main: arr fill loop — memset idiom shape *)
let memset_loop_module () : Modul.t =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let a = arr c Types.I64 32 in
  for_up c ~from:0 ~bound:(i64 32) (fun ip ->
      let iv = get c Types.I64 ip in
      set_at c Types.I64 a iv (i64 7));
  Builder.ret b Types.I64 (get_at c Types.I64 a (i64 13));
  Modul.mk ~name:"memset" [ Builder.finish b ]

let ssa_of m =
  m |> run_pass "mem2reg" |> run_pass "instcombine" |> run_pass "simplifycfg"

let canonical m = m |> ssa_of |> run_pass "loop-simplify" |> run_pass "lcssa"

let has_phi_loop (m : Modul.t) =
  let f = main_func m in
  Loops.loop_count (Loops.compute f) > 0

(* --- loop-simplify / lcssa -------------------------------------------------- *)

let test_loop_simplify_creates_preheader () =
  let m = ssa_of (counted_loop_module ()) in
  let m' = run_pass "loop-simplify" m in
  check_same_behaviour "loop-simplify" m m';
  let f = main_func m' in
  let li = Loops.compute f in
  List.iter
    (fun l ->
      Alcotest.(check bool) "has preheader" true (Option.is_some l.Loops.preheader))
    li.Loops.loops

(* the loop [head] exits to [exit], which is also entered from itself, so
   a phi there could not take %2 on the [exit] edge: lcssa leaves that loop
   alone and closes only the [exit] loop, whose exit [done] has no other
   predecessor *)
let test_lcssa_exit_with_outside_pred () =
  let src =
    "module t\n\nfunc @main(): i64 {\nentry:\n  br head\nhead:\n\
     \  %1 = phi i64 [entry: 0], [head: %2]\n  %2 = add i64 %1, 1\n\
     \  %3 = icmp slt i64 %2, 10\n  cbr %3, head, exit\nexit:\n\
     \  %4 = phi i64 [head: 0], [exit: %5]\n  %5 = add i64 %4, %2\n\
     \  %6 = icmp slt i64 %5, 100\n  cbr %6, exit, done\ndone:\n  ret i64 %5\n}\n"
  in
  check_ssa_clean "lcssa" src;
  let m' = run_pass "lcssa" (Parser.parse_module src) in
  let phis label = List.length (Block.phis (Func.find_block_exn (main_func m') label)) in
  Alcotest.(check (pair int int)) "phis in exit and done" (1, 1) (phis "exit", phis "done")

let test_lcssa_valid () =
  let m = ssa_of (counted_loop_module ()) |> run_pass "loop-simplify" in
  let m' = run_pass "lcssa" m in
  check_same_behaviour "lcssa" m m'

(* --- loop-rotate --------------------------------------------------------------- *)

let test_loop_rotate_bottom_tests () =
  let m = canonical (counted_loop_module ()) in
  let m' = run_pass "loop-rotate" m in
  check_same_behaviour "rotate" m m';
  (* after rotation the latch must end in a conditional branch *)
  let f = main_func m' in
  let li = Loops.compute f in
  match li.Loops.loops with
  | [] -> Alcotest.fail "loop disappeared during rotation"
  | l :: _ ->
    let latch = Func.find_block_exn f (List.hd l.Loops.latches) in
    (match latch.Block.term with
     | Instr.Cbr _ -> ()
     | _ -> Alcotest.fail "latch not conditional after rotate")

let test_loop_rotate_preserves_zero_trip () =
  (* bound 0: the loop body must not execute *)
  let m = canonical (counted_loop_module ~n:0 ()) in
  let m' = run_pass "loop-rotate" m in
  check_same_behaviour "zero-trip" m m';
  Alcotest.(check string) "0" "0" (ret_of m')

(* An inner loop that exits straight back to an outer header which is
   also its preheader: rotating it would have to guard and redirect the
   same block's phis, so the pass leaves it alone. *)
let exit_is_preheader_src =
  "module rot\n\nfunc @main(): i64 {\nentry:\n  br outer\nouter:\n\
   %1 = phi i64 [entry: 0], [inner: %5]\n  br inner\ninner:\n\
   %2 = phi i64 [outer: 0], [body: %4]\n  %3 = icmp slt i64 %2, 7\n\
   %5 = add i64 %1, 1\n  cbr %3, body, outer\nbody:\n\
   %4 = add i64 %2, 1\n  br inner\n}\n"

let test_loop_rotate_exit_is_preheader () =
  let m = Parser.parse_module exit_is_preheader_src in
  let m' =
    P.Pass_manager.run_pass ~sanitize:Posetrl_analysis.Sanitize.Ssa
      (P.Registry.find_exn "loop-rotate") P.Config.oz m
  in
  Alcotest.(check string) "loop left alone" (Printer.module_to_string m)
    (Printer.module_to_string m')

(* --- licm ------------------------------------------------------------------------ *)

let test_licm_hoists_invariant () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let x = var c Types.I64 (i64 21) in
  let acc = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 50) (fun _ip ->
      let xv = get c Types.I64 x in
      let inv = Builder.mul c.b Types.I64 xv (i64 2) in (* invariant multiply *)
      bump c acc inv);
  Builder.ret b Types.I64 (get c Types.I64 acc);
  let m = Modul.mk ~name:"licm" [ Builder.finish b ] in
  let mc = canonical m in
  let m' = run_pass "licm" mc in
  check_same_behaviour "licm" mc m';
  Alcotest.(check string) "2100" "2100" (ret_of m');
  (* the multiply must now live outside the loop *)
  let f = main_func m' in
  let li = Loops.compute f in
  let in_loop_muls =
    List.fold_left
      (fun acc (blk : Block.t) ->
        if Loops.depth li blk.Block.label > 0 then
          acc
          + List.length
              (List.filter
                 (fun (i : Instr.t) ->
                   match i.Instr.op with
                   | Instr.Binop (Instr.Mul, _, _, _) -> true
                   | _ -> false)
                 blk.Block.insns)
        else acc)
      0 f.Func.blocks
  in
  Alcotest.(check int) "mul hoisted" 0 in_loop_muls

(* --- loop-unroll -------------------------------------------------------------------- *)

let test_loop_unroll_full () =
  let m = canonical (counted_loop_module ~n:6 ()) |> run_pass "loop-rotate" in
  let cfg = { Posetrl_passes.Config.oz with Posetrl_passes.Config.unroll_count = 16;
              Posetrl_passes.Config.unroll_size_limit = 64 } in
  let m' = run_pass_cfg "loop-unroll" cfg m in
  check_same_behaviour "unroll" m m';
  Alcotest.(check string) "45" "45" (ret_of m');
  let f = main_func m' in
  Alcotest.(check int) "loop gone" 0 (Loops.loop_count (Loops.compute f))

let test_loop_unroll_respects_threshold () =
  let m = canonical (counted_loop_module ~n:100 ()) |> run_pass "loop-rotate" in
  (* Oz config: unroll_count = 2 < 100 trips, must not unroll *)
  let m' = run_pass "loop-unroll" m in
  check_same_behaviour "no unroll" m m';
  let f = main_func m' in
  Alcotest.(check bool) "loop kept" true (Loops.loop_count (Loops.compute f) > 0)

let test_loop_unroll_iv_final_value () =
  (* the IV observed after the loop must be the final value *)
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let last = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 5) (fun ip ->
      set c Types.I64 last (get c Types.I64 ip));
  Builder.ret b Types.I64 (get c Types.I64 last);
  let m = Modul.mk ~name:"ivfinal" [ Builder.finish b ] in
  let mc = canonical m |> run_pass "loop-rotate" in
  let cfg = { Posetrl_passes.Config.oz with Posetrl_passes.Config.unroll_count = 8;
              Posetrl_passes.Config.unroll_size_limit = 64 } in
  let m' = run_pass_cfg "loop-unroll" cfg mc in
  check_same_behaviour "iv final" mc m';
  Alcotest.(check string) "4" "4" (ret_of m')

(* --- indvars / loop-deletion ----------------------------------------------------------- *)

let test_indvars_exit_value () =
  (* return value is the IV's final value; indvars should make it constant *)
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let sink = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 9) (fun ip ->
      bump c sink (get c Types.I64 ip));
  Builder.ret b Types.I64 (get c Types.I64 sink);
  let m = Modul.mk ~name:"iv" [ Builder.finish b ] in
  let mc = canonical m |> run_pass "loop-rotate" in
  let m' = run_pass "indvars" mc in
  check_same_behaviour "indvars" mc m'

let test_loop_deletion_removes_dead_loop () =
  (* a loop that computes nothing observable *)
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let waste = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 40) (fun ip ->
      let iv = get c Types.I64 ip in
      set c Types.I64 waste (Builder.mul c.b Types.I64 iv (i64 3)));
  Builder.ret b Types.I64 (i64 77);
  let m = Modul.mk ~name:"deadloop" [ Builder.finish b ] in
  let mc = canonical m |> run_pass "loop-rotate" |> run_pass "indvars"
           |> run_pass "adce" |> run_pass "instcombine" in
  let m' = run_pass "loop-deletion" mc in
  check_same_behaviour "deletion" mc m';
  Alcotest.(check string) "77" "77" (ret_of m');
  let f = main_func m' in
  Alcotest.(check int) "no loops" 0 (Loops.loop_count (Loops.compute f))

(* --- loop-idiom -------------------------------------------------------------------------- *)

let test_loop_idiom_memset () =
  let m = canonical (memset_loop_module ()) |> run_pass "loop-rotate" |> run_pass "indvars" in
  let m' = run_pass "loop-idiom" m in
  check_same_behaviour "idiom" m m';
  Alcotest.(check string) "7" "7" (ret_of m');
  Alcotest.(check bool) "memset inserted" true
    (count_insns
       (fun op -> match op with Instr.Intrinsic ("memset", _, _) -> true | _ -> false)
       m'
     > 0)

let test_loop_idiom_memcpy () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let src = arr c Types.I64 16 in
  let dst = arr c Types.I64 16 in
  for_up c ~from:0 ~bound:(i64 16) (fun ip ->
      let iv = get c Types.I64 ip in
      set_at c Types.I64 src iv (Builder.mul c.b Types.I64 iv (i64 5)));
  for_up c ~from:0 ~bound:(i64 16) (fun ip ->
      let iv = get c Types.I64 ip in
      set_at c Types.I64 dst iv (get_at c Types.I64 src iv));
  Builder.ret b Types.I64 (get_at c Types.I64 dst (i64 9));
  let m = Modul.mk ~name:"cpyloop" [ Builder.finish b ] in
  let mc = canonical m |> run_pass "loop-rotate" |> run_pass "indvars" in
  let m' = run_pass "loop-idiom" mc in
  check_same_behaviour "memcpy idiom" mc m';
  Alcotest.(check string) "45" "45" (ret_of m')

(* --- loop-unswitch ------------------------------------------------------------------------- *)

let test_loop_unswitch () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let flagp = var c Types.I64 (i64 1) in
  let flag = get c Types.I64 flagp in
  let cond = Builder.icmp c.b Instr.Ne Types.I64 flag (i64 0) in
  let acc = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 20) (fun ip ->
      if_ c cond
        (fun () -> bump c acc (get c Types.I64 ip))
        (fun () -> bump c acc (i64 1)));
  Builder.ret b Types.I64 (get c Types.I64 acc);
  let m = Modul.mk ~name:"unswitch" [ Builder.finish b ] in
  let mc = canonical m in
  let cfg = { Posetrl_passes.Config.o3 with Posetrl_passes.Config.size_level = 0 } in
  let m' = run_pass_cfg "loop-unswitch" cfg mc in
  check_same_behaviour "unswitch" mc m';
  Alcotest.(check string) "190" "190" (ret_of m')

(* --- loop-vectorize -------------------------------------------------------------------------- *)

let vec_candidate_module () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let a = arr c Types.I64 64 in
  let out = arr c Types.I64 64 in
  for_up c ~from:0 ~bound:(i64 64) (fun ip ->
      let iv = get c Types.I64 ip in
      set_at c Types.I64 a iv (Builder.mul c.b Types.I64 iv (i64 3)));
  for_up c ~from:0 ~bound:(i64 64) (fun ip ->
      let iv = get c Types.I64 ip in
      let v = get_at c Types.I64 a iv in
      let w = Builder.add c.b Types.I64 v (i64 10) in
      let w2 = Builder.mul c.b Types.I64 w (i64 2) in
      set_at c Types.I64 out iv w2);
  let sum = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 64) (fun ip ->
      let iv = get c Types.I64 ip in
      bump c sum (get_at c Types.I64 out iv));
  Builder.ret b Types.I64 (get c Types.I64 sum);
  Modul.mk ~name:"vec" [ Builder.finish b ]

let test_loop_vectorize () =
  let m = canonical (vec_candidate_module ()) |> run_pass "loop-rotate" |> run_pass "indvars" in
  let cfg = Posetrl_passes.Config.o3 in
  let m' = run_pass_cfg "loop-vectorize" cfg m in
  check_same_behaviour "vectorize" m m';
  Alcotest.(check bool) "vector ops appear" true
    (count_insns
       (fun op ->
         match op with
         | Instr.Load (Types.Vec _, _) | Instr.Store (Types.Vec _, _, _) -> true
         | _ -> false)
       m'
     > 0)


(* the loaded value %4 is widened by vectorizing, and the exit block's
   [ret] reads it: the loop must stay scalar, or main would return a
   vector *)
let test_vectorize_outside_terminator_use () =
  let src =
    "module t\n\nfunc @main(): i64 {\nentry:\n  %0 = alloca i64 x 8\n\
     \  %1 = alloca i64 x 8\n  br loop\nloop:\n  %2 = phi i64 [entry: 0], [loop: %6]\n\
     \  %3 = gep i64 %0, %2\n  %4 = load i64, %3\n  %5 = gep i64 %1, %2\n\
     \  store i64 %4, %5\n  %6 = add i64 %2, 1\n  %7 = icmp slt i64 %6, 8\n\
     \  cbr %7, loop, exit\nexit:\n  ret i64 %4\n}\n"
  in
  let m = Parser.parse_module src in
  let m' = run_pass_cfg "loop-vectorize" Posetrl_passes.Config.o3 m in
  check_same_behaviour "vectorize" m m'

let test_loop_vectorize_disabled_at_oz () =
  let m = canonical (vec_candidate_module ()) |> run_pass "loop-rotate" in
  let m' = run_pass_cfg "loop-vectorize" Posetrl_passes.Config.oz m in
  Alcotest.(check int) "no vector ops at Oz" 0
    (count_insns
       (fun op ->
         match op with
         | Instr.Load (Types.Vec _, _) | Instr.Store (Types.Vec _, _, _) -> true
         | _ -> false)
       m')

(* --- loop-sink / loop-load-elim / loop-distribute ------------------------------------------------ *)

let test_loop_load_elim () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let a = arr c Types.I64 8 in
  let acc = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 8) (fun ip ->
      let iv = get c Types.I64 ip in
      let p = idx c Types.I64 a iv in
      Builder.store c.b Types.I64 iv p;
      (* immediate reload of the slot just stored *)
      let v = Builder.load c.b Types.I64 p in
      bump c acc v);
  Builder.ret b Types.I64 (get c Types.I64 acc);
  let m = Modul.mk ~name:"lle" [ Builder.finish b ] in
  let m' = run_pass "loop-load-elim" m in
  check_same_behaviour "loop-load-elim" m m';
  Alcotest.(check string) "28" "28" (ret_of m')

(* store -> load -> store -> load in one loop block: the second load
   forwards the first load's value, which is itself forwarded. *)
let test_loop_load_elim_chain () =
  check_ssa_clean "loop-load-elim"
    "module chain\n\nfunc @main(): i64 {\nentry:\n  %1 = alloca i64 x 1\n\
     %2 = alloca i64 x 1\n  br loop\nloop:\n  %3 = phi i64 [entry: 0], [loop: %8]\n\
     store i64 %3, %1\n  %4 = load i64, %1\n  store i64 %4, %2\n\
     %5 = load i64, %2\n  %8 = add i64 %5, 1\n  %9 = icmp slt i64 %8, 10\n\
     cbr %9, loop, exit\nexit:\n  ret i64 %8\n}\n"

let test_loop_distribute () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let a = arr c Types.I64 32 in
  let bq = arr c Types.I64 32 in
  for_up c ~from:0 ~bound:(i64 32) (fun ip ->
      let iv = get c Types.I64 ip in
      set_at c Types.I64 a iv (Builder.mul c.b Types.I64 iv (i64 2));
      set_at c Types.I64 bq iv (Builder.mul c.b Types.I64 iv (i64 5)));
  let s = Builder.add c.b Types.I64 (get_at c Types.I64 a (i64 3)) (get_at c Types.I64 bq (i64 4)) in
  Builder.ret b Types.I64 s;
  let m = Modul.mk ~name:"dist" [ Builder.finish b ] in
  let mc = canonical m |> run_pass "loop-rotate" |> run_pass "indvars" in
  let m' = run_pass "loop-distribute" mc in
  check_same_behaviour "distribute" mc m';
  Alcotest.(check string) "26" "26" (ret_of m')

let test_loop_sink () =
  let m = canonical (counted_loop_module ()) in
  let m' = run_pass "loop-sink" m in
  check_same_behaviour "loop-sink" m m'

let test_partial_unroll () =
  (* trip 40 > O3's full-unroll limit (32): partial by 8 *)
  let m = canonical (counted_loop_module ~n:40 ()) |> run_pass "loop-rotate" in
  let m' = run_pass_cfg "loop-unroll" Posetrl_passes.Config.o3 m in
  check_same_behaviour "partial unroll" m m';
  let f = main_func m' in
  Alcotest.(check bool) "loop kept" true (Loops.loop_count (Loops.compute f) > 0);
  Alcotest.(check bool) "body replicated" true
    (List.length f.Func.blocks > List.length (main_func m).Func.blocks + 4)

let test_partial_unroll_disabled_at_oz () =
  let m = canonical (counted_loop_module ~n:40 ()) |> run_pass "loop-rotate" in
  let m' = run_pass_cfg "loop-unroll" Posetrl_passes.Config.oz m in
  check_same_behaviour "no partial at Oz" m m';
  Alcotest.(check bool) "no growth" true
    (List.length (main_func m').Func.blocks
     <= List.length (main_func m).Func.blocks + 1)

let test_partial_unroll_iv_outside () =
  (* the IV observed after the loop must still be the final value *)
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let last = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 48) (fun ip ->
      set c Types.I64 last (get c Types.I64 ip));
  Builder.ret b Types.I64 (get c Types.I64 last);
  let m = Modul.mk ~name:"pivfinal" [ Builder.finish b ] in
  let mc = canonical m |> run_pass "loop-rotate" in
  let m' = run_pass_cfg "loop-unroll" Posetrl_passes.Config.o3 mc in
  check_same_behaviour "partial iv final" mc m';
  Alcotest.(check string) "47" "47" (ret_of m')

let test_nested_unroll_labels_unique () =
  (* two nested counted loops unrolled in sequence must not collide labels *)
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = ctx b in
  Builder.block b "entry";
  let acc = var c Types.I64 (i64 0) in
  for_up c ~from:0 ~bound:(i64 4) (fun _op ->
      for_up c ~from:0 ~bound:(i64 4) (fun ip ->
          bump c acc (get c Types.I64 ip)));
  Builder.ret b Types.I64 (get c Types.I64 acc);
  let m = Modul.mk ~name:"nest" [ Builder.finish b ] in
  let mc = canonical m |> run_pass "loop-rotate" in
  let cfg = { Posetrl_passes.Config.o3 with Posetrl_passes.Config.unroll_count = 8 } in
  let m' = run_pass_cfg "loop-unroll" cfg mc in
  check_same_behaviour "nested unroll" mc m';
  Alcotest.(check string) "24" "24" (ret_of m')

let test_ssa_helpers_sane () =
  Alcotest.(check bool) "counted loop has loop" true (has_phi_loop (ssa_of (counted_loop_module ())))

let suite =
  [ Alcotest.test_case "loop-simplify preheader" `Quick test_loop_simplify_creates_preheader;
    Alcotest.test_case "lcssa valid" `Quick test_lcssa_valid;
    Alcotest.test_case "lcssa exit with outside pred" `Quick test_lcssa_exit_with_outside_pred;
    Alcotest.test_case "loop-rotate bottom test" `Quick test_loop_rotate_bottom_tests;
    Alcotest.test_case "loop-rotate zero trip" `Quick test_loop_rotate_preserves_zero_trip;
    Alcotest.test_case "loop-rotate skips an exit that is its preheader" `Quick
      test_loop_rotate_exit_is_preheader;
    Alcotest.test_case "licm hoists" `Quick test_licm_hoists_invariant;
    Alcotest.test_case "unroll full" `Quick test_loop_unroll_full;
    Alcotest.test_case "unroll threshold" `Quick test_loop_unroll_respects_threshold;
    Alcotest.test_case "unroll iv final value" `Quick test_loop_unroll_iv_final_value;
    Alcotest.test_case "indvars exit value" `Quick test_indvars_exit_value;
    Alcotest.test_case "loop-deletion" `Quick test_loop_deletion_removes_dead_loop;
    Alcotest.test_case "loop-idiom memset" `Quick test_loop_idiom_memset;
    Alcotest.test_case "loop-idiom memcpy" `Quick test_loop_idiom_memcpy;
    Alcotest.test_case "loop-unswitch" `Quick test_loop_unswitch;
    Alcotest.test_case "loop-vectorize" `Quick test_loop_vectorize;
    Alcotest.test_case "vectorize outside terminator use" `Quick
      test_vectorize_outside_terminator_use;
    Alcotest.test_case "loop-vectorize off at Oz" `Quick test_loop_vectorize_disabled_at_oz;
    Alcotest.test_case "loop-load-elim" `Quick test_loop_load_elim;
    Alcotest.test_case "loop-load-elim forwards a forwarded load" `Quick
      test_loop_load_elim_chain;
    Alcotest.test_case "loop-distribute" `Quick test_loop_distribute;
    Alcotest.test_case "loop-sink" `Quick test_loop_sink;
    Alcotest.test_case "partial unroll" `Quick test_partial_unroll;
    Alcotest.test_case "partial unroll off at Oz" `Quick test_partial_unroll_disabled_at_oz;
    Alcotest.test_case "partial unroll iv" `Quick test_partial_unroll_iv_outside;
    Alcotest.test_case "nested unroll labels" `Quick test_nested_unroll_labels_unique;
    Alcotest.test_case "ssa helper sanity" `Quick test_ssa_helpers_sane ]
