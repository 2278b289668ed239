(* Tests for the shared transformation utilities and the region cloner. *)

open Posetrl_ir
module P = Posetrl_passes
open Testutil

let test_trivial_dce () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 5) p;
        let x = Builder.load b Types.I64 p in
        (* chain of dead pure computation *)
        let d1 = Builder.mul b Types.I64 x x in
        let _d2 = Builder.add b Types.I64 d1 (Value.ci64 1) in
        Builder.ret b Types.I64 x)
  in
  let f = P.Utils.trivial_dce (main_func m) in
  let m' = Modul.replace_func m f in
  check_same_behaviour "trivial dce" m m';
  Alcotest.(check int) "dead chain removed" 0
    (count_insns (fun op -> match op with Instr.Binop _ -> true | _ -> false) m')

let test_fold_terminators () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        Builder.cbr b (Value.ci1 false) "a" "b";
        Builder.block b "a";
        Builder.ret b Types.I64 (Value.ci64 1);
        Builder.block b "b";
        Builder.ret b Types.I64 (Value.ci64 2))
  in
  let f = P.Utils.fold_terminators (main_func m) in
  Alcotest.(check int) "dead arm removed" 2 (List.length f.Func.blocks);
  Alcotest.(check string) "takes false arm" "2" (ret_of (Modul.replace_func m f))

let test_merge_blocks () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 3) p;
        Builder.br b "mid";
        Builder.block b "mid";
        let x = Builder.load b Types.I64 p in
        Builder.br b "last";
        Builder.block b "last";
        Builder.ret b Types.I64 x)
  in
  let f = P.Utils.merge_blocks (main_func m) in
  Alcotest.(check int) "merged into one" 1 (List.length f.Func.blocks);
  check_same_behaviour "merge" m (Modul.replace_func m f)

let test_remove_forwarding_blocks () =
  let m =
    wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        let c = Builder.icmp b Instr.Sgt Types.I64 x (Value.ci64 0) in
        Builder.cbr b c "fwd" "other";
        Builder.block b "fwd";
        Builder.br b "target";
        Builder.block b "other";
        Builder.br b "target";
        Builder.block b "target";
        Builder.ret b Types.I64 x)
  in
  let f = P.Utils.remove_forwarding_blocks (main_func m) in
  Alcotest.(check bool) "fewer blocks" true (List.length f.Func.blocks <= 3);
  check_same_behaviour "forwarding" m (Modul.replace_func m f)

let test_fresh_label () =
  let m = sum_squares_module () in
  let f = main_func m in
  Alcotest.(check string) "fresh when free" "new" (P.Utils.fresh_label f "new");
  Alcotest.(check bool) "avoids collision" true
    (P.Utils.fresh_label f "entry" <> "entry")

let test_func_cost_ordering () =
  let small = main_func (wrap_main (fun b ->
      Builder.block b "entry";
      Builder.ret b Types.I64 (Value.ci64 0)))
  in
  let big = main_func (Posetrl_workloads.Mibench.dijkstra ()) in
  Alcotest.(check bool) "cost ordering" true
    (P.Utils.func_cost small < P.Utils.func_cost big)

let test_analyze_counted_loop () =
  (* rotated canonical loop: for (i=0; i<10; i++) *)
  let m =
    Posetrl_passes.Pass_manager.run P.Config.oz
      [ "mem2reg"; "instcombine"; "simplifycfg"; "loop-simplify"; "lcssa"; "loop-rotate" ]
      (sum_squares_module ())
  in
  let f = main_func m in
  let li = Loops.compute f in
  match li.Loops.loops with
  | [ loop ] ->
    (match P.Utils.analyze_counted_loop f loop with
     | Some info ->
       Alcotest.(check int) "trip count" 10 info.P.Utils.trip_count;
       Alcotest.(check int64) "step" 1L info.P.Utils.step;
       Alcotest.(check int64) "init" 0L info.P.Utils.init
     | None -> Alcotest.fail "counted loop not recognized")
  | _ -> Alcotest.fail "expected one loop"

(* --- clone ------------------------------------------------------------------ *)

let test_clone_blocks_fresh_regs () =
  let f = main_func (sum_squares_module ()) in
  let counter = Func.fresh_counter f in
  let cloned, find =
    P.Clone.clone_blocks ~counter ~rename_label:(fun l -> l ^ ".c") ~init_map:[]
      f.Func.blocks
  in
  (* every def got a fresh register above the original next_id *)
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          if i.Instr.id >= 0 then
            Alcotest.(check bool) "fresh id" true (i.Instr.id >= f.Func.next_id))
        b.Block.insns)
    cloned;
  (* labels renamed *)
  List.iter
    (fun (b : Block.t) ->
      Alcotest.(check bool) "label suffixed" true
        (String.length b.Block.label > 2
         && String.sub b.Block.label (String.length b.Block.label - 2) 2 = ".c"))
    cloned;
  (* the mapping reports where defs went *)
  let some_def =
    List.concat_map (fun (b : Block.t) -> b.Block.insns) f.Func.blocks
    |> List.find_map (fun (i : Instr.t) -> if i.Instr.id >= 0 then Some i.Instr.id else None)
  in
  (match some_def with
   | Some r -> Alcotest.(check bool) "find maps def" true (Option.is_some (find r))
   | None -> Alcotest.fail "no defs?")

let test_clone_respects_init_map () =
  let blk =
    Block.mk "b"
      [ Instr.mk 5 (Instr.Binop (Instr.Add, Types.I64, Value.Reg 0, Value.ci64 1)) ]
      (Instr.Ret (Some (Types.I64, Value.Reg 5)))
  in
  let counter = { Func.next = 10 } in
  let cloned, _ =
    P.Clone.clone_blocks ~counter ~rename_label:(fun l -> l)
      ~init_map:[ (0, Value.ci64 41) ] [ blk ]
  in
  match (List.hd cloned).Block.insns with
  | [ { Instr.op = Instr.Binop (Instr.Add, _, Value.Const (Value.Cint (_, 41L)), _); _ } ] -> ()
  | _ -> Alcotest.fail "init_map not applied"

(* the loop view of sum_squares' one loop: its block, the registers it
   defines with their defining instructions, and its size *)
let test_region_defs () =
  let f = main_func (sum_squares_module ()) in
  let loop = List.hd (Loops.compute f).Loops.loops in
  let v = P.Utils.view f loop in
  let body = Func.find_block_exn f "loop" in
  Alcotest.(check (list string)) "blocks" [ "loop" ]
    (List.map (fun (b : Block.t) -> b.Block.label) v.P.Utils.blocks);
  Alcotest.(check int) "size" (List.length body.Block.insns) v.P.Utils.size;
  Alcotest.(check (list int)) "defs"
    (List.filter_map (fun (i : Instr.t) -> if i.Instr.id >= 0 then Some i.Instr.id else None)
       body.Block.insns
     |> List.sort compare)
    (Hashtbl.fold (fun r _ acc -> r :: acc) v.P.Utils.defs [] |> List.sort compare);
  Alcotest.(check bool) "an entry register is invariant" true
    (P.Utils.invariant v (Value.Reg (List.hd (Func.find_block_exn f "entry").Block.insns).Instr.id))

(* --- config/pipelines --------------------------------------------------------- *)

let test_config_ordering () =
  Alcotest.(check bool) "O3 inlines more than Oz" true
    (P.Config.o3.P.Config.inline_threshold > P.Config.oz.P.Config.inline_threshold);
  Alcotest.(check bool) "O3 unrolls more than Oz" true
    (P.Config.o3.P.Config.unroll_count > P.Config.oz.P.Config.unroll_count);
  Alcotest.(check bool) "Oz is size level 2" true (P.Config.oz.P.Config.size_level = 2);
  Alcotest.(check bool) "Oz disables vectorize" true (P.Config.oz.P.Config.vector_width < 2);
  Alcotest.(check bool) "O2 enables vectorize" true (P.Config.o2.P.Config.vector_width >= 2)

let test_pipeline_levels () =
  Alcotest.(check bool) "level parse" true
    (P.Pipelines.level_of_string "Oz" = Some P.Pipelines.Oz);
  Alcotest.(check bool) "level parse lc" true
    (P.Pipelines.level_of_string "o3" = Some P.Pipelines.O3);
  Alcotest.(check bool) "bad level" true (P.Pipelines.level_of_string "O9" = None);
  Alcotest.(check int) "O0 empty" 0 (List.length (P.Pipelines.sequence_of P.Pipelines.O0))

(* per-pass instruction counts are the [posetrl.pass.run] span's attrs *)
let test_pass_manager_stats () =
  let module Obs = Posetrl_obs in
  let m = sum_squares_module () in
  let sink, events = Obs.Sink.memory () in
  ignore
    (Obs.Span.with_sink sink (fun () ->
         P.Pass_manager.run P.Config.oz [ "mem2reg"; "instcombine" ] m));
  let runs =
    List.filter
      (fun (e : Obs.Event.t) -> e.Obs.Event.name = "posetrl.pass.run")
      (events ())
  in
  let attr e k = List.assoc k e.Obs.Event.attrs in
  Alcotest.(check (list string)) "one span per pass, in order"
    [ "mem2reg"; "instcombine" ]
    (List.map
       (fun e -> match attr e "pass" with Obs.Event.S s -> s | _ -> "?")
       runs);
  let count e k = match attr e k with Obs.Event.I n -> n | _ -> -1 in
  let first = List.hd runs in
  Alcotest.(check int) "counts the input" (Modul.insn_count m)
    (count first "insns_before");
  Alcotest.(check bool) "shrunk" true
    (count first "insns_after" < count first "insns_before")

let test_pass_manager_unknown_pass () =
  let m = sum_squares_module () in
  Alcotest.(check bool) "unknown pass raises" true
    (try ignore (P.Pass_manager.run P.Config.oz [ "no-such-pass" ] m); false
     with Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "trivial dce" `Quick test_trivial_dce;
    Alcotest.test_case "fold terminators" `Quick test_fold_terminators;
    Alcotest.test_case "merge blocks" `Quick test_merge_blocks;
    Alcotest.test_case "remove forwarding blocks" `Quick test_remove_forwarding_blocks;
    Alcotest.test_case "fresh label" `Quick test_fresh_label;
    Alcotest.test_case "func cost ordering" `Quick test_func_cost_ordering;
    Alcotest.test_case "analyze counted loop" `Quick test_analyze_counted_loop;
    Alcotest.test_case "clone fresh regs" `Quick test_clone_blocks_fresh_regs;
    Alcotest.test_case "clone init map" `Quick test_clone_respects_init_map;
    Alcotest.test_case "region defs" `Quick test_region_defs;
    Alcotest.test_case "config ordering" `Quick test_config_ordering;
    Alcotest.test_case "pipeline levels" `Quick test_pipeline_levels;
    Alcotest.test_case "pass manager stats" `Quick test_pass_manager_stats;
    Alcotest.test_case "pass manager unknown" `Quick test_pass_manager_unknown_pass ]
