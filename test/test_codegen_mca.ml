(* Tests for the codegen size model and the MCA throughput model. *)

open Posetrl_ir
module CG = Posetrl_codegen
module Mca = Posetrl_mca.Mca
module P = Posetrl_passes
module W = Posetrl_workloads

let x86 = CG.Target.x86_64
let arm = CG.Target.aarch64

let test_size_positive_on_suites () =
  List.iter
    (fun (name, m) ->
      let sx = CG.Objfile.size x86 m in
      let sa = CG.Objfile.size arm m in
      Alcotest.(check bool) (name ^ " x86 size > headers") true
        (sx > x86.CG.Target.header_bytes);
      Alcotest.(check bool) (name ^ " arm size > headers") true
        (sa > arm.CG.Target.header_bytes))
    (W.Suites.all_programs ())

let test_more_insns_more_bytes () =
  let m = Testutil.sum_squares_module () in
  let m_oz = P.Pass_manager.run_level P.Pipelines.Oz m in
  Alcotest.(check bool) "Oz binary smaller than unoptimized" true
    (CG.Objfile.size x86 m_oz < CG.Objfile.size x86 m)

let test_o3_bigger_than_oz () =
  (* O3 unrolls/inlines aggressively: across the suites, total text must be
     at least as large as Oz's, typically strictly larger *)
  let total level =
    List.fold_left
      (fun acc (_, m) ->
        acc + CG.Objfile.text_size x86 (P.Pass_manager.run_level level m))
      0 (W.Suites.all_programs ())
  in
  let t3 = total P.Pipelines.O3 and tz = total P.Pipelines.Oz in
  Alcotest.(check bool)
    (Printf.sprintf "O3 text (%d) > Oz text (%d)" t3 tz)
    true (t3 > tz)

let test_aarch64_fixed_width_dominates_encoding () =
  (* every AArch64 machine instruction is 4 bytes except paired
     materializations; spot-check per-function size is a multiple of 4 at
     the granularity of the lowering's instruction list *)
  let m = Testutil.sum_squares_module () in
  let f = Testutil.main_func m in
  let lf = CG.Lower.lower_func arm f in
  List.iter
    (List.iter (fun (mi : CG.Target.minst) ->
         Alcotest.(check bool) "arm encodings 4-byte-ish" true
           (mi.CG.Target.bytes = 4 || mi.CG.Target.bytes = 8 || mi.CG.Target.bytes = 1)))
    lf.CG.Lower.blocks

let func_size f = (CG.Lower.lower_func x86 f).CG.Lower.code_bytes

let test_wide_immediate_costs_more () =
  let mk v =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        let y = Builder.add b Types.I64 x (Value.ci64 v) in
        Builder.ret b Types.I64 y)
  in
  let small = func_size (Testutil.main_func (mk 5)) in
  let wide = func_size (Testutil.main_func (mk 123456789)) in
  Alcotest.(check bool) "wide immediate bigger" true (wide > small)

let test_bss_free_data_costly () =
  let mk init =
    let g = Global.mk ~linkage:Global.Internal ~init "buf" Types.I64 128 in
    let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
    Builder.block b "entry";
    let x = Builder.load b Types.I64 (Value.global "buf") in
    Builder.ret b Types.I64 x;
    Modul.mk ~name:"t" ~globals:[ g ] [ Builder.finish b ]
  in
  let zero = CG.Objfile.size x86 (mk Global.Zeroinit) in
  let data = CG.Objfile.size x86 (mk (Global.Ints (Array.make 128 7L))) in
  Alcotest.(check bool) "initialized data larger than bss" true (data > zero + 900)

let test_spill_model_kicks_in () =
  (* a block with very many live values must cost more than the sum of its
     plain instructions *)
  let mk n =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        let vals = ref [ x ] in
        for k = 1 to n do
          let v = Builder.mul b Types.I64 (List.hd !vals) (Value.ci64 (k + 1)) in
          vals := v :: !vals
        done;
        (* keep them all live by a final fold *)
        let sum =
          List.fold_left (fun acc v -> Builder.add b Types.I64 acc v) (Value.ci64 0) !vals
        in
        Builder.ret b Types.I64 sum)
  in
  let small = func_size (Testutil.main_func (mk 4)) in
  let big = func_size (Testutil.main_func (mk 40)) in
  (* 10x the values but more than 10x the bytes due to spills *)
  Alcotest.(check bool) "spills add bytes" true (big > small * 10)

(* --- MCA ----------------------------------------------------------------- *)

let test_mca_positive () =
  List.iter
    (fun (name, m) ->
      let e = Mca.estimate x86 m in
      Alcotest.(check bool) (name ^ " cycles positive") true (e.Mca.cycles > 0.0);
      Alcotest.(check bool) (name ^ " throughput positive") true (e.Mca.throughput > 0.0))
    (W.Suites.all_programs ())

let test_mca_throughput_inverse_cycles () =
  let m = Testutil.sum_squares_module () in
  let e = Mca.estimate x86 m in
  Alcotest.(check (float 1e-6)) "thr = scale/cycles"
    (Mca.throughput_scale /. e.Mca.cycles) e.Mca.throughput

let test_mca_loop_weighting () =
  (* the same instructions inside a loop must cost more statically *)
  let flat =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        let y = Builder.mul b Types.I64 x x in
        Builder.ret b Types.I64 y)
  in
  let loopy =
    let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
    let c = W.Dsl.ctx b in
    Builder.block b "entry";
    let acc = W.Dsl.var c Types.I64 (Value.ci64 1) in
    W.Dsl.for_up c ~from:0 ~bound:(Value.ci64 4) (fun _ ->
        let v = W.Dsl.get c Types.I64 acc in
        W.Dsl.set c Types.I64 acc (Builder.mul c.W.Dsl.b Types.I64 v v));
    Builder.ret b Types.I64 (W.Dsl.get c Types.I64 acc);
    Modul.mk ~name:"t" [ Builder.finish b ]
  in
  let ef = Mca.estimate x86 flat and el = Mca.estimate x86 loopy in
  Alcotest.(check bool) "loop weighted heavier" true (el.Mca.cycles > 3.0 *. ef.Mca.cycles)

let test_mca_division_bottleneck () =
  let mk op =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 100) p;
        let x = Builder.load b Types.I64 p in
        let y = Builder.binop b op Types.I64 x (Value.ci64 7) in
        let z = Builder.binop b op Types.I64 y (Value.ci64 3) in
        Builder.ret b Types.I64 z)
  in
  let div = Mca.estimate x86 (mk Instr.Sdiv) in
  let add = Mca.estimate x86 (mk Instr.Add) in
  Alcotest.(check bool) "divisions dominate" true (div.Mca.cycles > add.Mca.cycles)

let test_mca_oz_vs_unopt () =
  (* Oz-optimized modules should never be estimated slower than 3x the
     unoptimized static cost; typically they are faster *)
  let faster = ref 0 and total = ref 0 in
  List.iter
    (fun (_, m) ->
      incr total;
      let m' = P.Pass_manager.run_level P.Pipelines.Oz m in
      if Mca.throughput x86 m' > Mca.throughput x86 m then incr faster)
    (W.Suites.all_programs ());
  Alcotest.(check bool)
    (Printf.sprintf "Oz statically faster on most (%d/%d)" !faster !total)
    true
    (!faster * 10 >= !total * 7)

(* --- one lowering per measurement ------------------------------------------ *)

(* The measurement as it was computed before [Mca.measure] existed: the
   object sections from one [Lower.lower_func] walk, and an MCA estimate
   from a second walk that looks each block's loop-depth frequency up by
   its label. [Mca.measure] must reproduce it bit for bit. *)
module Ref = struct
  let align n a = (n + a - 1) / a * a

  (* (object size, text size) *)
  let sizes (t : CG.Target.t) (m : Modul.t) : int * int =
    let text, relocs =
      List.fold_left
        (fun (text, relocs) f ->
          if Func.is_declaration f then (text, relocs)
          else begin
            let lf = CG.Lower.lower_func t f in
            (align text t.CG.Target.func_align + lf.CG.Lower.code_bytes,
             relocs + (lf.CG.Lower.call_sites * t.CG.Target.call_reloc_bytes))
          end)
        (0, 0) m.Modul.funcs
    in
    let data =
      List.fold_left
        (fun data (g : Global.t) ->
          match g.Global.init with
          | None | Some Global.Zeroinit -> data
          | Some _ -> align data 8 + Global.size_bytes g)
        0 m.Modul.globals
    in
    let symbols =
      List.length (Modul.defined_funcs m)
      + List.length (List.filter Global.is_definition m.Modul.globals)
    in
    let sym_names =
      List.fold_left (fun acc f -> acc + String.length f.Func.name + 1) 0 m.Modul.funcs
      + List.fold_left
          (fun acc (g : Global.t) -> acc + String.length g.Global.name + 1)
          0 m.Modul.globals
    in
    let text = align text t.CG.Target.func_align in
    ( text + data + relocs
      + (symbols * t.CG.Target.symtab_entry_bytes) + sym_names
      + t.CG.Target.header_bytes,
      text )

  let block_cycles (t : CG.Target.t) (minsts : CG.Target.minst list) : float =
    let rm = Mca.model_of t in
    let count klass =
      float_of_int
        (List.length (List.filter (fun m -> m.CG.Target.klass = klass) minsts))
    in
    let total = float_of_int (List.length minsts) in
    let pressures =
      CG.Target.
        [ (count MAlu +. count MLea +. count MMov) /. rm.Mca.alu_units;
          count MMul /. rm.Mca.mul_units;
          count MDiv *. rm.Mca.div_rthru;
          (count MFpAdd +. count MFpMul) /. rm.Mca.fp_units;
          count MFpDiv *. rm.Mca.fpdiv_rthru;
          count MLoad /. rm.Mca.load_units;
          count MStore /. rm.Mca.store_units;
          (count MBranch +. count MCall) /. rm.Mca.branch_units;
          (count MVecAlu +. count MVecMem) /. rm.Mca.vec_units;
          total /. rm.Mca.dispatch_width ]
    in
    Float.max 1.0 (List.fold_left Float.max 0.0 pressures)

  let func_cycles (t : CG.Target.t) (f : Func.t) : float =
    if Func.is_declaration f then 0.0
    else begin
      let li = Loops.compute f in
      let freqs =
        List.map
          (fun (b : Block.t) ->
            let d = min 3 (Loops.depth li b.Block.label) in
            (b.Block.label, 10.0 ** float_of_int d))
          f.Func.blocks
      in
      let lf = CG.Lower.lower_func t f in
      List.fold_left2
        (fun acc (b : Block.t) minsts ->
          let freq =
            Option.value (List.assoc_opt b.Block.label freqs) ~default:1.0
          in
          acc +. (freq *. block_cycles t minsts))
        0.0 f.Func.blocks lf.CG.Lower.blocks
    end

  (* (cycles, throughput) *)
  let estimate (t : CG.Target.t) (m : Modul.t) : float * float =
    let cycles =
      List.fold_left (fun acc f -> acc +. func_cycles t f) 0.0 m.Modul.funcs
    in
    let cycles = Float.max 1.0 cycles in
    (cycles, 1.0e6 /. cycles)
end

let bits x = Printf.sprintf "%h" x

let check_measure_matches_ref name t m =
  let size, text = Ref.sizes t m and cycles, thr = Ref.estimate t m in
  let x = Mca.measure t m in
  let e = Mca.estimate t m in
  let label what = Printf.sprintf "%s (%s): %s" name t.CG.Target.name what in
  Alcotest.(check int) (label "measure size") size x.Mca.size;
  Alcotest.(check int) (label "measure text") text x.Mca.text;
  Alcotest.(check string) (label "measure throughput") (bits thr) (bits x.Mca.throughput);
  Alcotest.(check int) (label "Objfile.size") size (CG.Objfile.size t m);
  Alcotest.(check int) (label "Objfile.text_size") text (CG.Objfile.text_size t m);
  Alcotest.(check string) (label "estimate cycles") (bits cycles) (bits e.Mca.cycles);
  Alcotest.(check string) (label "estimate throughput") (bits thr) (bits e.Mca.throughput);
  Alcotest.(check string) (label "throughput") (bits thr) (bits (Mca.throughput t m))

(* 15 random ODG actions, as one training episode could take them *)
let odg_walk ~seed (m : Modul.t) : Modul.t =
  let rng = Posetrl_support.Rng.create seed in
  let space = Posetrl_odg.Action_space.odg in
  let n = Posetrl_odg.Action_space.n_actions space in
  let rec go k m =
    if k = 0 then m
    else
      let a = Posetrl_support.Rng.int rng n in
      go (k - 1) (P.Pass_manager.run P.Config.oz (Posetrl_odg.Action_space.action space a) m)
  in
  go 15 m

(* the 130-program training corpus, the 31 validation programs and 40
   generated programs; each raw, at -Oz, at -O3 and after an ODG walk,
   on both targets *)
let test_measure_matches_reference () =
  let programs =
    List.mapi
      (fun i m -> (Printf.sprintf "corpus %d" i, m))
      (Array.to_list (W.Suites.training_corpus ()))
    @ W.Suites.all_programs ()
    @ List.init 40 (fun k ->
          (Printf.sprintf "genprog %d" k, W.Genprog.generate ~seed:(700_000 + k)))
  in
  let n = ref 0 in
  List.iteri
    (fun i (name, m) ->
      List.iter
        (fun (variant, m) ->
          List.iter
            (fun t ->
              check_measure_matches_ref (name ^ variant) t m;
              incr n)
            [ x86; arm ])
        [ ("", m);
          (" -Oz", P.Pass_manager.run_level P.Pipelines.Oz m);
          (" -O3", P.Pass_manager.run_level P.Pipelines.O3 m);
          (" walk", odg_walk ~seed:(31 + i) m) ])
    programs;
  Alcotest.(check int) "measurements" 1608 !n

let suite =
  [ Alcotest.test_case "size positive on suites" `Quick test_size_positive_on_suites;
    Alcotest.test_case "Oz binary smaller" `Quick test_more_insns_more_bytes;
    Alcotest.test_case "O3 bigger than Oz" `Quick test_o3_bigger_than_oz;
    Alcotest.test_case "aarch64 encodings" `Quick test_aarch64_fixed_width_dominates_encoding;
    Alcotest.test_case "wide immediates" `Quick test_wide_immediate_costs_more;
    Alcotest.test_case "bss vs data" `Quick test_bss_free_data_costly;
    Alcotest.test_case "spill model" `Quick test_spill_model_kicks_in;
    Alcotest.test_case "mca positive" `Quick test_mca_positive;
    Alcotest.test_case "mca inverse cycles" `Quick test_mca_throughput_inverse_cycles;
    Alcotest.test_case "mca loop weighting" `Quick test_mca_loop_weighting;
    Alcotest.test_case "mca division bottleneck" `Quick test_mca_division_bottleneck;
    Alcotest.test_case "mca Oz vs unopt" `Quick test_mca_oz_vs_unopt;
    Alcotest.test_case "one measurement = two-lowering reference" `Slow
      test_measure_matches_reference ]
