(* Tests for the workload suites and the random-program generator. *)

open Posetrl_ir
module W = Posetrl_workloads
module I = Posetrl_interp.Interp

let test_suite_sizes () =
  Alcotest.(check int) "mibench programs" 11 (List.length W.Suites.mibench.W.Suites.programs);
  Alcotest.(check int) "spec2017 programs" 10 (List.length W.Suites.spec2017.W.Suites.programs);
  Alcotest.(check int) "spec2006 programs" 10 (List.length W.Suites.spec2006.W.Suites.programs)

let test_all_programs_run () =
  List.iter
    (fun (name, m) ->
      match I.observe m with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (name ^ " trapped: " ^ e))
    (W.Suites.all_programs ())

let test_programs_deterministic () =
  List.iter
    (fun (name, mk) ->
      let a = I.observe (mk ()) and b = I.observe (mk ()) in
      Alcotest.(check bool) (name ^ " deterministic") true (a = b))
    W.Suites.mibench.W.Suites.programs

let test_programs_nontrivial () =
  (* every validation program must be big enough to exercise the passes *)
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ " nontrivial") true (Modul.insn_count m >= 30))
    (W.Suites.all_programs ())

let test_programs_have_loops () =
  List.iter
    (fun (name, m) ->
      let has_loop =
        List.exists
          (fun f ->
            (not (Func.is_declaration f))
            && Loops.loop_count (Loops.compute f) > 0)
          m.Modul.funcs
      in
      Alcotest.(check bool) (name ^ " has loops") true has_loop)
    (W.Suites.all_programs ())

let test_corpus_size_and_determinism () =
  let c1 = W.Genprog.corpus ~n:10 () in
  let c2 = W.Genprog.corpus ~n:10 () in
  Alcotest.(check int) "corpus size" 10 (Array.length c1);
  Array.iteri
    (fun k m ->
      Alcotest.(check string) (Printf.sprintf "corpus[%d] deterministic" k)
        (Printer.module_to_string m)
        (Printer.module_to_string c2.(k)))
    c1

let test_corpus_default_is_130 () =
  Alcotest.(check int) "paper corpus size" 130 (Array.length (W.Genprog.corpus ()))

let test_corpus_diverse () =
  let c = W.Genprog.corpus ~n:20 () in
  let sizes = Array.map Modul.insn_count c in
  let distinct = Array.to_list sizes |> List.sort_uniq compare |> List.length in
  Alcotest.(check bool) "diverse sizes" true (distinct >= 10)

let prop_generated_programs_valid =
  QCheck2.Test.make ~count:100 ~name:"generated programs verify and terminate"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 600_000 650_000)
    (fun seed ->
      let m = W.Genprog.generate ~seed in
      Verifier.is_valid m
      && (match I.observe ~fuel:50_000_000 m with Ok _ -> true | Error _ -> false))

let prop_template_programs_valid =
  QCheck2.Test.make ~count:60 ~name:"template kernels verify, run, survive Oz"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 700_000 700_500)
    (fun seed ->
      let m = W.Templates.generate ~seed in
      Verifier.is_valid m
      &&
      match I.observe ~fuel:50_000_000 m with
      | Ok r ->
        let mz =
          Posetrl_passes.Pass_manager.run_level Posetrl_passes.Pipelines.Oz m
        in
        I.observe ~fuel:50_000_000 mz = Ok r
      | Error _ -> false)

let test_corpus_is_mixed () =
  let c = W.Suites.training_corpus ~n:10 () in
  let tmpl =
    Array.to_list c
    |> List.filter (fun m ->
           String.length m.Modul.name >= 5 && String.sub m.Modul.name 0 5 = "tmpl.")
  in
  Alcotest.(check int) "half templates" 5 (List.length tmpl)

let test_dsl_for_up () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = W.Dsl.ctx b in
  Builder.block b "entry";
  let acc = W.Dsl.var c Types.I64 (Value.ci64 0) in
  W.Dsl.for_up c ~from:3 ~bound:(Value.ci64 7) (fun ip ->
      W.Dsl.bump c acc (W.Dsl.get c Types.I64 ip));
  Builder.ret b Types.I64 (W.Dsl.get c Types.I64 acc);
  let m = Modul.mk ~name:"t" [ Builder.finish b ] in
  Alcotest.(check string) "3+4+5+6" "18" (Testutil.ret_of m)

let test_dsl_if () =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  let c = W.Dsl.ctx b in
  Builder.block b "entry";
  let r = W.Dsl.var c Types.I64 (Value.ci64 0) in
  let x = W.Dsl.var c Types.I64 (Value.ci64 5) in
  let xv = W.Dsl.get c Types.I64 x in
  let cond = Builder.icmp b Instr.Sgt Types.I64 xv (Value.ci64 3) in
  W.Dsl.if_ c cond
    (fun () -> W.Dsl.set c Types.I64 r (Value.ci64 1))
    (fun () -> W.Dsl.set c Types.I64 r (Value.ci64 2));
  Builder.ret b Types.I64 (W.Dsl.get c Types.I64 r);
  let m = Modul.mk ~name:"t" [ Builder.finish b ] in
  Alcotest.(check string) "then" "1" (Testutil.ret_of m)

let test_find_program () =
  Alcotest.(check bool) "bitcount found" true
    (Option.is_some (W.Suites.find_program "bitcount"));
  Alcotest.(check bool) "541.leela found" true
    (Option.is_some (W.Suites.find_program "541.leela"));
  Alcotest.(check bool) "missing" true
    (Option.is_none (W.Suites.find_program "no.such.benchmark"))

let suite =
  [ Alcotest.test_case "suite sizes" `Quick test_suite_sizes;
    Alcotest.test_case "all programs run" `Quick test_all_programs_run;
    Alcotest.test_case "programs deterministic" `Quick test_programs_deterministic;
    Alcotest.test_case "programs nontrivial" `Quick test_programs_nontrivial;
    Alcotest.test_case "programs have loops" `Quick test_programs_have_loops;
    Alcotest.test_case "corpus determinism" `Quick test_corpus_size_and_determinism;
    Alcotest.test_case "corpus default 130" `Quick test_corpus_default_is_130;
    Alcotest.test_case "corpus diverse" `Quick test_corpus_diverse;
    QCheck_alcotest.to_alcotest prop_generated_programs_valid;
    QCheck_alcotest.to_alcotest prop_template_programs_valid;
    Alcotest.test_case "corpus is mixed" `Quick test_corpus_is_mixed;
    Alcotest.test_case "dsl for_up" `Quick test_dsl_for_up;
    Alcotest.test_case "dsl if" `Quick test_dsl_if;
    Alcotest.test_case "find program" `Quick test_find_program ]
