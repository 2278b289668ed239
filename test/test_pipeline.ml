(* Whole-pipeline and property-based differential tests: the heavy
   correctness artillery. Every pass and pipeline must preserve the
   observable behaviour (return value + output) of every workload. *)

open Posetrl_ir
module P = Posetrl_passes
module W = Posetrl_workloads

let observe = Posetrl_interp.Interp.observe

let all_programs = lazy (W.Suites.all_programs ())

(* each registered pass individually preserves behaviour on all suites *)
let test_each_pass_preserves_suites () =
  List.iter
    (fun pass_name ->
      let p = P.Registry.find_exn pass_name in
      List.iter
        (fun (prog_name, m) ->
          let m' = P.Pass_manager.run_pass ~sanitize:Structural p P.Config.oz m in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" pass_name prog_name)
            true
            (observe m = observe m'))
        (Lazy.force all_programs))
    (P.Registry.names ())

(* each registered pass alone (Oz configuration) keeps valid IR valid, on
   the raw and -Oz forms of the validation programs and the training
   corpus; a failure names the pass, the program and the first error *)
let test_each_pass_keeps_ir_valid () =
  let corpus =
    List.mapi (fun k m -> (Printf.sprintf "corpus %d" k, m))
      (Array.to_list (W.Suites.training_corpus ()))
  in
  let inputs =
    List.concat_map
      (fun (name, m) -> [ (name, m); (name ^ " -Oz", P.Pass_manager.run_level P.Pipelines.Oz m) ])
      (Lazy.force all_programs @ corpus)
  in
  let first_error what m =
    match Verifier.verify_module ~dom:true m with
    | [] -> None
    | e :: _ -> Some (what ^ ": " ^ Verifier.error_to_string e)
  in
  let invalid_inputs = List.filter_map (fun (name, m) -> first_error name m) inputs in
  Alcotest.(check (list string)) "invalid inputs" [] invalid_inputs;
  let failures =
    List.concat_map
      (fun pass ->
        List.filter_map
          (fun (name, m) ->
            first_error (pass ^ " on " ^ name) (P.Pass_manager.run P.Config.oz [ pass ] m))
          inputs)
      (P.Registry.names ())
  in
  Alcotest.(check (list string)) "pass outputs that fail the verifier" [] failures

(* standard pipelines preserve behaviour on all suites *)
let test_pipelines_preserve_suites () =
  List.iter
    (fun level ->
      List.iter
        (fun (prog_name, m) ->
          let m' = P.Pass_manager.run_level ~sanitize:Structural level m in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" (P.Pipelines.level_to_string level) prog_name)
            true
            (observe m = observe m'))
        (Lazy.force all_programs))
    [ P.Pipelines.O1; P.Pipelines.O2; P.Pipelines.O3; P.Pipelines.Os; P.Pipelines.Oz ]

(* pipelines never grow the suites' instruction counts catastrophically and
   Oz actually shrinks most programs *)
let test_oz_shrinks_most_programs () =
  let shrunk = ref 0 and total = ref 0 in
  List.iter
    (fun (_, m) ->
      incr total;
      let m' = P.Pass_manager.run_level P.Pipelines.Oz m in
      if Modul.insn_count m' < Modul.insn_count m then incr shrunk)
    (Lazy.force all_programs);
  Alcotest.(check bool)
    (Printf.sprintf "Oz shrinks most programs (%d/%d)" !shrunk !total)
    true
    (!shrunk * 10 >= !total * 8)

(* Oz sequence reconstruction matches the paper's counts *)
let test_oz_sequence_counts () =
  Alcotest.(check int) "90 pass instances" 90 (List.length P.Pipelines.oz_sequence);
  Alcotest.(check int) "54 unique passes" 54 (List.length P.Pipelines.unique_passes);
  Alcotest.(check int) "15 manual groups" 15 (List.length P.Pipelines.manual_groups)

let test_all_oz_passes_registered () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Option.is_some (P.Registry.find name)))
    P.Pipelines.unique_passes

let test_registry_alias () =
  Alcotest.(check bool) "paper spelling resolves" true
    (Option.is_some (P.Registry.find "alignmentfromassumptions"))

(* idempotence-ish: running Oz twice keeps behaviour and never grows much *)
let test_oz_twice_stable () =
  List.iter
    (fun (prog_name, m) ->
      let m1 = P.Pass_manager.run_level P.Pipelines.Oz m in
      let m2 = P.Pass_manager.run_level ~sanitize:Structural P.Pipelines.Oz m1 in
      Alcotest.(check bool) (prog_name ^ " behaviour") true (observe m1 = observe m2))
    (Lazy.force all_programs)

(* property: on random generated programs, a random pass preserves
   behaviour and verifier validity *)
let prop_random_pass_preserves =
  QCheck2.Test.make ~count:120 ~name:"random pass preserves random program"
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 53))
    (fun (seed, pass_idx) ->
      let m = W.Genprog.generate ~seed in
      let pass_name = List.nth (P.Registry.names ()) pass_idx in
      let p = P.Registry.find_exn pass_name in
      let m' = P.Pass_manager.run_pass ~sanitize:Structural p P.Config.oz m in
      observe m = observe m')

let prop_oz_preserves_random =
  QCheck2.Test.make ~count:25 ~name:"Oz pipeline preserves random program"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 200_000 220_000)
    (fun seed ->
      let m = W.Genprog.generate ~seed in
      let m' = P.Pass_manager.run_level ~sanitize:Structural P.Pipelines.Oz m in
      observe m = observe m')

let prop_o3_preserves_random =
  QCheck2.Test.make ~count:25 ~name:"O3 pipeline preserves random program"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 300_000 320_000)
    (fun seed ->
      let m = W.Genprog.generate ~seed in
      let m' = P.Pass_manager.run_level ~sanitize:Structural P.Pipelines.O3 m in
      observe m = observe m')

(* property: parser round trip on random programs *)
let prop_roundtrip_random =
  QCheck2.Test.make ~count:60 ~name:"print/parse round trip on random program"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 400_000 420_000)
    (fun seed ->
      let m = W.Genprog.generate ~seed in
      let text = Printer.module_to_string m in
      let m' = Parser.parse_module text in
      String.equal text (Printer.module_to_string m'))

(* property: the interpreter is deterministic *)
let prop_interp_deterministic =
  QCheck2.Test.make ~count:40 ~name:"interpreter deterministic"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 800_000 800_200)
    (fun seed ->
      let m = W.Genprog.generate ~seed in
      observe m = observe m)

(* property: Oz twice on a random program preserves behaviour *)
let prop_oz_twice_random =
  QCheck2.Test.make ~count:15 ~name:"Oz twice preserves random program"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 810_000 810_100)
    (fun seed ->
      let m = W.Genprog.generate ~seed in
      let m1 = P.Pass_manager.run_level P.Pipelines.Oz m in
      let m2 = P.Pass_manager.run_level ~sanitize:Structural P.Pipelines.Oz m1 in
      observe m1 = observe m2)

(* every branch of [m] retargeted to a block that does not exist *)
let dangle_targets (m : Modul.t) : Modul.t =
  Modul.map_defined
    (Func.map_blocks (fun b ->
         { b with
           Block.term = Instr.map_term_labels (fun _ -> "no-such-block") b.Block.term }))
    m

(* failure injection: a deliberately broken pass is caught by the
   structural sanitizer *)
let test_verify_catches_broken_pass () =
  let broken =
    P.Pass.mk "deliberately-broken" ~description:"drops every terminator target"
      (fun _cfg -> dangle_targets)
  in
  let m = Testutil.sum_squares_module () in
  Alcotest.(check bool) "verifier fires" true
    (try
       ignore (P.Pass_manager.run_pass ~sanitize:Structural broken P.Config.oz m);
       false
     with Posetrl_analysis.Sanitize.Failed { pass; _ } ->
       String.equal pass "deliberately-broken")

(* an invalid input is blamed on the input, not on the first pass, even
   when that pass changes nothing and so is never checked itself *)
let test_sanitize_blames_invalid_input () =
  let m = dangle_targets (Testutil.sum_squares_module ()) in
  match P.Pass_manager.run ~sanitize:Structural P.Config.oz [ "barrier" ] m with
  | _ -> Alcotest.fail "invalid input accepted"
  | exception Posetrl_analysis.Sanitize.Failed { pass; _ } ->
    Alcotest.(check string) "blamed" "input" pass

(* the size model grows when code is added *)
let prop_size_monotone_in_functions =
  QCheck2.Test.make ~count:20 ~name:"object size grows with added functions"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 820_000 820_100)
    (fun seed ->
      let m1 = W.Genprog.generate ~seed in
      let extra =
        let b = Builder.create ~name:"extra_fn" ~params:[ Types.I64 ] ~ret:Types.I64 () in
        Builder.block b "entry";
        let x = Builder.param b 0 in
        let y = Builder.mul b Types.I64 x (Value.ci64 3) in
        Builder.ret b Types.I64 y;
        Builder.finish b
      in
      let m2 = { m1 with Modul.funcs = extra :: m1.Modul.funcs } in
      let t = Posetrl_codegen.Target.x86_64 in
      Posetrl_codegen.Objfile.size t m2 > Posetrl_codegen.Objfile.size t m1)

(* --- pinned output bytes ----------------------------------------------- *)

(* One MD5 per group of printed outputs: each -O level over the validation
   programs; each registered pass alone (Oz configuration) on every raw
   validation program, and all of them together on every -Oz validation
   program; each loop pass alone under the O3 configuration on the raw
   and -Oz validation programs; and, per action space, 50 seeded
   15-action schedules over the validation and 20 Genprog programs,
   printed after every action. A deliberate output change updates its
   group's digest and names the group in CHANGES.md. *)
let pinned_digests =
  [ ("O0", "d253857a25a7ea5c7aac707999be4760");
    ("O1", "dc06ffe7e7f5fca1b777e840153c6932");
    ("O2", "b7ddf1b8395b62b9ec2bed06486279d3");
    ("O3", "648d8e71ee9f84e69b236e11f97fc045");
    ("Os", "7b9496b234b878c2ae7ee24f3d74cd2e");
    ("Oz", "2098bd8019d8aec6a99d944d8957cd5a");
    ("ee-instrument", "d253857a25a7ea5c7aac707999be4760");
    ("simplifycfg", "ef47f176dde2155c5880f23f3d2d7c11");
    ("sroa", "151d9a2f2b28727118129a0d6b260986");
    ("early-cse", "fc43927a470ed9c5fddee3ca88b32249");
    ("lower-expect", "d253857a25a7ea5c7aac707999be4760");
    ("forceattrs", "7a6987a7863b823a9d919395c0dd4f21");
    ("inferattrs", "d253857a25a7ea5c7aac707999be4760");
    ("ipsccp", "6279742bb951bc90fa24687715931495");
    ("called-value-propagation", "d253857a25a7ea5c7aac707999be4760");
    ("attributor", "0b0d0df67e6593002cfea69423693c90");
    ("globalopt", "d253857a25a7ea5c7aac707999be4760");
    ("mem2reg", "151d9a2f2b28727118129a0d6b260986");
    ("deadargelim", "d253857a25a7ea5c7aac707999be4760");
    ("instcombine", "c7c05d3a0f82e3eaeaa8b348fbe38890");
    ("prune-eh", "dc7335e8d684bdc092cf1fceac15950f");
    ("inline", "9c0beb8a7347701996ad77b44b26fcfb");
    ("functionattrs", "f0687fe63ca19394d4ba810484f07e99");
    ("early-cse-memssa", "7cbf09ae9ce3bb8d5362a9d86f6ebfa6");
    ("speculative-execution", "d80677ba6d8c5904fa4d3be2bd324d4d");
    ("jump-threading", "d253857a25a7ea5c7aac707999be4760");
    ("correlated-propagation", "d253857a25a7ea5c7aac707999be4760");
    ("tailcallelim", "d253857a25a7ea5c7aac707999be4760");
    ("reassociate", "52e3d18b083fada00cb2313693ebf17d");
    ("loop-simplify", "d253857a25a7ea5c7aac707999be4760");
    ("lcssa", "d253857a25a7ea5c7aac707999be4760");
    ("loop-rotate", "d253857a25a7ea5c7aac707999be4760");
    ("licm", "40b815ad4b8d8e31b7198a629cad672c");
    ("loop-unswitch", "d253857a25a7ea5c7aac707999be4760");
    ("indvars", "d253857a25a7ea5c7aac707999be4760");
    ("loop-idiom", "d253857a25a7ea5c7aac707999be4760");
    ("loop-deletion", "d253857a25a7ea5c7aac707999be4760");
    ("loop-unroll", "d253857a25a7ea5c7aac707999be4760");
    ("mldst-motion", "00bfa4e80eba9b0a1e30254088348510");
    ("gvn", "b368e45e30d6e3fb5734ed23dc1950e9");
    ("memcpyopt", "d253857a25a7ea5c7aac707999be4760");
    ("sccp", "e74748d242d8dac7c36a8e4fbbcb8c51");
    ("bdce", "d253857a25a7ea5c7aac707999be4760");
    ("dse", "d253857a25a7ea5c7aac707999be4760");
    ("adce", "d253857a25a7ea5c7aac707999be4760");
    ("barrier", "d253857a25a7ea5c7aac707999be4760");
    ("elim-avail-extern", "d253857a25a7ea5c7aac707999be4760");
    ("rpo-functionattrs", "f0687fe63ca19394d4ba810484f07e99");
    ("globaldce", "d253857a25a7ea5c7aac707999be4760");
    ("float2int", "d253857a25a7ea5c7aac707999be4760");
    ("lower-constant-intrinsics", "d253857a25a7ea5c7aac707999be4760");
    ("loop-distribute", "d253857a25a7ea5c7aac707999be4760");
    ("loop-vectorize", "d253857a25a7ea5c7aac707999be4760");
    ("loop-load-elim", "82f74ee7c2494e9d0fcf9613759eb37c");
    ("alignment-from-assumptions", "d253857a25a7ea5c7aac707999be4760");
    ("strip-dead-prototypes", "d253857a25a7ea5c7aac707999be4760");
    ("constmerge", "d253857a25a7ea5c7aac707999be4760");
    ("loop-sink", "7dfa2c1fb8468e203035a18755f9dbce");
    ("instsimplify", "3e1955bf2a898e7ae897c3348ab89067");
    ("div-rem-pairs", "d253857a25a7ea5c7aac707999be4760");
    ("each pass on Oz programs", "4fc1166436b90f14dc115fa9ceb0b101");
    ("loop passes O3", "1dd74ef3e4a3c8f8578d5fbf9325fa82");
    ("schedules manual", "6697b3aec3a914153e8005275542ae22");
    ("schedules odg", "b09e372565cb53dd05d9994efefdff3a") ]

let loop_passes =
  [ "loop-simplify"; "lcssa"; "loop-rotate"; "licm"; "loop-unswitch"; "indvars";
    "loop-idiom"; "loop-deletion"; "loop-unroll"; "loop-distribute"; "loop-vectorize";
    "loop-load-elim"; "loop-sink" ]

let output_digests () : (string * string) list =
  let module A = Posetrl_odg.Action_space in
  let module Rng = Posetrl_support.Rng in
  let validation = List.map snd (Lazy.force all_programs) in
  let md5 ms =
    let buf = Buffer.create 65536 in
    List.iter (fun m -> Buffer.add_string buf (Printer.module_to_string m)) ms;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let levels =
    List.map
      (fun level ->
        (P.Pipelines.level_to_string level, md5 (List.map (P.Pass_manager.run_level level) validation)))
      P.Pipelines.[ O0; O1; O2; O3; Os; Oz ]
  in
  let passes =
    List.map
      (fun name -> (name, md5 (List.map (P.Pass_manager.run P.Config.oz [ name ]) validation)))
      (P.Registry.names ())
  in
  let oz_validation = List.map (P.Pass_manager.run_level P.Pipelines.Oz) validation in
  let alone cfg names ms =
    md5 (List.concat_map (fun name -> List.map (P.Pass_manager.run cfg [ name ]) ms) names)
  in
  let each_pass_oz =
    ("each pass on Oz programs", alone P.Config.oz (P.Registry.names ()) oz_validation)
  in
  let loop_passes_o3 =
    ("loop passes O3", alone P.Config.o3 loop_passes (validation @ oz_validation))
  in
  let pool =
    Array.of_list (validation @ List.init 20 (fun k -> W.Genprog.generate ~seed:(900_000 + k)))
  in
  let schedules (space : A.t) =
    let rng = Rng.create 2022 in
    let outputs = ref [] in
    for _ = 1 to 50 do
      let m = ref pool.(Rng.int rng (Array.length pool)) in
      for _ = 1 to 15 do
        let action = A.action space (Rng.int rng (A.n_actions space)) in
        m := P.Pass_manager.run P.Config.oz action !m;
        outputs := !m :: !outputs
      done
    done;
    ("schedules " ^ space.A.name, md5 (List.rev !outputs))
  in
  levels @ passes @ [ each_pass_oz; loop_passes_o3; schedules A.manual; schedules A.odg ]

let test_output_bytes_pinned () =
  let actual = output_digests () in
  let moved =
    List.filter_map
      (fun (group, digest) ->
        match List.assoc_opt group pinned_digests with
        | Some pinned when String.equal pinned digest -> None
        | pinned ->
          Some
            (Printf.sprintf "%s: pinned %s, now %s" group
               (Option.value pinned ~default:"(none)") digest))
      actual
  in
  Alcotest.(check (list string)) "groups whose output bytes moved" [] moved;
  Alcotest.(check int) "every pinned group produced" (List.length pinned_digests)
    (List.length actual)

let suite =
  [ Alcotest.test_case "each pass preserves suites" `Slow test_each_pass_preserves_suites;
    Alcotest.test_case "pipeline output bytes are pinned" `Slow test_output_bytes_pinned;
    Alcotest.test_case "every pass keeps valid IR valid" `Slow test_each_pass_keeps_ir_valid;
    Alcotest.test_case "pipelines preserve suites" `Slow test_pipelines_preserve_suites;
    Alcotest.test_case "Oz shrinks most programs" `Quick test_oz_shrinks_most_programs;
    Alcotest.test_case "Oz sequence counts" `Quick test_oz_sequence_counts;
    Alcotest.test_case "all Oz passes registered" `Quick test_all_oz_passes_registered;
    Alcotest.test_case "registry alias" `Quick test_registry_alias;
    Alcotest.test_case "Oz twice stable" `Slow test_oz_twice_stable;
    QCheck_alcotest.to_alcotest prop_random_pass_preserves;
    QCheck_alcotest.to_alcotest prop_oz_preserves_random;
    QCheck_alcotest.to_alcotest prop_o3_preserves_random;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_interp_deterministic;
    QCheck_alcotest.to_alcotest prop_oz_twice_random;
    Alcotest.test_case "verify catches broken pass" `Quick test_verify_catches_broken_pass;
    Alcotest.test_case "sanitizer blames an invalid input" `Quick
      test_sanitize_blames_invalid_input;
    QCheck_alcotest.to_alcotest prop_size_monotone_in_functions ]
