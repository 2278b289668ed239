(* Posetrl_analysis: dataflow framework, analyses, sanitizer, delta
   minimizer and lint.

   The framework is checked against an independent brute-force
   available-expressions recompute on generated programs (qcheck); the
   sanitizer against a deliberately miscompiling pass whose minimized
   repro must re-fail verification; the dce/dse ports against verbatim copies of the
   pre-port implementations (byte-identical printer output). *)

open Posetrl_ir
module A = Posetrl_analysis
module P = Posetrl_passes
module W = Posetrl_workloads
module Pool = Posetrl_support.Pool
module ISet = Set.Make (Int)
module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* --- brute-force available-expressions oracle ------------------------------ *)

(* Naive round-robin recompute over the reachable blocks, sharing no
   code with the worklist framework: every block starts at "all
   expressions" (absent from [out]) and the equations are iterated over
   the plain block list until nothing changes. Returns each reachable
   block's entry fact; [None] is "all expressions". *)
let brute_avail_in (f : Func.t) : (string * SSet.t option) list =
  let cfg = Cfg.of_func f in
  let reach = Cfg.reachable cfg in
  let blocks =
    List.filter (fun (b : Block.t) -> Cfg.SSet.mem b.Block.label reach) f.Func.blocks
  in
  let out : (string, SSet.t) Hashtbl.t = Hashtbl.create 16 in
  let meet acc p =
    match acc, Hashtbl.find_opt out p with
    | None, x | x, None -> x
    | Some a, Some b -> Some (SSet.inter a b)
  in
  let avail_in (b : Block.t) =
    let l = b.Block.label in
    List.fold_left meet
      (if String.equal l cfg.Cfg.entry then Some SSet.empty else None)
      (List.filter (fun p -> Cfg.SSet.mem p reach) (Cfg.preds cfg l))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Block.t) ->
        match avail_in b with
        | None -> ()
        | Some s ->
          let o = SSet.union s (A.Available.exprs_of_block b) in
          let l = b.Block.label in
          if not (Option.equal SSet.equal (Some o) (Hashtbl.find_opt out l)) then begin
            changed := true;
            Hashtbl.replace out l o
          end)
      blocks
  done;
  List.map (fun (b : Block.t) -> (b.Block.label, avail_in b)) blocks

let available_matches_brute (m : Modul.t) : bool =
  List.for_all
    (fun (f : Func.t) ->
      let av = A.Available.of_func f in
      List.for_all
        (fun (l, brute) ->
          match A.Available.avail_in av l, brute with
          | A.Available.Avail s, Some s' -> SSet.equal s s'
          | A.Available.All, None -> true
          | _ -> false)
        (brute_avail_in f))
    (Modul.defined_funcs m)

let prop_available_eq_brute =
  QCheck2.Test.make ~count:60
    ~print:QCheck2.Print.int
    ~name:"framework available expressions = brute-force recompute"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let m =
        if seed mod 2 = 0 then W.Templates.generate ~seed
        else W.Genprog.generate ~seed
      in
      available_matches_brute m
      && available_matches_brute (P.Pass_manager.run_level P.Pipelines.Oz m))

let test_available_on_suites () =
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ ": available expressions = brute force") true
        (available_matches_brute m);
      Alcotest.(check bool) (name ^ " -Oz: available expressions = brute force") true
        (available_matches_brute (P.Pass_manager.run_level P.Pipelines.Oz m)))
    (W.Suites.all_programs ())

(* --- forward analyses ------------------------------------------------------ *)

(* entry defines %x, a diamond rejoins, both arms use %x *)
let diamond_module () : Modul.t =
  Testutil.wrap_main (fun b ->
      Builder.block b "entry";
      let x = Builder.add b Types.I64 (Value.ci64 2) (Value.ci64 3) in
      let c = Builder.icmp b Instr.Slt Types.I64 x (Value.ci64 10) in
      Builder.cbr b c "left" "right";
      Builder.block b "left";
      let l = Builder.add b Types.I64 x (Value.ci64 1) in
      Builder.br b "join";
      Builder.block b "right";
      let r = Builder.add b Types.I64 x (Value.ci64 2) in
      Builder.br b "join";
      Builder.block b "join";
      let p = Builder.phi b Types.I64 [ ("left", l); ("right", r) ] in
      Builder.ret b Types.I64 p)

let test_available_exprs () =
  (* the same pure expression on both arms is available (and redundant)
     when recomputed at the join *)
  let m =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let c = Builder.icmp b Instr.Slt Types.I64 (Value.ci64 1) (Value.ci64 2) in
        Builder.cbr b c "left" "right";
        Builder.block b "left";
        let _ = Builder.add b Types.I64 (Value.ci64 4) (Value.ci64 5) in
        Builder.br b "join";
        Builder.block b "right";
        let _ = Builder.add b Types.I64 (Value.ci64 4) (Value.ci64 5) in
        Builder.br b "join";
        Builder.block b "join";
        let again = Builder.add b Types.I64 (Value.ci64 4) (Value.ci64 5) in
        Builder.ret b Types.I64 again)
  in
  let f = Testutil.main_func m in
  let av = A.Available.of_func f in
  let red = A.Available.redundant av f in
  Alcotest.(check bool) "join recompute flagged" true
    (List.exists (fun (blk, _) -> String.equal blk "join") red)

let test_effects_summary () =
  let m = Testutil.sum_squares_module () in
  let s = A.Effects.summarize m in
  Alcotest.(check string) "square is pure" "pure"
    (A.Effects.effect_to_string (A.Effects.effect_of s "square"));
  Alcotest.(check string) "main reads+writes memory" "readwrite"
    (A.Effects.effect_to_string (A.Effects.effect_of s "main"))

(* --- delta minimizer ------------------------------------------------------- *)

let test_delta_minimize () =
  (* three functions; the predicate only needs "bad", which drags an
     unreachable junk block the minimizer must also drop *)
  let simple name =
    let b = Builder.create ~name ~params:[] ~ret:Types.I64 () in
    Builder.block b "entry";
    Builder.ret b Types.I64 (Value.ci64 1);
    Builder.finish b
  in
  let bad =
    let b = Builder.create ~name:"bad" ~params:[] ~ret:Types.I64 () in
    Builder.block b "entry";
    Builder.ret b Types.I64 (Value.ci64 7);
    Builder.block b "junk";
    Builder.ret b Types.I64 (Value.ci64 8);
    Builder.finish b
  in
  let m = Modul.mk ~name:"delta" [ simple "keep1"; bad; simple "keep2" ] in
  let valid c = Verifier.verify_module c = [] in
  let check c = Option.is_some (Modul.find_func c "bad") in
  let mini = A.Delta.minimize ~valid ~check m in
  Alcotest.(check int) "only bad survives" 1 (List.length mini.Modul.funcs);
  let bad' = Modul.find_func_exn mini "bad" in
  Alcotest.(check int) "junk block dropped" 1 (List.length bad'.Func.blocks);
  Alcotest.(check bool) "minimized module still valid" true (valid mini)

(* --- sanitizer vs a seeded miscompile -------------------------------------- *)

(* Deliberately broken transform: sink the entry block's first def into
   the next block. Uses in other blocks become undominated — the IR
   stays structurally valid (the def still exists) but violates SSA
   dominance. *)
let sink_pass : P.Pass.t =
  P.Pass.mk "sink-bug" ~description:"moves a def below some of its uses"
    (fun _ m ->
      Modul.map_defined
        (fun (f : Func.t) ->
          match f.Func.blocks with
          | ({ Block.insns = i :: tl; _ } as entry) :: next :: rest
            when i.Instr.id >= 0 ->
            let entry' = { entry with Block.insns = tl } in
            let next' = { next with Block.insns = next.Block.insns @ [ i ] } in
            Func.with_blocks f (entry' :: next' :: rest)
          | _ -> f)
        m)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_sanitizer_catches_miscompile () =
  let m = diamond_module () in
  (* the broken output is structurally fine — only dominance sees it *)
  let broken = sink_pass.P.Pass.run P.Config.oz m in
  Alcotest.(check bool) "structural verifier is blind to the bug" true
    (Verifier.verify_module broken = []);
  Alcotest.(check bool) "dominance check sees the bug" true
    (Verifier.verify_module ~dom:true broken <> []);
  match P.Pass_manager.run_pass ~sanitize:A.Sanitize.Ssa sink_pass P.Config.oz m with
  | _ -> Alcotest.fail "sanitizer did not catch the sunk def"
  | exception A.Sanitize.Failed { pass; level; errors; repro } ->
    Alcotest.(check string) "failure names the pass" "sink-bug" pass;
    Alcotest.(check bool) "failure names the level" true (level = A.Sanitize.Ssa);
    Alcotest.(check bool) "failure carries errors" true (errors <> []);
    let repro =
      match repro with
      | Some r -> r
      | None -> Alcotest.fail "no minimized repro"
    in
    (* the written .mir parses back to the minimized module *)
    let dir = Filename.concat (Filename.get_temp_dir_name ()) "posetrl-test-repros" in
    let path = A.Sanitize.write_repro ~dir ~pass ~level ~errors repro in
    Alcotest.(check string) "repro file name"
      ("sanitize-sink-bug-" ^ repro.Modul.name ^ ".mir")
      (Filename.basename path);
    let repro = Parser.parse_module (read_file path) in
    Alcotest.(check bool) "repro input is itself dominance-clean" true
      (Verifier.verify_module ~dom:true repro = []);
    (* the minimized repro re-fails: running the pass on it still
       produces dominance-invalid IR *)
    let out = sink_pass.P.Pass.run P.Config.oz repro in
    Alcotest.(check bool) "repro re-fails dominance verification" true
      (Verifier.verify_module ~dom:true out <> []);
    Alcotest.(check bool) "structural sanitize level would miss it" true
      (A.Sanitize.check_module A.Sanitize.Structural out = [])

let test_sanitize_levels () =
  Alcotest.(check bool) "off level checks nothing" true
    (A.Sanitize.check_module A.Sanitize.Off (diamond_module ()) = []);
  (match A.Sanitize.level_of_string "ssa" with
   | Ok A.Sanitize.Ssa -> ()
   | _ -> Alcotest.fail "ssa level parse");
  (match A.Sanitize.level_of_string "bogus" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bogus level accepted")

(* --- dce/dse ports: byte-identical vs the pre-port implementations --------- *)

(* Verbatim copy of the adce mark/sweep as it existed before the port to
   Usedef.demand_closure. *)
let legacy_adce (f : Func.t) : Func.t =
  let defs = Func.def_map f in
  let live = Hashtbl.create 64 in
  let work = Queue.create () in
  let mark v =
    match v with
    | Value.Reg r when not (Hashtbl.mem live r) ->
      Hashtbl.replace live r ();
      Queue.add r work
    | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter mark (Instr.term_operands b.Block.term);
      List.iter
        (fun (i : Instr.t) ->
          if Instr.has_side_effects i.Instr.op then begin
            if i.Instr.id >= 0 then begin
              Hashtbl.replace live i.Instr.id ();
              Queue.add i.Instr.id work
            end;
            List.iter mark (Instr.operands i.Instr.op)
          end)
        b.Block.insns)
    f.Func.blocks;
  while not (Queue.is_empty work) do
    let r = Queue.pop work in
    match Hashtbl.find_opt defs r with
    | Some (_, i) -> List.iter mark (Instr.operands i.Instr.op)
    | None -> ()
  done;
  let keep (i : Instr.t) =
    if i.Instr.id < 0 then true
    else Hashtbl.mem live i.Instr.id || Instr.has_side_effects i.Instr.op
  in
  Func.map_blocks (Block.filter_insns keep) f

(* Verbatim copy of the dse body as it existed before the port to the
   Effects helpers. *)
let legacy_dse (f : Func.t) : Func.t =
  let allocas =
    Func.fold_insns
      (fun acc _ i ->
        match i.Instr.op with Instr.Alloca _ -> ISet.add i.Instr.id acc | _ -> acc)
      ISet.empty f
  in
  let escaped = ref ISet.empty in
  let check v =
    match v with
    | Value.Reg r when ISet.mem r allocas -> escaped := ISet.add r !escaped
    | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Load (_, _) -> ()
          | Instr.Store (_, v, _) -> check v
          | Instr.Gep (_, base, idx) -> check base; check idx
          | op -> List.iter check (Instr.operands op))
        b.Block.insns;
      List.iter check (Instr.term_operands b.Block.term))
    f.Func.blocks;
  let priv = ISet.diff allocas !escaped in
  let loaded = ref ISet.empty in
  let gep_based = ref ISet.empty in
  Func.iter_insns
    (fun _ i ->
      match i.Instr.op with
      | Instr.Load (_, Value.Reg r) -> loaded := ISet.add r !loaded
      | Instr.Gep (_, Value.Reg r, _) -> gep_based := ISet.add r !gep_based
      | Instr.Memcpy (_, Value.Reg r, _) -> loaded := ISet.add r !loaded
      | _ -> ())
    f;
  let never_read r =
    ISet.mem r priv && (not (ISet.mem r !loaded)) && not (ISet.mem r !gep_based)
  in
  let rewrite_block (b : Block.t) =
    let pending : (Value.t, int ref) Hashtbl.t = Hashtbl.create 8 in
    let dead : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iteri
      (fun idx (i : Instr.t) ->
        match i.Instr.op with
        | Instr.Store (_, _, p) ->
          (match Hashtbl.find_opt pending p with
           | Some prev -> Hashtbl.replace dead !prev ()
           | None -> ());
          Hashtbl.replace pending p (ref idx)
        | Instr.Load _ | Instr.Call _ | Instr.Callind _ | Instr.Memcpy _ ->
          Hashtbl.reset pending
        | _ -> ())
      b.Block.insns;
    let insns =
      List.filteri (fun idx _ -> not (Hashtbl.mem dead idx)) b.Block.insns
    in
    { b with Block.insns }
  in
  let f = Func.map_blocks rewrite_block f in
  let keep (i : Instr.t) =
    match i.Instr.op with
    | Instr.Store (_, _, Value.Reg r) when never_read r -> false
    | _ -> true
  in
  let f = Func.map_blocks (Block.filter_insns keep) f in
  P.Utils.trivial_dce f

let check_port_identical ~(pass : string) ~(legacy : Func.t -> Func.t)
    (progs : (string * Modul.t) list) =
  let p = P.Registry.find_exn pass in
  List.iter
    (fun (name, m) ->
      let ported = p.P.Pass.run P.Config.oz m in
      let reference = Modul.map_defined legacy m in
      Alcotest.(check string)
        (Printf.sprintf "%s on %s is byte-identical to the pre-port pass" pass name)
        (Printer.module_to_string reference)
        (Printer.module_to_string ported))
    progs

let port_corpus () =
  W.Suites.all_programs ()
  @ [ ("fixture/sum_squares", Testutil.sum_squares_module ()) ]
  @ List.init 8 (fun k -> (Printf.sprintf "gen/%d" k, W.Genprog.generate ~seed:(900 + k)))

let test_adce_port_identical () =
  check_port_identical ~pass:"adce" ~legacy:legacy_adce (port_corpus ())

let test_dse_port_identical () =
  check_port_identical ~pass:"dse" ~legacy:legacy_dse (port_corpus ())

(* --- lint ------------------------------------------------------------------ *)

let test_lint_flags_dead_store () =
  let m =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        Builder.store b Types.I64 (Value.ci64 2) p;
        let v = Builder.load b Types.I64 p in
        Builder.ret b Types.I64 v)
  in
  let fs = A.Lint.lint_module m in
  Alcotest.(check bool) "dead store reported" true
    (List.exists (fun (f : A.Lint.finding) -> f.A.Lint.rule = "dead-store") fs)

(* may-alias-store-conflict: stores to distinct constant offsets of one
   gep base are apart; stores through two pointer parameters are not *)
let test_lint_may_alias_stores () =
  let conflicts src =
    List.filter
      (fun (f : A.Lint.finding) -> f.A.Lint.rule = "may-alias-store-conflict")
      (A.Lint.lint_module (Parser.parse_module src))
  in
  let func body = "module t\n\nfunc @f(%0: ptr, %1: ptr): i64 {\nentry:\n" ^ body ^ "  ret i64 0\n}\n" in
  Alcotest.(check int) "distinct constant offsets of one base" 0
    (List.length
       (conflicts
          (func
             "  %2 = gep i64 %0, 1\n  %3 = gep i64 %0, 2\n\
              store i64 1, %2\n  store i64 2, %3\n")));
  match conflicts (func "  store i64 1, %0\n  store i64 2, %1\n") with
  | [ g ] ->
    Alcotest.(check string) "severity" "info" (A.Lint.severity_to_string g.A.Lint.severity);
    Alcotest.(check string) "message"
      "1 store pair may alias (e.g. %0 vs %1): their order must be kept" g.A.Lint.message
  | gs -> Alcotest.failf "expected one finding for two parameters, got %d" (List.length gs)

let test_lint_flags_undominated_use () =
  let broken = sink_pass.P.Pass.run P.Config.oz (diamond_module ()) in
  let fs = A.Lint.lint_module broken in
  Alcotest.(check bool) "undominated use reported as error" true
    (List.exists
       (fun (f : A.Lint.finding) ->
         f.A.Lint.rule = "undominated-use" && f.A.Lint.severity = A.Lint.Error)
       fs)

let test_lint_suite_oz_zero_errors () =
  (* the full-suite run is CI's job (posetrl lint --suite -O Oz
     --fail-on error); here a sample of each suite keeps runtest fast *)
  let sample = [ "541.leela"; "462.libquantum"; "crc32"; "sha"; "fft" ] in
  List.iter
    (fun name ->
      match W.Suites.find_program name with
      | None -> Alcotest.fail ("unknown sample program " ^ name)
      | Some mk ->
        let m = P.Pass_manager.run_level P.Pipelines.Oz (mk ()) in
        let fs = A.Lint.lint_module m in
        Alcotest.(check int)
          (name ^ " at -Oz lints with zero errors")
          0 (A.Lint.count A.Lint.Error fs))
    sample

(* --- domain safety: parallel sanitized evaluation -------------------------- *)

let test_parallel_sanitize_deterministic () =
  let progs =
    Array.of_list
      [ ("crc32", Option.get (W.Suites.find_program "crc32"));
        ("sha", Option.get (W.Suites.find_program "sha"));
        ("fft", Option.get (W.Suites.find_program "fft"));
        ("dijkstra", Option.get (W.Suites.find_program "dijkstra")) ]
  in
  let work (name, mk) =
    let m = mk () in
    let m' = P.Pass_manager.run_level ~sanitize:A.Sanitize.Ssa P.Pipelines.Oz m in
    let fs = A.Lint.lint_module m' in
    (name, Modul.insn_count m', List.length fs, A.Lint.count A.Lint.Error fs)
  in
  let seq = Array.map work progs in
  let par = Pool.with_pool ~name:"test-analysis" ~jobs:4 (fun p -> Pool.map p work progs) in
  Alcotest.(check bool) "parallel sanitized runs = sequential" true (seq = par)

(* --- solver guard ---------------------------------------------------------- *)

let test_solver_rejects_non_monotone () =
  let module Osc = struct
    type t = int

    let bottom = 0
    let equal = Int.equal
    let join = max
  end in
  let module S = A.Dataflow.Make (Osc) in
  let m = Testutil.sum_squares_module () in
  let f = Modul.find_func_exn m "main" in
  (* transfer that never stabilizes: strictly increases every visit *)
  let counter = ref 0 in
  let transfer _ x = incr counter; x + 1 in
  match S.solve ~transfer f with
  | _ -> Alcotest.fail "non-monotone transfer reached a fixpoint"
  | exception Failure msg ->
    Alcotest.(check bool) "diagnostic names the solver" true
      (String.length msg > 0)

(* --- alias analysis -------------------------------------------------------- *)

let test_alias_facts () =
  let m =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let a = Builder.alloca b Types.I64 1 in
        let c = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) a;
        Builder.store b Types.I64 (Value.ci64 2) c;
        let v = Builder.load b Types.I64 a in
        Builder.ret b Types.I64 v)
  in
  let f = Testutil.main_func m in
  let fi = A.Alias.of_func f in
  Alcotest.(check bool) "distinct allocas do not alias" false
    (let p, q =
       match (List.hd f.Func.blocks).Block.insns with
       | a :: c :: _ -> (Value.Reg a.Instr.id, Value.Reg c.Instr.id)
       | _ -> Alcotest.fail "expected two allocas"
     in
     A.Alias.may_alias fi p q);
  Alcotest.(check bool) "a pointer always may-alias itself" true
    (let p = Value.Reg (List.hd (List.hd f.Func.blocks).Block.insns).Instr.id in
     A.Alias.may_alias fi p p);
  (* in @f, %1 never leaves the function and %2 is passed to @ext; %0 is
     caller memory, which a call may also reach *)
  Alcotest.(check bool) "non-escaping allocas are invisible to calls" false
    (let m =
       Parser.parse_module
         "module t\n\nfunc @ext(%0: ptr): i64 {\nentry:\n  ret i64 0\n}\n\n\
          func @f(%0: ptr): i64 {\nentry:\n  %1 = alloca i64 x 1\n\
          %2 = alloca i64 x 1\n  %3 = call i64 @ext(%2)\n  ret i64 %3\n}\n"
     in
     let fi = A.Alias.of_func (Modul.find_func_exn m "f") in
     Alcotest.(check bool) "an escaped alloca may alias a pointer parameter"
       true
       (A.Alias.may_alias fi (Value.Reg 2) (Value.Reg 0));
     A.Alias.may_alias fi (Value.Reg 1) (Value.Reg 0))

(* --- abstract interpretation ---------------------------------------------- *)

(* constant condition: the else arm is provably dead *)
let const_branch_module () : Modul.t =
  Testutil.wrap_main (fun b ->
      Builder.block b "entry";
      let x = Builder.add b Types.I64 (Value.ci64 3) (Value.ci64 4) in
      let c = Builder.icmp b Instr.Slt Types.I64 x (Value.ci64 100) in
      Builder.cbr b c "then" "else";
      Builder.block b "then";
      let l = Builder.add b Types.I64 x (Value.ci64 1) in
      Builder.br b "join";
      Builder.block b "else";
      let r = Builder.mul b Types.I64 x (Value.ci64 2) in
      Builder.br b "join";
      Builder.block b "join";
      let p = Builder.phi b Types.I64 [ ("then", l); ("else", r) ] in
      Builder.ret b Types.I64 p)

let test_absint_constant_branch () =
  let f = Testutil.main_func (const_branch_module ()) in
  let ai = A.Absint.of_func f in
  Alcotest.(check bool) "else arm is unreachable" false
    (A.Absint.reachable ai "else");
  Alcotest.(check bool) "then arm is reachable" true
    (A.Absint.reachable ai "then");
  (match (List.hd f.Func.blocks).Block.insns with
   | x :: _ ->
     Alcotest.(check bool) "3 + 4 evaluates to the singleton [7, 7]" true
       (match A.Absint.val_of ai x.Instr.id with
        | A.Absint.Range (lo, hi) -> Int64.equal lo 7L && Int64.equal hi 7L
        | _ -> false)
   | [] -> Alcotest.fail "empty entry")

(* A phi of -0.0 and 0.0 under an unknown branch is no single constant:
   the join compares float constants by bit pattern. *)
let test_absint_signed_zero_join () =
  let z = A.Absint.Fconst (-0.0) and p = A.Absint.Fconst 0.0 in
  let is_const = function A.Absint.Fconst _ -> true | _ -> false in
  Alcotest.(check bool) "-0.0 and 0.0 differ" false (A.Absint.aval_equal z p);
  Alcotest.(check bool) "join -0.0 0.0 is not a constant" false
    (is_const (A.Absint.join_aval z p));
  Alcotest.(check bool) "join 0.0 -0.0 is not a constant" false
    (is_const (A.Absint.join_aval p z));
  Alcotest.(check bool) "join of equal bits stays constant" true
    (A.Absint.aval_equal z (A.Absint.join_aval z z));
  let b =
    Builder.create ~name:"f" ~params:[ Types.I64 ] ~ret:Types.F64 ()
  in
  Builder.block b "entry";
  let c = Builder.icmp b Instr.Eq Types.I64 (Builder.param b 0) (Value.ci64 0) in
  Builder.cbr b c "then" "else";
  Builder.block b "then";
  Builder.br b "join";
  Builder.block b "else";
  Builder.br b "join";
  Builder.block b "join";
  let phi =
    Builder.phi b Types.F64
      [ ("then", Value.cfloat (-0.0)); ("else", Value.cfloat 0.0) ]
  in
  Builder.ret b Types.F64 phi;
  let f = Builder.finish b in
  match phi with
  | Value.Reg r ->
    Alcotest.(check bool) "phi of both zeros is not a constant" false
      (is_const (A.Absint.val_of (A.Absint.of_func f) r))
  | _ -> Alcotest.fail "phi is not a register"

let test_absint_lint_rules () =
  let f = Testutil.main_func (const_branch_module ()) in
  let fs = A.Lint.absint_findings f in
  let has rule = List.exists (fun (g : A.Lint.finding) -> g.A.Lint.rule = rule) fs in
  Alcotest.(check bool) "dead-branch fires on a constant condition" true
    (has "dead-branch");
  Alcotest.(check bool) "contradicted-range flags the dead arm" true
    (has "contradicted-range");
  List.iter
    (fun (g : A.Lint.finding) ->
      Alcotest.(check bool) "range rules never reach error severity" true
        (g.A.Lint.severity <> A.Lint.Error))
    fs

(* Soundness: every concrete integer value a register takes during a
   real execution must be contained in its abstract value. Checked by
   hooking the interpreter's register assignments on generated
   programs. *)
let absint_sound (m : Modul.t) : bool =
  let ais =
    List.fold_left
      (fun acc (f : Func.t) -> SMap.add f.Func.name (A.Absint.of_func f) acc)
      SMap.empty (Modul.defined_funcs m)
  in
  let module I = Posetrl_interp.Interp in
  let bad = ref None in
  let on_assign ~fname r v =
    match v, !bad with
    | I.VInt k, None -> (
      match SMap.find_opt fname ais with
      | None -> ()
      | Some ai -> (
        match A.Absint.val_of ai r with
        | A.Absint.Bot ->
          bad := Some (Printf.sprintf "@%s %%%d: concrete %Ld but Bot" fname r k)
        | av ->
          if not (A.Absint.contains_int av k) then
            bad :=
              Some
                (Printf.sprintf "@%s %%%d: concrete %Ld outside %s" fname r k
                   (A.Absint.aval_to_string av))))
    | _ -> ()
  in
  (try ignore (I.run ~fuel:200_000 ~on_assign m) with I.Trap _ -> ());
  match !bad with
  | None -> true
  | Some msg ->
    QCheck2.Test.fail_reportf "absint unsound on %s: %s" m.Modul.name msg

let prop_absint_sound =
  QCheck2.Test.make ~count:60
    ~print:QCheck2.Print.int
    ~name:"absint over-approximates every concrete register value"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let m =
        if seed mod 2 = 0 then W.Templates.generate ~seed
        else W.Genprog.generate ~seed
      in
      absint_sound m)

let test_absint_sound_on_suites () =
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ ": absint sound on concrete run") true
        (absint_sound m))
    (List.filteri (fun i _ -> i < 8) (W.Suites.all_programs ()))

(* --- translation validation (equiv tier) ----------------------------------- *)

(* [P.Sink.pass] miscompiles (add -> sub) while keeping the module
   perfectly well-formed: the Ssa tier must accept it, the Equiv tier
   must reject it and write a behavioural repro. *)
let test_equiv_catches_semantic_miscompile () =
  let m = diamond_module () in
  (match
     P.Pass_manager.run_pass ~sanitize:A.Sanitize.Ssa P.Sink.pass P.Config.oz m
   with
  | _ -> ()
  | exception A.Sanitize.Failed _ ->
    Alcotest.fail "ssa tier should be blind to a semantic-only bug");
  match
    P.Pass_manager.run_pass ~sanitize:A.Sanitize.Equiv P.Sink.pass P.Config.oz m
  with
  | _ -> Alcotest.fail "equiv tier missed the miscompile"
  | exception A.Sanitize.Failed { pass; errors; repro; _ } ->
    Alcotest.(check string) "failure names the pass" "sink" pass;
    Alcotest.(check bool) "errors mention translation validation" true
      (List.exists
         (fun (e : Verifier.error) ->
           String.length e.Verifier.message >= 22
           && String.sub e.Verifier.message 0 22 = "translation validation")
         errors);
    let repro =
      match repro with
      | Some r -> r
      | None -> Alcotest.fail "no minimized repro"
    in
    (* the minimized repro still diverges under the pass *)
    let out = P.Sink.pass.P.Pass.run P.Config.oz repro in
    Alcotest.(check bool) "repro re-fails translation validation" true
      (A.Sanitize.check_transform A.Sanitize.Equiv ~before:repro out <> [])

(* main prints -0.0 + z: -0.000000 for z = -0.0, 0.000000 for z = 0.0.
   Polymorphic compare equates the two modules; validation must not. *)
let test_equiv_sees_signed_zero () =
  let prog z =
    let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
    Builder.block b "entry";
    let r = Builder.fadd b (Value.cfloat (-0.0)) (Value.cfloat z) in
    ignore (Builder.call b Types.I64 "print_f64" [ r ]);
    Builder.ret b Types.I64 (Value.ci64 0);
    Modul.mk ~name:"signed_zero" [ Builder.finish b ]
  in
  let before = prog (-0.0) and after = prog 0.0 in
  Alcotest.(check bool) "modules differ" false (Modul.equal before after);
  Alcotest.(check (list string)) "mismatch through main" [ "main" ]
    (List.map (fun (m : A.Equiv.mismatch) -> m.A.Equiv.func)
       (A.Equiv.validate ~before after))

let test_equiv_accepts_behavior_preserving_pipeline () =
  (* smallest two suite programs through full pipelines under the equiv
     tier; the whole-suite sweep is the CI `posetrl validate` job *)
  let progs =
    List.sort
      (fun (_, a) (_, b) -> compare (Modul.insn_count a) (Modul.insn_count b))
      (W.Suites.all_programs ())
  in
  let progs = List.filteri (fun i _ -> i < 2) progs in
  List.iter
    (fun level ->
      List.iter
        (fun (name, m) ->
          match P.Pass_manager.run_level ~sanitize:A.Sanitize.Equiv level m with
          | _ -> ()
          | exception A.Sanitize.Failed { pass; _ } ->
            Alcotest.fail
              (Printf.sprintf "%s at %s: pass %s flagged by equiv tier" name
                 (P.Pipelines.level_to_string level)
                 pass))
        progs)
    [ P.Pipelines.O2; P.Pipelines.Oz ]

(* --- lint json golden ------------------------------------------------------ *)

let test_lint_json_golden () =
  let m =
    { (const_branch_module ()) with Modul.name = "golden" }
  in
  let got =
    Posetrl_obs.Json.to_string (A.Lint.to_json ~name:"golden" (A.Lint.lint_module m))
  in
  let expected =
    "{\"kind\":\"lint-report\",\"module\":\"golden\",\"errors\":0,\"warnings\":2,\"infos\":1,\"findings\":[{\"severity\":\"warning\",\"rule\":\"contradicted-range\",\"func\":\"main\",\"block\":\"else\",\"message\":\"value ranges prove the path conditions contradict: block cannot execute\"},{\"severity\":\"warning\",\"rule\":\"dead-branch\",\"func\":\"main\",\"block\":\"entry\",\"message\":\"condition %1 is always true: the edge to else is dead\"},{\"severity\":\"info\",\"rule\":\"missing-purity-attr\",\"func\":\"main\",\"block\":null,\"message\":\"body is pure but carries no purity attribute\"}]}"
  in
  Alcotest.(check string) "lint --json output is byte-stable" expected got

let suite =
  [ QCheck_alcotest.to_alcotest prop_available_eq_brute;
    Alcotest.test_case "available expressions = brute force on all suites" `Quick
      test_available_on_suites;
    Alcotest.test_case "available expressions flag a redundant recompute" `Quick
      test_available_exprs;
    Alcotest.test_case "effect summaries over the callgraph" `Quick
      test_effects_summary;
    Alcotest.test_case "delta minimizer shrinks to the failing function" `Quick
      test_delta_minimize;
    Alcotest.test_case "sanitizer catches a seeded miscompile with repro" `Quick
      test_sanitizer_catches_miscompile;
    Alcotest.test_case "sanitize levels parse and gate" `Quick test_sanitize_levels;
    Alcotest.test_case "adce port byte-identical" `Slow test_adce_port_identical;
    Alcotest.test_case "dse port byte-identical" `Slow test_dse_port_identical;
    Alcotest.test_case "lint flags a dead store" `Quick test_lint_flags_dead_store;
    Alcotest.test_case "lint flags an undominated use as error" `Quick
      test_lint_flags_undominated_use;
    Alcotest.test_case "lint: may-alias stores, offsets apart and parameters not" `Quick
      test_lint_may_alias_stores;
    Alcotest.test_case "lint: sampled suites at -Oz have zero errors" `Slow
      test_lint_suite_oz_zero_errors;
    Alcotest.test_case "sanitized evaluation is pool-deterministic" `Slow
      test_parallel_sanitize_deterministic;
    Alcotest.test_case "solver budget rejects non-monotone transfers" `Quick
      test_solver_rejects_non_monotone;
    Alcotest.test_case "alias: points-to facts on allocas" `Quick test_alias_facts;
    Alcotest.test_case "absint: constant branch folds to a singleton" `Quick
      test_absint_constant_branch;
    Alcotest.test_case "absint: joining -0.0 and 0.0 is not a constant" `Quick
      test_absint_signed_zero_join;
    Alcotest.test_case "lint: range rules fire on a constant branch" `Quick
      test_absint_lint_rules;
    QCheck_alcotest.to_alcotest prop_absint_sound;
    Alcotest.test_case "absint sound on suite programs (sampled)" `Slow
      test_absint_sound_on_suites;
    Alcotest.test_case "equiv tier catches a semantic miscompile" `Quick
      test_equiv_catches_semantic_miscompile;
    Alcotest.test_case "equiv tier sees a flipped sign of zero" `Quick
      test_equiv_sees_signed_zero;
    Alcotest.test_case "equiv tier accepts real pipelines (sampled)" `Slow
      test_equiv_accepts_behavior_preserving_pipeline;
    Alcotest.test_case "lint --json golden is byte-stable" `Quick
      test_lint_json_golden ]
