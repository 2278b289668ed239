(* Tests for the IR2Vec-style encoder. *)

open Posetrl_ir
module V = Posetrl_ir2vec.Vocabulary
module E = Posetrl_ir2vec.Encoder
module Vecf = Posetrl_support.Vecf

let test_dimension () =
  Alcotest.(check int) "300-dim" 300 V.dimension;
  let m = Testutil.sum_squares_module () in
  Alcotest.(check int) "program embedding 300-dim" 300 (Vecf.dim (E.embed_program m))

let test_vocabulary_deterministic () =
  let a = V.opcode "add" and b = V.opcode "add" in
  Alcotest.(check bool) "same entity same vector" true (a == b || a = b);
  let c = V.opcode "mul" in
  Alcotest.(check bool) "different entities differ" true (Vecf.cosine a c < 0.5)

let test_vocabulary_namespaces () =
  (* an opcode named like a type must not collide *)
  let a = V.opcode "i64" and b = V.ty "i64" in
  Alcotest.(check bool) "namespaced" true (Vecf.cosine a b < 0.5)

let test_embedding_changes_with_program () =
  let m1 = Testutil.sum_squares_module () in
  let m2 = Posetrl_workloads.Mibench.crc32 () in
  let e1 = E.embed_program m1 and e2 = E.embed_program m2 in
  Alcotest.(check bool) "different programs differ" true (Vecf.cosine e1 e2 < 0.999)

let test_embedding_changes_under_optimization () =
  let m = Testutil.sum_squares_module () in
  let m' = Posetrl_passes.Pass_manager.run_level Posetrl_passes.Pipelines.Oz m in
  let e = E.embed_program m and e' = E.embed_program m' in
  Alcotest.(check bool) "optimization moves the embedding" true
    (Vecf.norm2 (Vecf.sub e e') > 1e-6)

let test_flow_sensitivity () =
  (* same multiset of instructions, different data flow: y uses x vs y uses
     a constant — flow-aware refinement must separate them *)
  let mk flow =
    Testutil.wrap_main (fun b ->
        Builder.block b "entry";
        let p = Builder.alloca b Types.I64 1 in
        Builder.store b Types.I64 (Value.ci64 1) p;
        let x = Builder.load b Types.I64 p in
        let a = Builder.add b Types.I64 x (Value.ci64 1) in
        let y =
          if flow then Builder.mul b Types.I64 a a
          else Builder.mul b Types.I64 x x
        in
        let z = Builder.add b Types.I64 y a in
        Builder.ret b Types.I64 z)
  in
  let e1 = E.embed_program (mk true) and e2 = E.embed_program (mk false) in
  Alcotest.(check bool) "flow-aware distinguishes" true
    (Vecf.norm2 (Vecf.sub e1 e2) > 1e-6)

let test_state_bounded () =
  List.iter
    (fun (name, m) ->
      let s = E.embed_program_state m in
      Alcotest.(check bool) (name ^ " state in unit ball") true (Vecf.norm2 s < 1.0))
    (Posetrl_workloads.Suites.all_programs ())

let test_empty_module () =
  let m = Modul.mk ~name:"empty" [] in
  let e = E.embed_program m in
  Alcotest.(check (float 0.0)) "zero vector" 0.0 (Vecf.norm2 e)

let test_declaration_contributes_nothing () =
  let decl = Func.declare ~name:"ext" ~params:[ Types.I64 ] ~ret:Types.I64 () in
  let m = Modul.mk ~name:"decls" [ decl ] in
  Alcotest.(check (float 0.0)) "decl-only module is zero" 0.0
    (Vecf.norm2 (E.embed_program m))

let prop_embedding_deterministic =
  QCheck2.Test.make ~count:40 ~name:"embedding deterministic per program"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 500_000 520_000)
    (fun seed ->
      let m = Posetrl_workloads.Genprog.generate ~seed in
      let a = E.embed_program m and b = E.embed_program m in
      a = b)

(* --- the memoized encoder against the unmemoized formula ----------------------- *)

(* IR2Vec's composition as first written: seed vectors from [Vocabulary]
   and a fresh vector per instruction. *)
module Ref = struct
  let operand_kind (v : Value.t) =
    match v with
    | Value.Const (Value.Cint _) -> "const-int"
    | Value.Const (Value.Cfloat _) -> "const-float"
    | Value.Const Value.Cnull -> "const-null"
    | Value.Const (Value.Cundef _) -> "undef"
    | Value.Reg _ -> "variable"
    | Value.Global _ -> "global"

  let base_insn (op : Instr.op) =
    let acc = Vecf.create V.dimension in
    Vecf.axpy ~k:1.0 acc (V.opcode (Instr.opcode_name op));
    Vecf.axpy ~k:0.5 acc (V.ty (Types.to_string (Instr.result_ty op)));
    List.iter
      (fun v -> Vecf.axpy ~k:0.2 acc (V.operand_kind (operand_kind v)))
      (Instr.operands op);
    acc

  let base_term (t : Instr.term) =
    let acc = Vecf.create V.dimension in
    Vecf.axpy ~k:1.0 acc (V.opcode (Instr.term_name t));
    List.iter
      (fun v -> Vecf.axpy ~k:0.2 acc (V.operand_kind (operand_kind v)))
      (Instr.term_operands t);
    acc

  let embed_func (f : Func.t) =
    let base = Hashtbl.create 64 in
    Func.iter_insns
      (fun _ i -> if i.Instr.id >= 0 then Hashtbl.replace base i.Instr.id (base_insn i.Instr.op))
      f;
    let acc = Vecf.create V.dimension in
    let refine v operands =
      List.iter
        (function
          | Value.Reg r ->
            Option.iter (fun def -> Vecf.axpy ~k:0.25 v def) (Hashtbl.find_opt base r)
          | _ -> ())
        operands;
      Vecf.add_inplace acc v
    in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            let self =
              if i.Instr.id >= 0 then Hashtbl.find base i.Instr.id else base_insn i.Instr.op
            in
            refine (Vecf.copy self) (Instr.operands i.Instr.op))
          b.Block.insns;
        refine (base_term b.Block.term) (Instr.term_operands b.Block.term))
      f.Func.blocks;
    acc

  let embed_program (m : Modul.t) =
    let acc = Vecf.create V.dimension in
    List.iter
      (fun f -> if not (Func.is_declaration f) then Vecf.add_inplace acc (embed_func f))
      m.Modul.funcs;
    acc

  let embed_program_state m =
    let e = embed_program m in
    let n = Vecf.norm2 e in
    if n < 1e-9 then e else Vecf.scale (1.0 /. (1.0 +. n)) e
end

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let check_matches_ref name m =
  Alcotest.(check bool) (name ^ ": embed_program") true
    (same_bits (E.embed_program m) (Ref.embed_program m));
  Alcotest.(check bool) (name ^ ": embed_program_state") true
    (same_bits (E.embed_program_state m) (Ref.embed_program_state m))

(* the 31 validation programs and 24 training-corpus programs, raw and
   at -Oz *)
let memo_programs =
  lazy
    (let raw =
       Posetrl_workloads.Suites.all_programs ()
       @ List.mapi
           (fun i m -> (Printf.sprintf "corpus %d" i, m))
           (Array.to_list (Posetrl_workloads.Suites.training_corpus ~n:24 ()))
     in
     raw
     @ List.map
         (fun (name, m) ->
           ( name ^ " -Oz",
             Posetrl_passes.Pass_manager.run_level Posetrl_passes.Pipelines.Oz m ))
         raw)

let test_memo_matches_reference () =
  let progs = Lazy.force memo_programs in
  Alcotest.(check int) "110 modules" 110 (List.length progs);
  List.iter (fun (name, m) -> check_matches_ref name m) progs

let prop_memo_matches_reference_genprog =
  QCheck2.Test.make ~count:40 ~name:"memoized embedding = reference on generated programs"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 600_000 620_000)
    (fun seed ->
      let m = Posetrl_workloads.Genprog.generate ~seed in
      same_bits (E.embed_program m) (Ref.embed_program m)
      && same_bits (E.embed_program_state m) (Ref.embed_program_state m))

let test_memo_second_domain () =
  let ms = List.map snd (Lazy.force memo_programs) in
  let here = List.map E.embed_program_state ms in
  let there = Domain.join (Domain.spawn (fun () -> List.map E.embed_program_state ms)) in
  Alcotest.(check bool) "same bits on a second domain" true (List.for_all2 same_bits here there)

(* one load per vector width: each width is a new seed-cache entity
   ("type:<n x i64>") and a new base-embedding key *)
let wide_module ~widths =
  Testutil.wrap_main (fun b ->
      Builder.block b "entry";
      let p = Builder.alloca b Types.I64 1 in
      for n = 1 to widths do
        ignore (Builder.load b (Types.Vec (Types.I64, n)) p)
      done;
      Builder.ret b Types.I64 (Value.ci64 0))

let test_memo_tables_capped () =
  let cap = V.max_entries in
  let sum_squares = Testutil.sum_squares_module () in
  let before = E.embed_program_state sum_squares in
  for round = 1 to 3 do
    let m = wide_module ~widths:(cap + 100 * round) in
    check_matches_ref (Printf.sprintf "%d widths" (cap + 100 * round)) m;
    Alcotest.(check bool) "seed cache capped" true (V.cache_entries () <= cap);
    Alcotest.(check bool) "base memo capped" true (E.memo_entries () <= cap)
  done;
  Alcotest.(check bool) "embeddings keep their bits" true
    (same_bits before (E.embed_program_state sum_squares));
  check_matches_ref "sum_squares after clearing" sum_squares

let suite =
  [ Alcotest.test_case "dimension" `Quick test_dimension;
    Alcotest.test_case "vocabulary deterministic" `Quick test_vocabulary_deterministic;
    Alcotest.test_case "vocabulary namespaces" `Quick test_vocabulary_namespaces;
    Alcotest.test_case "program sensitivity" `Quick test_embedding_changes_with_program;
    Alcotest.test_case "optimization sensitivity" `Quick test_embedding_changes_under_optimization;
    Alcotest.test_case "flow sensitivity" `Quick test_flow_sensitivity;
    Alcotest.test_case "state bounded" `Quick test_state_bounded;
    Alcotest.test_case "empty module" `Quick test_empty_module;
    Alcotest.test_case "declarations" `Quick test_declaration_contributes_nothing;
    QCheck_alcotest.to_alcotest prop_embedding_deterministic;
    Alcotest.test_case "memoized embedding = reference" `Quick test_memo_matches_reference;
    QCheck_alcotest.to_alcotest prop_memo_matches_reference_genprog;
    Alcotest.test_case "memoized embedding on a second domain" `Quick test_memo_second_domain;
    Alcotest.test_case "memo tables are capped" `Quick test_memo_tables_capped ]
