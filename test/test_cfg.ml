(* Tests for the control-flow facts (Cfg, Dom, Loops): every answer,
   list orders included, against the reference copy in cfg_ref.ml, on the
   workloads, on the module after every action of seeded schedules and on
   malformed functions; and Loops.compute's one-entry memo. *)

open Posetrl_ir
module R = Cfg_ref
module P = Posetrl_passes
module W = Posetrl_workloads
module A = Posetrl_odg.Action_space

(* --- one side's answers, one line each ---------------------------------- *)

type answers = {
  entry : string;
  succs : string -> string list;
  preds : string -> string list;
  reachable : string list;
  rpo : string list;
  idom : string -> string option;
  dominates : string -> string -> bool;
  strictly_dominates : string -> string -> bool;
  children : string -> string list;
  loops : (string * string list * string list * int * string option * string list) list;
  depth : string -> int;
  leaf_headers : string list;
  loop_count : int;
}

let mine (f : Func.t) : answers =
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  let li = Loops.compute f in
  let fields (l : Loops.loop) =
    (l.Loops.header, l.Loops.latches, Loops.SSet.elements l.Loops.blocks, l.Loops.depth,
     l.Loops.preheader, l.Loops.exits)
  in
  { entry = cfg.Cfg.entry; succs = Cfg.succs cfg; preds = Cfg.preds cfg;
    reachable = Cfg.SSet.elements (Cfg.reachable cfg); rpo = Cfg.rpo cfg;
    idom = Dom.idom dom; dominates = Dom.dominates dom;
    strictly_dominates = Dom.strictly_dominates dom; children = Dom.children dom;
    loops = List.map fields li.Loops.loops; depth = Loops.depth li;
    leaf_headers = List.map (fun l -> l.Loops.header) (Loops.leaf_loops li);
    loop_count = Loops.loop_count li }

let reference (f : Func.t) : answers =
  let cfg = R.Cfg.of_func f in
  let dom = R.Dom.compute cfg in
  let li = R.Loops.compute f in
  let fields (l : R.Loops.loop) =
    (l.R.Loops.header, l.R.Loops.latches, R.Loops.SSet.elements l.R.Loops.blocks,
     l.R.Loops.depth, l.R.Loops.preheader, l.R.Loops.exits)
  in
  { entry = cfg.R.Cfg.entry; succs = R.Cfg.succs cfg; preds = R.Cfg.preds cfg;
    reachable = R.Cfg.SSet.elements (R.Cfg.reachable cfg); rpo = R.Cfg.rpo cfg;
    idom = R.Dom.idom dom; dominates = R.Dom.dominates dom;
    strictly_dominates = R.Dom.strictly_dominates dom; children = R.Dom.children dom;
    loops = List.map fields li.R.Loops.loops; depth = R.Loops.depth li;
    leaf_headers = List.map (fun l -> l.R.Loops.header) (R.Loops.leaf_loops li);
    loop_count = R.Loops.loop_count li }

(* Every label [f] names, defined or only branched to, and one it never
   names. *)
let labels_of (f : Func.t) : string list =
  "no.such.block"
  :: List.sort_uniq String.compare
       (List.concat_map (fun b -> b.Block.label :: Block.successors b) f.Func.blocks)

let lines (a : answers) (labels : string list) : string list =
  let l xs = "[" ^ String.concat "; " xs ^ "]" in
  let loop (h, latches, blocks, depth, pre, exits) =
    Printf.sprintf "loop %s latches %s blocks %s depth %d preheader %s exits %s" h (l latches)
      (l blocks) depth (Option.value pre ~default:"-") (l exits)
  in
  [ "entry " ^ a.entry; "reachable " ^ l a.reachable; "rpo " ^ l a.rpo;
    Printf.sprintf "loop_count %d" a.loop_count; "leaf_loops " ^ l a.leaf_headers ]
  @ List.map loop a.loops
  @ List.concat_map
      (fun x ->
        [ Printf.sprintf "succs %s %s" x (l (a.succs x));
          Printf.sprintf "preds %s %s" x (l (a.preds x));
          Printf.sprintf "idom %s %s" x (Option.value (a.idom x) ~default:"-");
          Printf.sprintf "children %s %s" x (l (a.children x));
          Printf.sprintf "depth %s %d" x (a.depth x) ]
        @ List.map
            (fun y ->
              Printf.sprintf "dominates %s %s %b %b" x y (a.dominates x y)
                (a.strictly_dominates x y))
            labels)
      labels

(* [None] when both sides give every answer alike, else the first that
   differs. *)
let differs (f : Func.t) : string option =
  let labels = labels_of f in
  let rec first = function
    | x :: xs, y :: ys -> if String.equal x y then first (xs, ys) else Some (x, y)
    | x :: _, [] -> Some (x, "(nothing)")
    | [], y :: _ -> Some ("(nothing)", y)
    | [], [] -> None
  in
  Option.map
    (fun (x, y) -> Printf.sprintf "@%s: index facts say %S, reference says %S" f.Func.name x y)
    (first (lines (mine f) labels, lines (reference f) labels))

let module_differs (m : Modul.t) : string option =
  List.find_map differs (Modul.defined_funcs m)

let check_module (m : Modul.t) =
  Alcotest.(check (option string)) m.Modul.name None (module_differs m)

(* --- malformed shapes ------------------------------------------------------ *)

let main_body name body = "module " ^ name ^ "\n\nfunc @main(): i64 {\n" ^ body ^ "}\n"

(* [n] self-loops in a row: more loop headers than the loop-merging table
   has buckets, so ties in depth keep its order through a resize *)
let many_loops n =
  let b = Buffer.create 1024 in
  Buffer.add_string b "entry:\n  br h0\n";
  for k = 0 to n - 1 do
    Printf.bprintf b "h%d:\n  cbr 1, h%d, h%d\n" k k (k + 1)
  done;
  Printf.bprintf b "h%d:\n  ret i64 0\n" n;
  main_body "many_loops" (Buffer.contents b)

(* Functions no pass emits and the verifier rejects, which lint and
   serve's 400 answers still read the facts of. *)
let malformed_srcs =
  [ main_body "duplicate_labels"
      "entry:\n  br a\na:\n  br b\na:\n  br c\nb:\n  ret i64 1\nc:\n  br a\n";
    main_body "duplicate_latches"
      "entry:\n  br h\nh:\n  cbr 1, x, out\nx:\n  br h\nx:\n  br h\nout:\n  ret i64 0\n";
    main_body "shadowed_latch"
      "entry:\n  br h\nh:\n  br a\na:\n  br h\na:\n  br out\nout:\n  ret i64 0\n";
    main_body "duplicate_entry" "entry:\n  br a\na:\n  br entry\nentry:\n  br b\nb:\n  ret i64 0\n";
    main_body "undefined_target"
      "entry:\n  cbr 1, a, missing\na:\n  cbr 1, a, gone\nb:\n  br missing\n";
    main_body "unreachable_cycle"
      "entry:\n  br h\nh:\n  cbr 1, body, out\nbody:\n  br h\nout:\n  ret i64 0\n\
       u1:\n  br u2\nu2:\n  cbr 1, u1, body\nv1:\n  br v2\nv2:\n  br v1\n";
    main_body "irreducible"
      "entry:\n  cbr 1, a, b\na:\n  cbr 1, b, out\nb:\n  cbr 1, a, out\nout:\n  ret i64 0\n";
    main_body "self_loop" "entry:\n  br l\nl:\n  cbr 1, l, exit\nexit:\n  ret i64 0\n";
    main_body "entry_header" "entry:\n  cbr 1, entry, exit\nexit:\n  ret i64 0\n";
    main_body "entry_header_latch"
      "entry:\n  br b\nb:\n  cbr 1, entry, c\nc:\n  switch i64 0 [1: entry], default exit\n\
       exit:\n  ret i64 0\n";
    main_body "repeated_targets"
      "entry:\n  cbr 1, a, a\na:\n  switch i64 0 [1: b, 2: b, 3: a], default b\n\
       b:\n  switch i64 0 [1: c, 2: c], default c\nc:\n  ret i64 0\n";
    main_body "nested_exits"
      "entry:\n  br o\no:\n  cbr 1, i, done\ni:\n  cbr 1, i2, o\ni2:\n  cbr 1, i, nowhere\n\
       done:\n  ret i64 0\n";
    many_loops 40 ]

let malformed () = List.map Parser.parse_module malformed_srcs

let test_matches_reference_on_malformed () = List.iter check_module (malformed ())

let test_matches_reference_on_suites () =
  List.iter (fun (_, m) -> check_module m) (W.Suites.all_programs ());
  Array.iter check_module (W.Suites.training_corpus ())

(* a declaration has no entry block: both sides refuse it alike *)
let test_declaration_refused () =
  let d = Func.declare ~name:"ext" ~params:[] ~ret:Types.I64 () in
  let outcome f = match f d with _ -> "answered" | exception e -> Printexc.to_string e in
  Alcotest.(check string) "Cfg.of_func" (outcome R.Cfg.of_func) (outcome Cfg.of_func);
  Alcotest.(check string) "Loops.compute" (outcome R.Loops.compute) (outcome Loops.compute)

(* One seeded case: a Genprog program (or, one time in three, a
   validation program) checked raw and after each action of a
   15-action schedule in the manual or ODG space. *)
let prop_matches_reference_on_schedules =
  let validation = Array.of_list (List.map snd (W.Suites.all_programs ())) in
  QCheck2.Test.make ~count:25
    ~print:QCheck2.Print.(pair int bool)
    ~name:"cfg, dom and loop facts = the reference after every scheduled action"
    QCheck2.Gen.(pair (int_range 0 100_000) bool)
    (fun (seed, odg) ->
      let space = if odg then A.odg else A.manual in
      let rng = Posetrl_support.Rng.create seed in
      let m =
        if seed mod 3 = 0 then validation.(seed mod Array.length validation)
        else W.Genprog.generate ~seed
      in
      let rec go m k =
        match module_differs m with
        | Some msg -> QCheck2.Test.fail_reportf "after %d actions: %s" k msg
        | None when k = 15 -> true
        | None ->
          let action = A.action space (Posetrl_support.Rng.int rng (A.n_actions space)) in
          go (P.Pass_manager.run P.Config.oz action m) (k + 1)
      in
      go m 0)

(* --- the memo ------------------------------------------------------------- *)

let memo_funcs () = List.concat_map Modul.defined_funcs (malformed ())

let test_memo_same_object () =
  let f = Testutil.main_func (Testutil.sum_squares_module ()) in
  let li = Loops.compute f in
  Alcotest.(check bool) "the same value" true (Loops.compute f == li)

let test_memo_equal_copy () =
  List.iter
    (fun f ->
      let li = Loops.compute f in
      let f' = { f with Func.name = f.Func.name } in
      let li' = Loops.compute f' in
      Alcotest.(check bool) "a distinct copy is recomputed" true (li' != li);
      Alcotest.(check (list string)) "to an equal answer" (lines (mine f) (labels_of f))
        (lines (mine f') (labels_of f')))
    (memo_funcs ())

let test_memo_one_entry () =
  let m = Testutil.sum_squares_module () in
  let a = Testutil.main_func m in
  let b = List.hd (Modul.defined_funcs (List.hd (malformed ()))) in
  let la = Loops.compute a in
  let lb = Loops.compute b in
  let la' = Loops.compute a in
  Alcotest.(check bool) "B is not A's answer" true (lb != la);
  Alcotest.(check bool) "A after B is recomputed" true (la' != la);
  Alcotest.(check int) "to the same loops" (Loops.loop_count la) (Loops.loop_count la')

let test_memo_second_domain () =
  let fs =
    memo_funcs ()
    @ List.concat_map (fun (_, m) -> Modul.defined_funcs m) (W.Suites.all_programs ())
  in
  let answer f = lines (mine f) (labels_of f) in
  let here = List.map answer fs in
  let there = Domain.join (Domain.spawn (fun () -> List.map answer fs)) in
  Alcotest.(check (list (list string))) "same answers on a second domain" here there

let suite =
  [ Alcotest.test_case "facts = reference on malformed functions" `Quick
      test_matches_reference_on_malformed;
    Alcotest.test_case "facts = reference on suites and corpus" `Quick
      test_matches_reference_on_suites;
    Alcotest.test_case "a declaration is refused alike" `Quick test_declaration_refused;
    QCheck_alcotest.to_alcotest prop_matches_reference_on_schedules;
    Alcotest.test_case "memo: same object, same value" `Quick test_memo_same_object;
    Alcotest.test_case "memo: an equal copy recomputes" `Quick test_memo_equal_copy;
    Alcotest.test_case "memo: A, B, A recomputes A" `Quick test_memo_one_entry;
    Alcotest.test_case "memo: a second domain gives the same answers" `Quick
      test_memo_second_domain ]
