(* Shared fixtures and helpers for the test suites. *)

open Posetrl_ir
module P = Posetrl_passes

(* sum of i*i for i in [0,10) computed through memory, with a call *)
let sum_squares_module () : Modul.t =
  let bh = Builder.create ~name:"square" ~params:[ Types.I64 ] ~ret:Types.I64 () in
  Builder.block bh "entry";
  let x = Builder.param bh 0 in
  let y = Builder.mul bh Types.I64 x x in
  Builder.ret bh Types.I64 y;
  let square = Builder.finish bh in
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  Builder.block b "entry";
  let acc = Builder.alloca b Types.I64 1 in
  let i = Builder.alloca b Types.I64 1 in
  Builder.store b Types.I64 (Value.ci64 0) acc;
  Builder.store b Types.I64 (Value.ci64 0) i;
  Builder.br b "loop";
  Builder.block b "loop";
  let iv = Builder.load b Types.I64 i in
  let sq = Builder.call b Types.I64 "square" [ iv ] in
  let a0 = Builder.load b Types.I64 acc in
  let a1 = Builder.add b Types.I64 a0 sq in
  Builder.store b Types.I64 a1 acc;
  let iv1 = Builder.add b Types.I64 iv (Value.ci64 1) in
  Builder.store b Types.I64 iv1 i;
  let c = Builder.icmp b Instr.Slt Types.I64 iv1 (Value.ci64 10) in
  Builder.cbr b c "loop" "exit";
  Builder.block b "exit";
  let r = Builder.load b Types.I64 acc in
  Builder.ret b Types.I64 r;
  Modul.mk ~name:"sum_squares" [ square; Builder.finish b ]

(* a single-function wrapper for pass unit tests *)
let wrap_main (build : Builder.t -> unit) : Modul.t =
  let b = Builder.create ~linkage:Func.External ~name:"main" ~params:[] ~ret:Types.I64 () in
  build b;
  Modul.mk ~name:"test" [ Builder.finish b ]

let run_pass (name : string) (m : Modul.t) : Modul.t =
  P.Pass_manager.run_pass ~sanitize:Structural (P.Registry.find_exn name) P.Config.oz m

let run_pass_cfg (name : string) (cfg : P.Config.t) (m : Modul.t) : Modul.t =
  P.Pass_manager.run_pass ~sanitize:Structural (P.Registry.find_exn name) cfg m

(* observable behaviour: Ok (return value string, stdout) or Error trap *)
let observe (m : Modul.t) = Posetrl_interp.Interp.observe m

let check_same_behaviour msg m m' =
  let a = observe m and b = observe m' in
  Alcotest.(check bool)
    (msg ^ ": behaviour preserved "
    ^ (match a, b with
       | Ok (x, _), Ok (y, _) -> Printf.sprintf "(%s vs %s)" x y
       | Error e, _ -> "(orig trap: " ^ e ^ ")"
       | _, Error e -> "(opt trap: " ^ e ^ ")"))
    true (a = b)

(* [pass] alone on the module [src], SSA-sanitized, keeps the input's
   return value and output *)
let check_ssa_clean (pass : string) (src : string) =
  let m = Parser.parse_module src in
  let m' = P.Pass_manager.run ~sanitize:Posetrl_analysis.Sanitize.Ssa P.Config.oz [ pass ] m in
  check_same_behaviour pass m m'

(* count instructions matching a predicate over the whole module *)
let count_insns (p : Instr.op -> bool) (m : Modul.t) : int =
  List.fold_left
    (fun acc f ->
      if Func.is_declaration f then acc
      else Func.fold_insns (fun acc _ i -> if p i.Instr.op then acc + 1 else acc) acc f)
    0 m.Modul.funcs

let count_blocks (m : Modul.t) : int =
  List.fold_left
    (fun acc f -> acc + List.length f.Func.blocks)
    0 m.Modul.funcs

let main_func (m : Modul.t) : Func.t = Modul.find_func_exn m "main"

let ret_of (m : Modul.t) : string =
  match observe m with
  | Ok (r, _) -> r
  | Error e -> Alcotest.fail ("program trapped: " ^ e)

(* --- ledger readers ------------------------------------------------------- *)

module Json = Posetrl_obs.Json

(* A document through the printer and the parser: what a reader sees on
   disk. *)
let reread (j : Json.t) : Json.t = Json.of_string (Json.to_string j)

(* [f ()] and the bytes allocated while it ran. *)
let allocated (f : unit -> 'a) : 'a * float =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

(* One random structural mutation: descend to a random node, then drop
   one of its fields, shorten or lengthen it (an array), or replace it
   with a value of another type. *)
let rec mutate_json (st : Random.State.t) (j : Json.t) : Json.t =
  let pick n = Random.State.int st n in
  let at i f xs = List.mapi (fun k x -> if k = i then f x else x) xs in
  match j with
  | Json.Obj kvs when kvs <> [] && pick 3 > 0 ->
    Json.Obj (at (pick (List.length kvs)) (fun (k, v) -> (k, mutate_json st v)) kvs)
  | Json.Arr xs when xs <> [] && pick 3 > 0 ->
    Json.Arr (at (pick (List.length xs)) (mutate_json st) xs)
  | Json.Obj kvs when kvs <> [] && pick 2 = 0 ->
    let i = pick (List.length kvs) in
    Json.Obj (List.filteri (fun k _ -> k <> i) kvs)
  | Json.Arr (x :: rest) when pick 2 = 0 ->
    if pick 2 = 0 then Json.Arr rest else Json.Arr (x :: x :: rest)
  | Json.Int _ -> Json.Str "0"
  | Json.Float _ -> Json.Bool true
  | Json.Str _ -> Json.Int 0
  | Json.Bool _ | Json.Null -> Json.Arr []
  | Json.Arr _ -> Json.Obj []
  | Json.Obj _ -> Json.Float 0.5

(* A reader is total on [doc] under one random mutation per seed: it
   returns [None] or [Some], and never raises. *)
let total_under_mutation (reader : Json.t -> 'a option) (doc : Json.t)
    (seed : int) : bool =
  match reader (reread (mutate_json (Random.State.make [| seed |]) doc)) with
  | Some _ | None -> true

(* --- the trainer's folds: streaming = ledger recompute -------------------- *)

module Trainer = Posetrl_core.Trainer

(* 250 steps so one progress tick (step 200) lands mid-run: the
   recompute has to interleave coverage's entropy sample into the
   flattened episode stream at exactly the right step. *)
let fold_hp =
  { Trainer.fast with
    Trainer.total_steps = 250;
    Trainer.epsilon =
      Posetrl_rl.Schedule.create ~start:1.0 ~stop:0.2 ~decay_steps:150 ();
    Trainer.warmup_steps = 32;
    Trainer.target_sync_every = 60 }

(* One short training run over the default folds: the tables, and the
   records handed [on_record] read back from their JSON text as the
   ledger stores them. Memoized: qcheck-alcotest starts every property
   from one random seed, so each seed trains once for all the properties
   built below. *)
let fold_cases = Hashtbl.create 8

let fold_case ~seed : Posetrl_obs.Fold.t list * Json.t list =
  match Hashtbl.find_opt fold_cases seed with
  | Some case -> case
  | None ->
    let actions = Posetrl_odg.Action_space.manual in
    let folds = Trainer.default_folds fold_hp actions in
    let records = ref [] in
    ignore
      (Trainer.train ~hp:fold_hp ~folds
         ~on_record:(fun r -> records := r :: !records)
         ~seed ~corpus:(Posetrl_workloads.Genprog.corpus ~n:4 ())
         ~actions ~target:Posetrl_codegen.Target.x86_64 ());
    let case = (folds, List.rev_map reread !records) in
    Hashtbl.replace fold_cases seed case;
    case

(* Each fold's streaming table equals, float for float, its recompute
   from the ledger records: every fold of the default list, or only the
   one named [only] (which must be in the list). *)
let prop_folds_eq_recompute ?only ~name () =
  QCheck2.Test.make ~count:3 ~print:QCheck2.Print.int ~name
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let folds, records = fold_case ~seed in
      let checked =
        List.filter (fun (Posetrl_obs.Fold.Fold ((module F), _)) ->
            only = None || only = Some F.name) folds
      in
      checked <> []
      && List.for_all
           (fun (Posetrl_obs.Fold.Fold ((module F), x)) ->
             F.equal x (Posetrl_obs.Fold.recompute (module F) x records))
           checked)
