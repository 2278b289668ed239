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
