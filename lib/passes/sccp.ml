(* -sccp / -ipsccp: sparse conditional constant propagation.

   The classic Wegman-Zadeck lattice algorithm: registers carry
   Top/Const/Bottom facts, CFG edges become executable lazily, and phi
   nodes meet only over executable incoming edges, so constants propagate
   through conditionally-dead regions that a simple folder cannot see.

   The interprocedural variant additionally specializes parameters of
   internal functions whose every call site passes the same constant. *)

open Posetrl_ir

type lattice = Top | Const of Value.const | Bottom

let meet a b =
  match a, b with
  | Top, x | x, Top -> x
  | Const c1, Const c2 when Value.equal (Value.Const c1) (Value.Const c2) -> Const c1
  | _ -> Bottom

let run_func_sccp (f : Func.t) : Func.t =
  let lat : (int, lattice) Hashtbl.t = Hashtbl.create 64 in
  let get r = Option.value (Hashtbl.find_opt lat r) ~default:Top in
  (* parameters are unknown inputs *)
  List.iter (fun (r, _) -> Hashtbl.replace lat r Bottom) f.Func.params;
  let edge_exec : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let block_exec : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let block_work = Queue.create () in
  let insn_work = Queue.create () in
  (* users of each register: instructions AND terminators ([None]) *)
  let uses : (int, (string * Instr.t option) list) Hashtbl.t = Hashtbl.create 64 in
  let add_use r entry =
    let cur = Option.value (Hashtbl.find_opt uses r) ~default:[] in
    Hashtbl.replace uses r (entry :: cur)
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          List.iter
            (fun v ->
              match v with
              | Value.Reg r -> add_use r (b.Block.label, Some i)
              | _ -> ())
            (Instr.operands i.Instr.op))
        b.Block.insns;
      List.iter
        (fun v ->
          match v with
          | Value.Reg r -> add_use r (b.Block.label, None)
          | _ -> ())
        (Instr.term_operands b.Block.term))
    f.Func.blocks;
  let lat_of_value v =
    match v with
    | Value.Const c -> Const c
    | Value.Global _ -> Bottom (* addresses are runtime values *)
    | Value.Reg r -> get r
  in
  let mark_edge src dst =
    if not (Hashtbl.mem edge_exec (src, dst)) then begin
      Hashtbl.replace edge_exec (src, dst) ();
      Queue.add dst block_work
    end
  in
  let update r v =
    let old = get r in
    let nv = meet old v in
    let nv = match old, v with Top, x -> x | _ -> nv in
    if nv <> old then begin
      Hashtbl.replace lat r nv;
      List.iter (fun u -> Queue.add u insn_work) (Option.value (Hashtbl.find_opt uses r) ~default:[])
    end
  in
  let eval_insn block (i : Instr.t) =
    if i.Instr.id >= 0 then begin
      match i.Instr.op with
      | Instr.Phi (_, incs) ->
        let v =
          List.fold_left
            (fun acc (l, v) ->
              if Hashtbl.mem edge_exec (l, block) then meet acc (lat_of_value v)
              else acc)
            Top incs
        in
        update i.Instr.id v
      | op when Instr.is_pure op ->
        let all_const =
          List.for_all
            (fun v -> match lat_of_value v with Const _ -> true | _ -> false)
            (Instr.operands op)
        in
        let any_bottom =
          List.exists
            (fun v -> match lat_of_value v with Bottom -> true | _ -> false)
            (Instr.operands op)
        in
        if all_const then begin
          (* substitute and fold *)
          let resolved =
            Instr.map_operands
              (fun v ->
                match lat_of_value v with
                | Const c -> Value.Const c
                | _ -> v)
              op
          in
          match Fold.fold_op resolved with
          | Some (Value.Const c) -> update i.Instr.id (Const c)
          | Some _ | None -> update i.Instr.id Bottom
        end
        else if any_bottom then update i.Instr.id Bottom
      | _ -> update i.Instr.id Bottom
    end
  in
  let eval_term (b : Block.t) =
    match b.Block.term with
    | Instr.Ret _ | Instr.Unreachable -> ()
    | Instr.Br l -> mark_edge b.Block.label l
    | Instr.Cbr (c, t, e) ->
      (match lat_of_value c with
       | Const (Value.Cint (_, v)) ->
         mark_edge b.Block.label (if Int64.equal v 1L then t else e)
       | Top -> ()
       | _ ->
         mark_edge b.Block.label t;
         mark_edge b.Block.label e)
    | Instr.Switch (_, v, cases, d) ->
      (match lat_of_value v with
       | Const (Value.Cint (_, k)) ->
         let target = Option.value (List.assoc_opt k cases) ~default:d in
         mark_edge b.Block.label target
       | Top -> ()
       | _ ->
         mark_edge b.Block.label d;
         List.iter (fun (_, l) -> mark_edge b.Block.label l) cases)
  in
  let entry = (Func.entry f).Block.label in
  Queue.add entry block_work;
  let iter_limit = ref (200 * (1 + Func.insn_count f)) in
  while (not (Queue.is_empty block_work && Queue.is_empty insn_work)) && !iter_limit > 0 do
    decr iter_limit;
    if not (Queue.is_empty block_work) then begin
      let label = Queue.pop block_work in
      let first_visit = not (Hashtbl.mem block_exec label) in
      Hashtbl.replace block_exec label ();
      let blk = Func.find_block_exn f label in
      (* phis must be re-evaluated whenever a new incoming edge appears *)
      List.iter (fun i -> eval_insn label i) (Block.phis blk);
      if first_visit then begin
        List.iter (fun i -> eval_insn label i) (Block.non_phis blk);
        eval_term blk
      end
      else eval_term blk
    end
    else begin
      let label, i = Queue.pop insn_work in
      if Hashtbl.mem block_exec label then begin
        (match i with
         | Some i -> eval_insn label i
         | None -> ());
        (* condition changes can extend executable edges *)
        eval_term (Func.find_block_exn f label)
      end
    end
  done;
  (* rewrite: replace constant registers, fold branches of blocks whose
     condition is now constant, drop unexecutable blocks *)
  let resolve v =
    match v with
    | Value.Reg r -> (match get r with Const c -> Value.Const c | _ -> v)
    | _ -> v
  in
  (* a Top-valued branch condition means the branch is dynamically
     unreachable-as-written (its inputs are undef); its non-executable
     targets are deleted, so retarget such terminators onto whatever
     executable successor remains *)
  let fix_term (b : Block.t) =
    let live l = Hashtbl.mem block_exec l in
    match b.Block.term with
    | Instr.Cbr (_, t, e) when not (live t && live e) ->
      if live t then { b with Block.term = Instr.Br t }
      else if live e then { b with Block.term = Instr.Br e }
      else { b with Block.term = Instr.Unreachable }
    | Instr.Switch (ty, v, cases, d) when not (List.for_all (fun (_, l) -> live l) cases && live d) ->
      let cases = List.filter (fun (_, l) -> live l) cases in
      let d =
        if live d then d
        else (match cases with (_, l) :: _ -> l | [] -> d)
      in
      if cases = [] && not (live d) then { b with Block.term = Instr.Unreachable }
      else { b with Block.term = Instr.Switch (ty, v, cases, d) }
    | Instr.Br l when not (live l) -> { b with Block.term = Instr.Unreachable }
    | _ -> b
  in
  let blocks =
    List.filter_map
      (fun (b : Block.t) ->
        if not (Hashtbl.mem block_exec b.Block.label) then None
        else
          Some
            (fix_term
               (Block.filter_insns
                  (fun i ->
                    not (i.Instr.id >= 0
                         && (match get i.Instr.id with Const _ -> Instr.is_pure i.Instr.op | _ -> false)))
                  b)))
      f.Func.blocks
  in
  if blocks = [] then f
  else
    Func.with_blocks f blocks
    |> Func.map_operands resolve
    |> Utils.fold_terminators
    |> Utils.trivial_dce

let pass =
  Pass.function_pass "sccp"
    ~description:"sparse conditional constant propagation" (fun _cfg f ->
      run_func_sccp f)

(* Interprocedural variant: specialize internal functions whose parameters
   receive the same constant at every call site, then run SCCP per
   function. *)
let run_module (m : Modul.t) : Modul.t =
  let call_args : (string, Value.t list list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if not (Func.is_declaration f) then
        Func.iter_insns
          (fun _ i ->
            match i.Instr.op with
            | Instr.Call (_, g, args) ->
              let cur = Option.value (Hashtbl.find_opt call_args g) ~default:[] in
              Hashtbl.replace call_args g (args :: cur)
            | _ -> ())
          f)
    m.Modul.funcs;
  let address_taken = Ipo.address_taken_funcs m in
  let specialize (f : Func.t) =
    if Func.is_declaration f || f.Func.linkage = Func.External
       || Ipo.SSet.mem f.Func.name address_taken then f
    else
      match Hashtbl.find_opt call_args f.Func.name with
      | None | Some [] -> f
      | Some sites ->
        (* for each param, if all sites agree on one constant, substitute *)
        let n = List.length f.Func.params in
        let consts =
          List.init n (fun idx ->
              let vals = List.map (fun args -> List.nth_opt args idx) sites in
              match vals with
              | Some (Value.Const c) :: rest
                when List.for_all
                       (function
                         | Some v -> Value.equal v (Value.Const c)
                         | None -> false)
                       rest ->
                Some c
              | _ -> None)
        in
        List.fold_left2
          (fun f (r, _) c ->
            match c with
            | Some c -> Func.replace_reg r (Value.Const c) f
            | None -> f)
          f f.Func.params consts
  in
  let m = Modul.map_defined specialize m in
  Modul.map_defined run_func_sccp m

let ipsccp_pass =
  Pass.mk "ipsccp"
    ~description:"interprocedural SCCP with constant-argument specialization"
    (fun _cfg m -> run_module m)
