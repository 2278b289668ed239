(* Smaller loop passes: -loop-sink, -loop-load-elim, -loop-distribute. *)

open Posetrl_ir
module SSet = Set.Make (String)
module ISet = Set.Make (Int)

(* --- loop-sink ----------------------------------------------------------

   The inverse of LICM: moves computation from the preheader into the
   loop when it is only used in a conditionally-executed block, so the
   work is not paid on iterations (or entries) that never need it. *)

let sink_one (f : Func.t) (loop : Loops.loop) : Func.t * bool =
  match loop.Loops.preheader with
  | None -> (f, false)
  | Some pre ->
    let pre_blk = Func.find_block_exn f pre in
    let uses = Func.use_counts f in
    (* map register -> unique using block, if any *)
    let use_block = Hashtbl.create 16 in
    List.iter
      (fun (b : Block.t) ->
        let record v =
          match v with
          | Value.Reg r ->
            (match Hashtbl.find_opt use_block r with
             | Some l when not (String.equal l b.Block.label) ->
               Hashtbl.replace use_block r "<many>"
             | _ -> Hashtbl.replace use_block r b.Block.label)
          | _ -> ()
        in
        (* a phi use needs the value at the end of the incoming
           predecessor, not in the phi's block: never sink such values *)
        let poison v =
          match v with
          | Value.Reg r -> Hashtbl.replace use_block r "<many>"
          | _ -> ()
        in
        List.iter
          (fun (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Phi (_, incs) -> List.iter (fun (_, v) -> poison v) incs
            | op -> List.iter record (Instr.operands op))
          b.Block.insns;
        List.iter record (Instr.term_operands b.Block.term))
      f.Func.blocks;
    let sinkable (i : Instr.t) =
      i.Instr.id >= 0 && Instr.is_pure i.Instr.op
      && Option.value (Hashtbl.find_opt uses i.Instr.id) ~default:0 >= 1
      &&
      match Hashtbl.find_opt use_block i.Instr.id with
      | Some l ->
        SSet.mem l loop.Loops.blocks
        && (not (String.equal l loop.Loops.header))
        && not (List.exists (String.equal l) loop.Loops.latches)
      | None -> false
    in
    let to_sink = List.filter sinkable pre_blk.Block.insns in
    (* an instruction can only sink if everything it depends on stays
       available; sink whole dependency-closed suffixes only — approximate
       by requiring sunk instructions not be used by other preheader insns *)
    let sunk_ids = ISet.of_list (List.map (fun (i : Instr.t) -> i.Instr.id) to_sink) in
    let to_sink =
      List.filter
        (fun (i : Instr.t) ->
          not
            (List.exists
               (fun (j : Instr.t) ->
                 (not (ISet.mem j.Instr.id sunk_ids))
                 && List.exists
                      (fun v -> v = Value.Reg i.Instr.id)
                      (Instr.operands j.Instr.op))
               pre_blk.Block.insns))
        to_sink
    in
    if to_sink = [] then (f, false)
    else begin
      let sunk_ids = ISet.of_list (List.map (fun (i : Instr.t) -> i.Instr.id) to_sink) in
      let dest r = Hashtbl.find use_block r in
      let blocks =
        List.map
          (fun (b : Block.t) ->
            if String.equal b.Block.label pre then
              Block.filter_insns (fun i -> not (ISet.mem i.Instr.id sunk_ids)) b
            else
              let incoming =
                List.filter (fun (i : Instr.t) -> String.equal (dest i.Instr.id) b.Block.label) to_sink
              in
              if incoming = [] then b
              else
                let phis, rest = Block.split_phis b in
                { b with Block.insns = phis @ incoming @ rest })
          f.Func.blocks
      in
      (Func.with_blocks f blocks, true)
    end

let loop_sink_pass =
  Pass.function_pass "loop-sink"
    ~description:"sink preheader computation into conditionally-executed loop blocks"
    (fun _cfg f ->
      let li = Loops.compute f in
      List.fold_left (fun f loop -> fst (sink_one f loop)) f li.Loops.loops)

(* --- loop-load-elim ------------------------------------------------------

   Store-to-load forwarding restricted to loop bodies: a load from a
   pointer stored earlier in the same block (same iteration) reuses the
   stored value. *)

(* Record in [subst] each load of [b] that reads what a store earlier in
   [b] wrote. *)
let forward_block (subst : (int, Value.t) Hashtbl.t) (b : Block.t) : unit =
  let pending : (Value.t, Types.t * Value.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Store (ty, v, p) -> Hashtbl.replace pending p (ty, v)
      | Instr.Load (ty, p) ->
        (match Hashtbl.find_opt pending p with
         | Some (ty', v) when Types.equal ty ty' -> Hashtbl.replace subst i.Instr.id v
         | _ -> ())
      | Instr.Call _ | Instr.Callind _ | Instr.Memcpy _ | Instr.Intrinsic _ ->
        Hashtbl.reset pending
      | _ -> ())
    b.Block.insns

let loop_load_elim_pass =
  Pass.function_pass "loop-load-elim"
    ~description:"store-to-load forwarding within loop bodies"
    (fun _cfg f ->
      let li = Loops.compute f in
      let subst = Hashtbl.create 8 in
      List.iter
        (fun b -> if Loops.depth li b.Block.label > 0 then forward_block subst b)
        f.Func.blocks;
      Func.substitute subst f |> Utils.trivial_dce)

(* --- loop-distribute -----------------------------------------------------

   Splits a load-free single-block counted loop that stores through
   several distinct invariant bases into one loop per base, enabling
   later per-loop idiom recognition or vectorization. *)

let distribute_one (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader, loop.Loops.exits, loop.Loops.latches with
  | Some pre, [ exit_lbl ], [ latch ]
    when String.equal latch loop.Loops.header ->
    let body = Func.find_block_exn f loop.Loops.header in
    let has_load_or_call =
      List.exists
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Load _ | Instr.Call _ | Instr.Callind _ | Instr.Memcpy _
          | Instr.Intrinsic _ -> true
          | _ -> false)
        body.Block.insns
    in
    if has_load_or_call then None
    else begin
      let v = Utils.view f loop in
      let base_of_store (i : Instr.t) =
        match i.Instr.op with
        | Instr.Store (_, _, Value.Reg p) ->
          (match Utils.def_op v p with
           | Some (Instr.Gep (_, base, _)) when Utils.invariant v base -> Some base
           | _ -> None)
        | _ -> None
      in
      let stores = List.filter (fun i -> match i.Instr.op with Instr.Store _ -> true | _ -> false) body.Block.insns in
      let bases = List.map base_of_store stores in
      if List.exists Option.is_none bases then None
      else begin
        let bases = List.filter_map Fun.id bases in
        let distinct = List.sort_uniq Stdlib.compare bases in
        (* nothing defined in the loop may be used outside *)
        if List.length distinct < 2 || Utils.exists_outside_use v f (fun _ _ -> true) then None
        else begin
          let counter = Func.fresh_counter f in
          (* one clone per base, chained sequentially *)
          let n = List.length distinct in
          let clones =
            List.mapi
              (fun k base ->
                let rename l =
                  if String.equal l loop.Loops.header then
                    Printf.sprintf "%s.dist%d" l k
                  else l
                in
                let cloned, _ =
                  Clone.clone_blocks ~counter ~rename_label:rename ~init_map:[] [ body ]
                in
                let blk = List.hd cloned in
                (* keep only stores whose base matches *)
                let blk =
                  Block.filter_insns
                    (fun (i : Instr.t) ->
                      match base_of_store i with
                      | Some b -> Value.equal b base
                      | None -> true)
                    blk
                in
                (* retarget: exit edge of clone k goes to clone k+1's
                   preheader-equivalent (directly to its header) *)
                let next =
                  if k = n - 1 then exit_lbl
                  else Printf.sprintf "%s.dist%d" loop.Loops.header (k + 1)
                in
                let term =
                  Instr.map_term_labels
                    (fun l -> if String.equal l exit_lbl then next else l)
                    blk.Block.term
                in
                (* clone k > 0 enters from clone k-1's exit edge: its phis'
                   preheader entries must point at the predecessor clone *)
                let blk =
                  if k = 0 then blk
                  else
                    Block.rename_phi_pred ~from:pre
                      ~to_:(Printf.sprintf "%s.dist%d" loop.Loops.header (k - 1))
                      blk
                in
                { blk with Block.term = term })
              distinct
          in
          let first = Printf.sprintf "%s.dist%d" loop.Loops.header 0 in
          let last = Printf.sprintf "%s.dist%d" loop.Loops.header (n - 1) in
          let blocks =
            f.Func.blocks
            |> List.filter (fun (b : Block.t) -> not (String.equal b.Block.label loop.Loops.header))
            |> List.map (fun (b : Block.t) ->
                   if String.equal b.Block.label pre then
                     { b with
                       Block.term =
                         Instr.map_term_labels
                           (fun l -> if String.equal l loop.Loops.header then first else l)
                           b.Block.term }
                   else if String.equal b.Block.label exit_lbl then
                     Block.rename_phi_pred ~from:loop.Loops.header ~to_:last b
                   else b)
          in
          Some
            (Func.with_blocks ~next_id:counter.Func.next f (blocks @ clones)
            |> Utils.trivial_dce)
        end
      end
    end
  | _ -> None

let loop_distribute_pass =
  Pass.function_pass "loop-distribute"
    ~description:"split independent store streams into separate loops"
    (fun _cfg f -> Utils.rewrite_loops ~rounds:1 distribute_one f)
