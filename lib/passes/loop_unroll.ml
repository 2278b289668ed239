(* -loop-unroll: full unrolling of counted loops.

   Bottom-tested loops with a compile-time trip count (as produced by
   loop-rotate + indvars) are replaced by straight-line copies of the
   body. Each copy's latch branch is resolved statically, so the loop
   control disappears entirely. Thresholds come from the pipeline config:
   O3 unrolls aggressively (faster, bigger), Oz barely at all. *)

open Posetrl_ir

(* What both unrollers need: the latch is the one block leaving the loop,
   for one exit block, and every header phi has an incoming from the
   preheader and from the latch, given here as (phi, preheader value,
   latch value). *)
type shape = {
  view : Utils.loop_view;
  pre : string;
  latch : string;
  exit_lbl : string;
  phi_edges : (int * Value.t * Value.t) list;
}

let shape (f : Func.t) (view : Utils.loop_view) ~pre ~latch : shape option =
  let in_loop = Utils.in_loop view.Utils.loop in
  let exits_ok =
    List.for_all
      (fun (b : Block.t) ->
        List.for_all (fun s -> in_loop s || String.equal b.Block.label latch) (Block.successors b))
      view.Utils.blocks
  in
  let phis, _ = Block.split_phis (Func.find_block_exn f view.Utils.loop.Loops.header) in
  let phi_edges =
    List.filter_map
      (fun (i : Instr.t) ->
        match i.Instr.op with
        | Instr.Phi (_, incs) ->
          (match List.assoc_opt pre incs, List.assoc_opt latch incs with
           | Some vp, Some vl -> Some (i.Instr.id, vp, vl)
           | _ -> None)
        | _ -> None)
      phis
  in
  match List.filter (fun s -> not (in_loop s)) (Block.successors (Func.find_block_exn f latch)) with
  | [ exit_lbl ] when exits_ok && List.length phi_edges = List.length phis ->
    Some { view; pre; latch; exit_lbl; phi_edges }
  | _ -> None

(* Copies [first] to [last] of the loop body, header phis stripped, each
   labelled by [suffix k] and chained: copy k's header phis take [entry]
   for the first copy and, after it, the latch values as copy k-1
   computed them. Each latch but the last branches to the next copy's
   header; the last one's terminator becomes [last_term]. Returns the
   copies' blocks in order and the last copy's register map. *)
let copy_chain (s : shape) ~counter ~suffix ~first ~last ~entry ~last_term =
  let header = s.view.Utils.loop.Loops.header in
  let template =
    List.map
      (fun (b : Block.t) ->
        if String.equal b.Block.label header then { b with Block.insns = snd (Block.split_phis b) }
        else b)
      s.view.Utils.blocks
  in
  let rec go k entry copies =
    let init_map = List.map2 (fun (r, _, _) x -> (r, x)) s.phi_edges entry in
    let rename l = if Utils.in_loop s.view.Utils.loop l then suffix k l else l in
    let cloned, find = Clone.clone_blocks ~counter ~rename_label:rename ~init_map template in
    let cloned =
      List.map
        (fun (b : Block.t) ->
          if String.equal b.Block.label (suffix k s.latch) then
            { b with
              Block.term =
                (if k = last then last_term k b.Block.term else Instr.Br (suffix (k + 1) header)) }
          else b)
        cloned
    in
    let copies = copies @ cloned in
    if k = last then (copies, find)
    else
      let next (_, _, vl) =
        match vl with Value.Reg r -> Option.value (find r) ~default:vl | _ -> vl
      in
      go (k + 1) (List.map next s.phi_edges) copies
  in
  go first entry []

(* The value of loop register [r] after the last copy. *)
let final (find : int -> Value.t option) (r : int) = Option.value (find r) ~default:(Value.Reg r)

(* Full unrolling: [trip] copies in a row replace the loop, the first
   entered from the preheader, the last leaving to the exit. *)
let unroll_fully (f : Func.t) (s : shape) ~trip : Func.t =
  let header = s.view.Utils.loop.Loops.header in
  let counter = Func.fresh_counter f in
  let uid = counter.Func.next in
  let suffix k l = Printf.sprintf "%s.u%d.%d" l uid k in
  let copies, last_find =
    copy_chain s ~counter ~suffix ~first:0 ~last:(trip - 1)
      ~entry:(List.map (fun (_, vp, _) -> vp) s.phi_edges)
      ~last_term:(fun _ _ -> Instr.Br s.exit_lbl)
  in
  (* every outside use of a loop value, the exit phis' included, reads
     the last copy's *)
  let f' = Utils.map_outside_uses s.view f (fun _ r -> final last_find r) in
  let blocks =
    f'.Func.blocks
    |> List.filter (fun (b : Block.t) -> not (Utils.in_loop s.view.Utils.loop b.Block.label))
    |> List.map (fun (b : Block.t) ->
           if String.equal b.Block.label s.pre then
             { b with
               Block.term =
                 Instr.map_term_labels
                   (fun l -> if String.equal l header then suffix 0 header else l)
                   b.Block.term }
           else if String.equal b.Block.label s.exit_lbl then
             Block.rename_phi_pred ~from:s.latch ~to_:(suffix (trip - 1) s.latch) b
           else b)
  in
  Func.with_blocks ~next_id:counter.Func.next f (blocks @ copies)

(* --- partial unrolling ----------------------------------------------------

   When the trip count is too large to unroll fully, O2/O3 replicate the
   body [u] times inside the loop (u = the configured partial factor,
   provided it divides the trip count exactly, so no remainder loop is
   needed): copy 0 keeps the original header and phis, copies 1..u-1 are
   clones chained behind it, and only the last copy tests the backedge.
   This divides the per-iteration branch overhead by [u] at the cost of
   a [u]x bigger body — the canonical O3-vs-Oz trade. *)

let unroll_partially (f : Func.t) (s : shape) ~u : Func.t =
  let header = s.view.Utils.loop.Loops.header in
  let counter = Func.fresh_counter f in
  let uid = counter.Func.next in
  let suffix k l = Printf.sprintf "%s.pu%d.%d" l uid k in
  (* copy 1 starts from copy 0's latch values; the last copy's backedge
     returns to the original header *)
  let copies, last_find =
    copy_chain s ~counter ~suffix ~first:1 ~last:(u - 1)
      ~entry:(List.map (fun (_, _, vl) -> vl) s.phi_edges)
      ~last_term:(fun k term ->
        Instr.map_term_labels
          (fun l -> if String.equal l (suffix k header) then header else l)
          term)
  in
  let map_final x = match x with Value.Reg r -> final last_find r | _ -> x in
  let last_latch = suffix (u - 1) s.latch in
  (* outside uses read the last copy's values; the exit phis' entries
     from other blocks than the latch stay as they were *)
  let f' =
    Utils.map_outside_uses s.view f (fun site r ->
        match site with
        | Utils.Exit_phi { pred; _ } when not (String.equal pred s.latch) -> Value.Reg r
        | _ -> final last_find r)
  in
  let blocks =
    List.map
      (fun (b : Block.t) ->
        if String.equal b.Block.label s.latch then
          (* copy 0 falls through into copy 1 *)
          { b with Block.term = Instr.Br (suffix 1 header) }
        else b)
      f'.Func.blocks
    |> List.map (fun (b : Block.t) ->
           if String.equal b.Block.label header then
             (* header phis' backedge now comes from the last copy *)
             Block.map_insns
               (fun (i : Instr.t) ->
                 match i.Instr.op with
                 | Instr.Phi (ty, incs) ->
                   let incs =
                     List.map
                       (fun (l, x) ->
                         if String.equal l s.latch then (last_latch, map_final x) else (l, x))
                       incs
                   in
                   { i with Instr.op = Instr.Phi (ty, incs) }
                 | _ -> i)
               b
           else if String.equal b.Block.label s.exit_lbl then
             Block.rename_phi_pred ~from:s.latch ~to_:last_latch b
           else b)
  in
  Func.with_blocks ~next_id:counter.Func.next f (blocks @ copies)

(* Unroll [loop] fully when its trip count is at most the configured
   count, or else partially by the configured factor when that divides
   it; each within the configured body-size limit. *)
let unroll_one (cfg : Config.t) (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader, loop.Loops.latches with
  | Some pre, [ latch ] ->
    (match Utils.analyze_counted_loop f loop with
     | None -> None
     | Some info ->
       let trip = info.Utils.trip_count in
       let full = max cfg.Config.unroll_count 1 and u = cfg.Config.unroll_partial in
       let limit = cfg.Config.unroll_size_limit in
       if trip <= full then
         let v = Utils.view f loop in
         if v.Utils.size > limit || v.Utils.size * trip > limit * 8 then None
         else Option.map (unroll_fully f ~trip) (shape f v ~pre ~latch)
       else if u >= 2 && trip mod u = 0 then
         let v = Utils.view f loop in
         if v.Utils.size * u > limit * 4 then None
         else Option.map (unroll_partially f ~u) (shape f v ~pre ~latch)
       else None)
  | _ -> None

let run_func (cfg : Config.t) (f : Func.t) : Func.t =
  if cfg.Config.unroll_count <= 1 then f
  else begin
    (* canonicalize first, as the loop pass manager would *)
    Loop_simplify.loop_simplify_func cfg f
    (* unroll innermost loops first *)
    |> Utils.rewrite_loops ~rounds:4 (unroll_one cfg)
    |> Utils.simplify_single_incoming_phis |> Utils.trivial_dce
  end

let pass =
  Pass.function_pass "loop-unroll"
    ~description:"fully unroll short counted loops (threshold-gated)" run_func
