(* -loop-unroll: full unrolling of counted loops.

   Bottom-tested loops with a compile-time trip count (as produced by
   loop-rotate + indvars) are replaced by straight-line copies of the
   body. Each copy's latch branch is resolved statically, so the loop
   control disappears entirely. Thresholds come from the pipeline config:
   O3 unrolls aggressively (faster, bigger), Oz barely at all. *)

open Posetrl_ir
module SSet = Set.Make (String)
module ISet = Set.Make (Int)

let unroll_one (cfg_opt : Config.t) (f : Func.t) (loop : Loops.loop) : Func.t option =
  match loop.Loops.preheader, loop.Loops.latches with
  | Some pre, [ latch ] ->
    (match Utils.analyze_counted_loop f loop with
     | Some info
       when info.Utils.trip_count >= 1
            && info.Utils.trip_count <= max cfg_opt.Config.unroll_count 1 ->
       let in_loop l = SSet.mem l loop.Loops.blocks in
       let loop_blocks =
         List.filter (fun (b : Block.t) -> in_loop b.Block.label) f.Func.blocks
       in
       let body_size =
         List.fold_left
           (fun acc (b : Block.t) -> acc + List.length b.Block.insns)
           0 loop_blocks
       in
       let trip = info.Utils.trip_count in
       if body_size > cfg_opt.Config.unroll_size_limit
          || body_size * trip > cfg_opt.Config.unroll_size_limit * 8
       then None
       else begin
         (* the only exit edge must be the latch's cbr *)
         let exits_ok =
           List.for_all
             (fun (b : Block.t) ->
               List.for_all
                 (fun s -> in_loop s || String.equal b.Block.label latch)
                 (Block.successors b))
             loop_blocks
         in
         let exit_lbl =
           match
             List.filter (fun s -> not (in_loop s))
               (Block.successors (Func.find_block_exn f latch))
           with
           | [ e ] -> Some e
           | _ -> None
         in
         match exits_ok, exit_lbl with
         | true, Some exit_lbl ->
           let header = Func.find_block_exn f loop.Loops.header in
           let phis, _ = Block.split_phis header in
           (* phi incomings on the two edges *)
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
           if List.length phi_edges <> List.length phis then None
           else begin
             let counter = Func.fresh_counter f in
             (* template: loop blocks with header phis stripped *)
             let template =
               List.map
                 (fun (b : Block.t) ->
                   if String.equal b.Block.label loop.Loops.header then
                     { b with Block.insns = snd (Block.split_phis b) }
                   else b)
                 loop_blocks
             in
             let uid = counter.Func.next in
             let suffix k l = Printf.sprintf "%s.u%d.%d" l uid k in
             let copies = Array.make trip ([], fun (_ : int) -> (None : Value.t option)) in
             (* current value of each header phi entering copy k *)
             let cur_vals = Hashtbl.create 8 in
             List.iter (fun (r, vp, _) -> Hashtbl.replace cur_vals r vp) phi_edges;
             (* phi values as seen inside the final iteration; needed to fix
                exit-edge references to the phi itself *)
             let last_entry_vals = Hashtbl.create 8 in
             for k = 0 to trip - 1 do
               let init_map =
                 List.map (fun (r, _, _) -> (r, Hashtbl.find cur_vals r)) phi_edges
               in
               if k = trip - 1 then
                 List.iter (fun (r, v) -> Hashtbl.replace last_entry_vals r v) init_map;
               let rename l = if in_loop l then suffix k l else l in
               let cloned, find =
                 Clone.clone_blocks ~counter ~rename_label:rename ~init_map template
               in
               (* resolve the latch terminator statically *)
               let next_target =
                 if k = trip - 1 then exit_lbl
                 else suffix (k + 1) loop.Loops.header
               in
               let cloned =
                 List.map
                   (fun (b : Block.t) ->
                     if String.equal b.Block.label (suffix k latch) then
                       { b with Block.term = Instr.Br next_target }
                     else b)
                   cloned
               in
               copies.(k) <- (cloned, find);
               (* compute entry values for the next copy: latch incoming of
                  each phi, mapped through this copy's substitution *)
               List.iter
                 (fun (r, _, vl) ->
                   let v =
                     match vl with
                     | Value.Reg vr ->
                       (match find vr with
                        | Some v' -> v'
                        | None -> vl (* defined outside the loop *))
                     | _ -> vl
                   in
                   Hashtbl.replace cur_vals r v)
                 phi_edges
             done;
             let _, final_find = copies.(trip - 1) in
             (* exit-block phi entries from the latch move to the last copy;
                values defined in the loop map through the last copy *)
             let map_final v =
               match v with
               | Value.Reg r ->
                 (match final_find r with
                  | Some v' -> v'
                  | None ->
                    (* header phi: on the exit edge the observable value is
                       the one that entered the final iteration *)
                    (match Hashtbl.find_opt last_entry_vals r with
                     | Some v' -> v'
                     | None -> v))
               | _ -> v
             in
             let blocks =
               f.Func.blocks
               |> List.filter (fun (b : Block.t) -> not (in_loop b.Block.label))
               |> List.concat_map (fun (b : Block.t) ->
                      if String.equal b.Block.label pre then
                        [ { b with
                            Block.term =
                              Instr.map_term_labels
                                (fun l ->
                                  if String.equal l loop.Loops.header then
                                    suffix 0 loop.Loops.header
                                  else l)
                                b.Block.term } ]
                      else if String.equal b.Block.label exit_lbl then
                        [ Block.map_insns
                            (fun (i : Instr.t) ->
                              match i.Instr.op with
                              | Instr.Phi (ty, incs) ->
                                let incs =
                                  List.map
                                    (fun (l, v) ->
                                      if String.equal l latch then
                                        (suffix (trip - 1) latch, map_final v)
                                      else (l, v))
                                    incs
                                in
                                { i with Instr.op = Instr.Phi (ty, incs) }
                              | _ -> i)
                            b ]
                      else [ b ])
             in
             (* append copies after the preheader position: simply add them
                at the end; block order only matters for entry *)
             let all_copies = Array.to_list copies |> List.concat_map fst in
             (* stray outside uses of loop values (non-lcssa) resolve to the
                final copy *)
             let blocks = blocks @ all_copies in
             let f' = Func.with_blocks ~next_id:counter.Func.next f blocks in
             let loop_def_set =
               ISet.of_list (Clone.region_defs loop_blocks)
             in
             let f' =
               Func.map_blocks
                 (fun (b : Block.t) ->
                   let is_copy =
                     List.exists
                       (fun (c : Block.t) -> String.equal c.Block.label b.Block.label)
                       all_copies
                   in
                   if is_copy then b
                   else
                     Block.map_operands
                       (fun v ->
                         match v with
                         | Value.Reg r when ISet.mem r loop_def_set -> map_final v
                         | _ -> v)
                       b)
                 f'
             in
             Some f'
           end
         | _ -> None
       end
     | _ -> None)
  | _ -> None

(* --- partial unrolling ----------------------------------------------------

   When the trip count is too large to unroll fully, O2/O3 replicate the
   body [u] times inside the loop (u = the configured partial factor,
   provided it divides the trip count exactly, so no remainder loop is
   needed): copy 0 keeps the original header and phis, copies 1..u-1 are
   clones chained behind it, and only the last copy tests the backedge.
   This divides the per-iteration branch overhead by [u] at the cost of
   a [u]x bigger body — the canonical O3-vs-Oz trade. *)

let partial_unroll_one (cfg : Config.t) (f : Func.t) (loop : Loops.loop) :
    Func.t option =
  let u = cfg.Config.unroll_partial in
  match loop.Loops.preheader, loop.Loops.latches with
  | Some pre, [ latch ] when u >= 2 ->
    (match Utils.analyze_counted_loop f loop with
     | Some info
       when info.Utils.trip_count > max cfg.Config.unroll_count 1
            && info.Utils.trip_count mod u = 0 ->
       let in_loop l = SSet.mem l loop.Loops.blocks in
       let loop_blocks =
         List.filter (fun (b : Block.t) -> in_loop b.Block.label) f.Func.blocks
       in
       let body_size =
         List.fold_left
           (fun acc (b : Block.t) -> acc + List.length b.Block.insns)
           0 loop_blocks
       in
       if body_size * u > cfg.Config.unroll_size_limit * 4 then None
       else begin
         let exits_ok =
           List.for_all
             (fun (b : Block.t) ->
               List.for_all
                 (fun s -> in_loop s || String.equal b.Block.label latch)
                 (Block.successors b))
             loop_blocks
         in
         let exit_lbl =
           match
             List.filter (fun s -> not (in_loop s))
               (Block.successors (Func.find_block_exn f latch))
           with
           | [ e ] -> Some e
           | _ -> None
         in
         match exits_ok, exit_lbl with
         | true, Some exit_lbl ->
           let header = Func.find_block_exn f loop.Loops.header in
           let phis, _ = Block.split_phis header in
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
           if List.length phi_edges <> List.length phis then None
           else begin
             let counter = Func.fresh_counter f in
             let template =
               List.map
                 (fun (b : Block.t) ->
                   if String.equal b.Block.label loop.Loops.header then
                     { b with Block.insns = snd (Block.split_phis b) }
                   else b)
                 loop_blocks
             in
             let uid = counter.Func.next in
             let suffix k l = Printf.sprintf "%s.pu%d.%d" l uid k in
             (* running values of each header phi entering each copy; the
                phi register itself stands for copy 0 *)
             let cur_vals = Hashtbl.create 8 in
             List.iter
               (fun (r, _, _) -> Hashtbl.replace cur_vals r (Value.Reg r))
               phi_edges;
             let copies = ref [] in
             let last_find = ref (fun (_ : int) -> (None : Value.t option)) in
             let last_entry_vals = Hashtbl.create 8 in
             (* after copy k, the phi's next value is subst_k(latch incoming) *)
             let orig_latch_vals =
               List.map (fun (r, _, vl) -> (r, vl)) phi_edges
             in
             for k = 1 to u - 1 do
               (* entry values for copy k = latch incomings of copy k-1 *)
               let entry_vals =
                 List.map
                   (fun (r, vl) ->
                     let v =
                       if k = 1 then vl
                       else
                         match vl with
                         | Value.Reg vr ->
                           (match !last_find vr with Some v' -> v' | None -> vl)
                         | _ -> vl
                     in
                     Hashtbl.replace cur_vals r v;
                     (r, v))
                   orig_latch_vals
               in
               if k = u - 1 then
                 List.iter (fun (r, v) -> Hashtbl.replace last_entry_vals r v) entry_vals;
               let rename l = if in_loop l then suffix k l else l in
               let cloned, find =
                 Clone.clone_blocks ~counter ~rename_label:rename
                   ~init_map:entry_vals template
               in
               (* interior copies fall through to the next copy; the final
                  copy keeps the backedge test but targets the original
                  header *)
               let cloned =
                 List.map
                   (fun (b : Block.t) ->
                     if String.equal b.Block.label (suffix k latch) then
                       if k < u - 1 then
                         { b with Block.term = Instr.Br (suffix (k + 1) loop.Loops.header) }
                       else
                         { b with
                           Block.term =
                             Instr.map_term_labels
                               (fun l ->
                                 if String.equal l (suffix k loop.Loops.header) then
                                   loop.Loops.header
                                 else l)
                               b.Block.term }
                     else b)
                   cloned
               in
               copies := !copies @ cloned;
               last_find := (fun r -> find r)
             done;
             let final_find = !last_find in
             let map_final v =
               match v with
               | Value.Reg r ->
                 (match final_find r with
                  | Some v' -> v'
                  | None ->
                    (match Hashtbl.find_opt last_entry_vals r with
                     | Some v' -> v'
                     | None -> v))
               | _ -> v
             in
             let last_latch = suffix (u - 1) latch in
             let blocks =
               List.map
                 (fun (b : Block.t) ->
                   if String.equal b.Block.label latch && in_loop b.Block.label then
                     (* copy 0 falls through into copy 1 *)
                     { b with Block.term = Instr.Br (suffix 1 loop.Loops.header) }
                   else b)
                 f.Func.blocks
             in
             let blocks =
               List.map
                 (fun (b : Block.t) ->
                   if String.equal b.Block.label loop.Loops.header then
                     (* header phis' backedge now comes from the last copy *)
                     Block.map_insns
                       (fun (i : Instr.t) ->
                         match i.Instr.op with
                         | Instr.Phi (ty, incs) ->
                           let incs =
                             List.map
                               (fun (l, v) ->
                                 if String.equal l latch then (last_latch, map_final v)
                                 else (l, v))
                               incs
                           in
                           { i with Instr.op = Instr.Phi (ty, incs) }
                         | _ -> i)
                       b
                   else if String.equal b.Block.label exit_lbl then
                     Block.map_insns
                       (fun (i : Instr.t) ->
                         match i.Instr.op with
                         | Instr.Phi (ty, incs) ->
                           let incs =
                             List.map
                               (fun (l, v) ->
                                 if String.equal l latch then (last_latch, map_final v)
                                 else (l, v))
                               incs
                           in
                           { i with Instr.op = Instr.Phi (ty, incs) }
                         | _ -> i)
                       b
                   else b)
                 blocks
             in
             (* raw outside uses of loop values observe the last copy *)
             let loop_def_set = ISet.of_list (Clone.region_defs loop_blocks) in
             let copy_labels =
               SSet.of_list (List.map (fun (b : Block.t) -> b.Block.label) !copies)
             in
             let blocks = blocks @ !copies in
             let f' = Func.with_blocks ~next_id:counter.Func.next f blocks in
             let map_raw v =
               match v with
               | Value.Reg r when ISet.mem r loop_def_set -> map_final v
               | _ -> v
             in
             let f' =
               Func.map_blocks
                 (fun (b : Block.t) ->
                   if in_loop b.Block.label || SSet.mem b.Block.label copy_labels then b
                   else if String.equal b.Block.label exit_lbl then
                     (* phi incomings were fixed per-edge above; only the
                        straight-line uses map to the last copy *)
                     { (Block.map_insns
                          (fun (i : Instr.t) ->
                            match i.Instr.op with
                            | Instr.Phi _ -> i
                            | op -> { i with Instr.op = Instr.map_operands map_raw op })
                          b)
                       with Block.term = Instr.map_term_operands map_raw b.Block.term }
                   else Block.map_operands map_raw b)
                 f'
             in
             Some f'
           end
         | _ -> None
       end
     | _ -> None)
  | _ -> None

let run_func (cfg : Config.t) (f : Func.t) : Func.t =
  if cfg.Config.unroll_count <= 1 then f
  else begin
    (* canonicalize first, as the loop pass manager would *)
    Loop_simplify.loop_simplify_func cfg f
    (* unroll innermost loops first *)
    |> Utils.rewrite_loops ~rounds:4 (fun f loop ->
           match unroll_one cfg f loop with
           | None -> partial_unroll_one cfg f loop
           | changed -> changed)
    |> Utils.simplify_single_incoming_phis |> Utils.trivial_dce
  end

let pass =
  Pass.function_pass "loop-unroll"
    ~description:"fully unroll short counted loops (threshold-gated)" run_func
