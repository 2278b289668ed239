(* -loop-vectorize: widen unit-stride counted loops to vector operations.

   Conservative, single-block vectorizer: loads and stores through
   gep(base, iv) with loop-invariant bases become vector memory ops, the
   connecting pure arithmetic is widened elementwise, invariant scalars
   are splatted (represented as a scalar-to-vector bitcast), and the
   induction step is multiplied by the vector width. Loops whose trip
   count is not divisible by the width, or whose loads may alias the
   stores, are left alone. *)

open Posetrl_ir

let vectorize_one (cfg : Config.t) (f : Func.t) (loop : Loops.loop) : Func.t option =
  let w = cfg.Config.vector_width in
  if w < 2 then None
  else
    match loop.Loops.preheader, loop.Loops.latches with
    | Some _pre, [ latch ] when String.equal latch loop.Loops.header ->
      (match Utils.analyze_counted_loop f loop with
       | Some info
         when Int64.equal info.Utils.step 1L
              && info.Utils.trip_count mod w = 0
              && info.Utils.trip_count >= 2 * w ->
         (* the latch is the header: the body is that one block *)
         let lv = Utils.view f loop in
         let body = List.hd lv.Utils.blocks in
         let is_iv = Utils.is_iv info and invariant = Utils.invariant lv in
         let iv_gep r =
           match Utils.def_op lv r with
           | Some (Instr.Gep (ty, base, idx)) when is_iv idx && invariant base ->
             Some (ty, base)
           | _ -> None
         in
         (* classify registers: Vec means the register becomes a vector *)
         let vec : (int, Types.t) Hashtbl.t = Hashtbl.create 16 in
         let store_bases = ref [] in
         let load_bases = ref [] in
         let ok = ref true in
         List.iter
           (fun (i : Instr.t) ->
             match i.Instr.op with
             | Instr.Phi _ when i.Instr.id = info.Utils.phi_reg -> ()
             | Instr.Phi _ -> ok := false
             | Instr.Gep (_, base, idx) ->
               if not (is_iv idx && invariant base) then ok := false
             | Instr.Load (ty, Value.Reg p) ->
               (match iv_gep p with
                | Some (gty, base) when Types.equal gty ty && not (Types.is_vector ty) ->
                  Hashtbl.replace vec i.Instr.id ty;
                  load_bases := base :: !load_bases
                | _ -> ok := false)
             | Instr.Load _ -> ok := false
             | Instr.Store (ty, v, Value.Reg p) ->
               (match iv_gep p with
                | Some (gty, base) when Types.equal gty ty && not (Types.is_vector ty) ->
                  store_bases := base :: !store_bases;
                  (* the stored value must be a widened register or a
                     loop-invariant scalar; a loop-varying scalar (e.g. the
                     IV itself) cannot be splatted *)
                  (match v with
                   | Value.Reg r when Hashtbl.mem vec r -> ()
                   | v when invariant v -> ()
                   | _ -> ok := false)
                | _ -> ok := false)
             | Instr.Store _ -> ok := false
             | Instr.Binop (_, ty, a, b)
               when i.Instr.id <> info.Utils.next_reg && not (Types.is_vector ty) ->
               (* widen iff any operand is (or becomes) a vector *)
               let operand_vec v =
                 match v with Value.Reg r -> Hashtbl.mem vec r | _ -> false
               in
               if operand_vec a || operand_vec b then Hashtbl.replace vec i.Instr.id ty
               else if List.exists is_iv [ a; b ] then ok := false
             | Instr.Binop _ -> ()
             | Instr.Icmp _ when i.Instr.id = info.Utils.cmp_reg -> ()
             | Instr.Select _ | Instr.Cast _ | Instr.Icmp _ | Instr.Fcmp _
             | Instr.Expect _ ->
               (* only allowed when untouched by vector values *)
               let touches_vec =
                 List.exists
                   (fun v -> match v with Value.Reg r -> Hashtbl.mem vec r | _ -> false)
                   (Instr.operands i.Instr.op)
               in
               if touches_vec then ok := false
             | Instr.Call _ | Instr.Callind _ | Instr.Memcpy _ | Instr.Intrinsic _
             | Instr.Alloca _ ->
               ok := false)
           body.Block.insns;
         (* iterate the widening to a fixed point (chains of binops) *)
         let changed = ref true in
         while !ok && !changed do
           changed := false;
           List.iter
             (fun (i : Instr.t) ->
               match i.Instr.op with
               | Instr.Binop (_, ty, a, b)
                 when i.Instr.id <> info.Utils.next_reg
                      && (not (Hashtbl.mem vec i.Instr.id))
                      && not (Types.is_vector ty) ->
                 let operand_vec v =
                   match v with Value.Reg r -> Hashtbl.mem vec r | _ -> false
                 in
                 if operand_vec a || operand_vec b then begin
                   Hashtbl.replace vec i.Instr.id ty;
                   changed := true
                 end
               | _ -> ())
             body.Block.insns
         done;
         (* alias check: loads must not read what the loop writes *)
         let disjoint =
           List.for_all
             (fun lb -> List.for_all (fun sb -> not (Value.equal lb sb)) !store_bases)
             !load_bases
         in
         (* every vector value must only flow into vector ops or stores *)
         let flows_ok =
           List.for_all
             (fun (i : Instr.t) ->
               match i.Instr.op with
               | Instr.Gep (_, _, idx) ->
                 (match idx with
                  | Value.Reg r -> not (Hashtbl.mem vec r)
                  | _ -> true)
               | _ -> true)
             body.Block.insns
           &&
           (* the latch branch and the IV chain must stay scalar *)
           not (Hashtbl.mem vec info.Utils.next_reg)
         in
         if (not !ok) || (not disjoint) || (not flows_ok) || !store_bases = [] then None
         else begin
           (* nothing vector-defined may be used outside the loop *)
           if Utils.exists_outside_use lv f (fun _ r -> Hashtbl.mem vec r) then None
           else begin
             let counter = Func.fresh_counter f in
             let vty ty = Types.Vec (ty, w) in
             (* rewrite the body *)
             let splats = ref [] in
             let splat ty v =
               let r = Func.fresh counter in
               splats := Instr.mk r (Instr.Cast (Instr.Bitcast, ty, vty ty, v)) :: !splats;
               Value.Reg r
             in
             let widen_operand ty v =
               match v with
               | Value.Reg r when Hashtbl.mem vec r -> v
               | v -> splat ty v
             in
             let insns =
               List.concat_map
                 (fun (i : Instr.t) ->
                   splats := [];
                   let i' =
                     match i.Instr.op with
                     | Instr.Load (ty, p) when Hashtbl.mem vec i.Instr.id ->
                       { i with Instr.op = Instr.Load (vty ty, p) }
                     | Instr.Store (ty, v, p) when not (Types.is_vector ty) ->
                       let v' = widen_operand ty v in
                       { i with Instr.op = Instr.Store (vty ty, v', p) }
                     | Instr.Binop (b, ty, x, y) when Hashtbl.mem vec i.Instr.id ->
                       let x' = widen_operand ty x and y' = widen_operand ty y in
                       { i with Instr.op = Instr.Binop (b, vty ty, x', y') }
                     | Instr.Binop (Instr.Add, ty, x, Value.Const (Value.Cint (_, 1L)))
                       when i.Instr.id = info.Utils.next_reg ->
                       { i with
                         Instr.op =
                           Instr.Binop (Instr.Add, ty, x, Value.cint ty (Int64.of_int w)) }
                     | _ -> i
                   in
                   List.rev !splats @ [ i' ])
                 body.Block.insns
             in
             let body' = { body with Block.insns = insns } in
             let blocks =
               List.map
                 (fun (b : Block.t) ->
                   if String.equal b.Block.label loop.Loops.header then body' else b)
                 f.Func.blocks
             in
             Some (Func.with_blocks ~next_id:counter.Func.next f blocks)
           end
         end
       | _ -> None)
    | _ -> None

let run_func (cfg : Config.t) (f : Func.t) : Func.t =
  Loop_simplify.loop_simplify_func cfg f |> Utils.merge_blocks
  |> Utils.rewrite_loops ~rounds:1 (vectorize_one cfg)

let pass =
  Pass.function_pass "loop-vectorize"
    ~description:"widen unit-stride counted loops to vector width" run_func
