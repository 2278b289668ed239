(* Transformation utilities shared by many passes. *)

open Posetrl_ir
module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* --- dead-code primitives ----------------------------------------------- *)

(* Delete pure instructions whose results are unused; iterates to a fixed
   point so chains of dead computation disappear. This is the classic
   "trivially dead instruction elimination" many LLVM passes perform as a
   clean-up step. *)
let trivial_dce (f : Func.t) : Func.t =
  let rec go f =
    let uses = Func.use_counts f in
    let used r = Option.value (Hashtbl.find_opt uses r) ~default:0 > 0 in
    let changed = ref false in
    let keep (i : Instr.t) =
      if i.Instr.id >= 0 && (not (used i.Instr.id)) && Instr.is_pure i.Instr.op then begin
        changed := true;
        false
      end
      else true
    in
    let f' = Func.map_blocks (Block.filter_insns keep) f in
    if !changed then go f' else f'
  in
  go f

(* --- CFG cleanup -------------------------------------------------------- *)

(* Drop blocks unreachable from the entry and fix up phi nodes of the
   survivors. *)
let remove_unreachable_blocks (f : Func.t) : Func.t =
  let cfg = Cfg.of_func f in
  let reach = Cfg.reachable cfg in
  let dead =
    List.filter_map
      (fun b ->
        if Cfg.SSet.mem b.Block.label reach then None else Some b.Block.label)
      f.Func.blocks
  in
  if dead = [] then f
  else
    let blocks =
      f.Func.blocks
      |> List.filter (fun b -> Cfg.SSet.mem b.Block.label reach)
      |> List.map (fun b ->
             List.fold_left (fun b d -> Block.remove_phi_pred ~pred:d b) b dead)
    in
    Func.with_blocks f blocks

(* Fold conditional branches and switches with constant operands. *)
let fold_terminators (f : Func.t) : Func.t =
  let fold_block (b : Block.t) =
    match b.Block.term with
    | Instr.Cbr (Value.Const (Value.Cint (Types.I1, c)), t, e) ->
      { b with Block.term = Instr.Br (if Int64.equal c 1L then t else e) }
    | Instr.Cbr (_, t, e) when String.equal t e -> { b with Block.term = Instr.Br t }
    | Instr.Switch (_, Value.Const (Value.Cint (_, v)), cases, d) ->
      let target =
        match List.assoc_opt v cases with Some l -> l | None -> d
      in
      { b with Block.term = Instr.Br target }
    | Instr.Switch (_, _, [], d) -> { b with Block.term = Instr.Br d }
    | _ -> b
  in
  let f' = Func.map_blocks fold_block f in
  (* folding may strand blocks and leave stale phi entries: when an edge
     from p to s disappeared, s's phis must drop the p entry *)
  let cfg = Cfg.of_func f' in
  let blocks =
    List.map
      (fun b ->
        let preds = SSet.of_list (Cfg.preds cfg b.Block.label) in
        Block.map_insns
          (fun i ->
            match i.Instr.op with
            | Instr.Phi (ty, incs) ->
              let incs = List.filter (fun (l, _) -> SSet.mem l preds) incs in
              { i with Instr.op = Instr.Phi (ty, incs) }
            | _ -> i)
          b)
      f'.Func.blocks
  in
  remove_unreachable_blocks (Func.with_blocks f' blocks)

(* Replace single-incoming phis by a copy (direct substitution). *)
let simplify_single_incoming_phis (f : Func.t) : Func.t =
  let subst = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Phi (_, [ (_, v) ]) -> Hashtbl.replace subst i.Instr.id v
          | Instr.Phi (_, incs) ->
            (* all non-self incomings equal *)
            let non_self =
              List.filter (fun (_, v) -> v <> Value.Reg i.Instr.id) incs
            in
            (match non_self with
             | (_, v) :: rest when List.for_all (fun (_, v') -> Value.equal v v') rest ->
               Hashtbl.replace subst i.Instr.id v
             | _ -> ())
          | _ -> ())
        b.Block.insns)
    f.Func.blocks;
  Func.substitute subst f

(* Merge [b] into its unique predecessor when that predecessor
   unconditionally branches to [b]. Applied to a fixed point. *)
let merge_blocks (f : Func.t) : Func.t =
  let rec go f =
    let cfg = Cfg.of_func f in
    let entry = (Func.entry f).Block.label in
    (* find a mergeable pair *)
    let candidate =
      List.find_map
        (fun (b : Block.t) ->
          if String.equal b.Block.label entry then None
          else
            match Cfg.preds cfg b.Block.label with
            | [ p ] when not (String.equal p b.Block.label) ->
              let pred = Func.find_block_exn f p in
              (match pred.Block.term with
               | Instr.Br _ -> Some (pred, b)
               | _ -> None)
            | _ -> None)
        f.Func.blocks
    in
    match candidate with
    | None -> f
    | Some (pred, b) ->
      (* resolve b's phis: single predecessor, so each phi is a copy *)
      let phis, rest = Block.split_phis b in
      let subst = Hashtbl.create 4 in
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Phi (_, incs) ->
            let v =
              match List.assoc_opt pred.Block.label incs with
              | Some v -> v
              | None -> (match incs with (_, v) :: _ -> v | [] -> Value.cundef Types.I64)
            in
            Hashtbl.replace subst i.Instr.id v
          | _ -> ())
        phis;
      let merged =
        Block.mk pred.Block.label (pred.Block.insns @ rest) b.Block.term
      in
      let blocks =
        f.Func.blocks
        |> List.filter (fun blk ->
               not (String.equal blk.Block.label b.Block.label))
        |> List.map (fun blk ->
               if String.equal blk.Block.label pred.Block.label then merged else blk)
        (* successors of b now see pred as the branching block *)
        |> List.map (Block.rename_phi_pred ~from:b.Block.label ~to_:pred.Block.label)
      in
      go (Func.substitute subst (Func.with_blocks f blocks))
  in
  go f

(* Remove empty forwarding blocks (only a [br]), retargeting predecessors.
   Blocks whose target has phis are kept when folding would create
   duplicate incoming labels. *)
let remove_forwarding_blocks (f : Func.t) : Func.t =
  let rec go f =
    let cfg = Cfg.of_func f in
    let entry = (Func.entry f).Block.label in
    let candidate =
      List.find_map
        (fun (b : Block.t) ->
          match b.Block.insns, b.Block.term with
          | [], Instr.Br target
            when (not (String.equal b.Block.label entry))
                 && not (String.equal target b.Block.label) ->
            let preds = Cfg.preds cfg b.Block.label in
            let target_blk = Func.find_block_exn f target in
            let target_preds = SSet.of_list (Cfg.preds cfg target) in
            let has_phis = Block.phis target_blk <> [] in
            (* folding is safe if no pred of b is already a pred of target
               (would duplicate phi entries), or if target has no phis *)
            let safe =
              (not has_phis)
              || List.for_all (fun p -> not (SSet.mem p target_preds)) preds
            in
            if safe && preds <> [] then Some (b, target, preds) else None
          | _ -> None)
        f.Func.blocks
    in
    match candidate with
    | None -> f
    | Some (b, target, preds) ->
      let retarget l = if String.equal l b.Block.label then target else l in
      let blocks =
        f.Func.blocks
        |> List.filter (fun blk -> not (String.equal blk.Block.label b.Block.label))
        |> List.map (fun blk ->
               { blk with Block.term = Instr.map_term_labels retarget blk.Block.term })
        |> List.map (fun blk ->
               if String.equal blk.Block.label target then
                 (* each pred of b becomes a pred of target with b's value *)
                 Block.map_insns
                   (fun i ->
                     match i.Instr.op with
                     | Instr.Phi (ty, incs) ->
                       (match List.assoc_opt b.Block.label incs with
                        | None -> i
                        | Some v ->
                          let incs =
                            List.filter (fun (l, _) -> not (String.equal l b.Block.label)) incs
                            @ List.map (fun p -> (p, v)) preds
                          in
                          { i with Instr.op = Instr.Phi (ty, incs) })
                     | _ -> i)
                   blk
               else blk)
      in
      go (Func.with_blocks f blocks)
  in
  go f

(* Insert a fresh block named [label] on every edge from a block in
   [froms] to [to_]; the new block unconditionally branches to [to_] and
   inherits the relevant phi entries. Returns the updated function. *)
let insert_block_on_edges (f : Func.t) ~(froms : string list) ~(to_ : string) ~(label : string) : Func.t =
  if froms = [] then f
  else begin
    let from_set = SSet.of_list froms in
    let retarget l = if String.equal l to_ then label else l in
    let blocks =
      List.concat_map
        (fun (b : Block.t) ->
          let b =
            if SSet.mem b.Block.label from_set then
              { b with Block.term = Instr.map_term_labels retarget b.Block.term }
            else b
          in
          if String.equal b.Block.label to_ then begin
            (* phi entries from [froms] move to the new block; since several
               preds can funnel through one new block only when the phi
               values agree, we keep per-pred entries by pointing them at
               the new block only when there is exactly one from; for
               multiple froms we require the caller to pass distinct labels
               per edge (loop-simplify does). *)
            let new_blk = Block.mk label [] (Instr.Br to_) in
            let fixed =
              Block.map_insns
                (fun i ->
                  match i.Instr.op with
                  | Instr.Phi (ty, incs) ->
                    let from_vals, others =
                      List.partition (fun (l, _) -> SSet.mem l from_set) incs
                    in
                    (match from_vals with
                     | [] -> i
                     | (_, v) :: rest ->
                       if List.for_all (fun (_, v') -> Value.equal v v') rest then
                         { i with Instr.op = Instr.Phi (ty, (label, v) :: others) }
                       else
                         (* differing values cannot be funnelled without a
                            new phi in the new block; the caller avoids
                            this case *)
                         invalid_arg "insert_block_on_edges: conflicting phi values")
                  | _ -> i)
                b
            in
            [ new_blk; fixed ]
          end
          else [ b ])
        f.Func.blocks
    in
    Func.with_blocks f blocks
  end

(* --- misc --------------------------------------------------------------- *)

(* Fresh label not already used in the function. *)
let fresh_label (f : Func.t) (base : string) : string =
  let used = SSet.of_list (List.map (fun b -> b.Block.label) f.Func.blocks) in
  if not (SSet.mem base used) then base
  else
    let rec go i =
      let l = Printf.sprintf "%s.%d" base i in
      if SSet.mem l used then go (i + 1) else l
    in
    go 1

(* Static cost of a function body, used by the inliner threshold. *)
let func_cost (f : Func.t) : int =
  Func.fold_insns
    (fun acc _ i ->
      acc
      +
      match i.Instr.op with
      | Instr.Call _ | Instr.Callind _ -> 3
      | Instr.Load _ | Instr.Store _ -> 2
      | Instr.Phi _ -> 0
      | _ -> 1)
    0 f
  + List.length f.Func.blocks

(* Run a function transform to a fixed point, with a safety bound. *)
let to_fixed_point ?(max_iters = 8) (step : Func.t -> Func.t * bool) (f : Func.t) : Func.t =
  let rec go f i =
    if i >= max_iters then f
    else
      let f', changed = step f in
      if changed then go f' (i + 1) else f'
  in
  go f 0

(* The loop-pass driver: up to [rounds] rounds of computing the loop facts
   and applying [rewrite] at the first loop where it changes the function.
   It visits the leaf loops, or with [~all:true] every loop, outermost
   first. A per-loop rewrite returns [None] when it changes nothing. *)
let rewrite_loops ?(all = false) ~rounds
    (rewrite : Func.t -> Loops.loop -> Func.t option) (f : Func.t) : Func.t =
  let rec go f n =
    if n = 0 then f
    else
      let li = Loops.compute f in
      match List.find_map (rewrite f) (if all then li.Loops.loops else Loops.leaf_loops li) with
      | Some f' -> go f' (n - 1)
      | None -> f
  in
  go f rounds

(* --- loop mechanics ------------------------------------------------------ *)

let in_loop (loop : Loops.loop) (label : string) = SSet.mem label loop.Loops.blocks

(* One loop as the loop passes read it: its blocks in function order, the
   registers its instructions define with their defining instructions,
   and its body size in instructions. A pass builds it from the function
   it is about to rewrite, after its own cheap shape checks. *)
type loop_view = {
  loop : Loops.loop;
  blocks : Block.t list;
  defs : (int, Instr.t) Hashtbl.t;
  size : int;
}

let view (f : Func.t) (loop : Loops.loop) : loop_view =
  let blocks = List.filter (fun (b : Block.t) -> in_loop loop b.Block.label) f.Func.blocks in
  let defs = Hashtbl.create 16 in
  let size =
    List.fold_left
      (fun n (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) -> if i.Instr.id >= 0 then Hashtbl.replace defs i.Instr.id i)
          b.Block.insns;
        n + List.length b.Block.insns)
      0 blocks
  in
  { loop; blocks; defs; size }

(* The operation defining register [r] in the loop, if the loop defines it. *)
let def_op (v : loop_view) (r : int) : Instr.op option =
  Option.map (fun (i : Instr.t) -> i.Instr.op) (Hashtbl.find_opt v.defs r)

(* A value the loop does not compute. *)
let invariant (v : loop_view) (x : Value.t) =
  match x with Value.Reg r -> not (Hashtbl.mem v.defs r) | _ -> true

(* Where a register the loop defines is used outside it: an operand of an
   instruction or terminator, or the incoming value a phi in exit block
   [exit] receives from predecessor [pred]. *)
type use_site = Operand | Exit_phi of { exit : string; pred : string }

(* The walk over outside uses: every use, outside the loop, of a register
   the loop defines, in function order (each block's instructions, then
   its terminator), rewritten to [rewrite site r]. An instruction or
   terminator whose operands all come back equal is kept as it was;
   one that changes is rewritten with [rewrite] called again, so a
   rewrite that changes a value must give one value per site and
   register. *)
let map_outside_uses (v : loop_view) (f : Func.t)
    (rewrite : use_site -> int -> Value.t) : Func.t =
  let use site x =
    match x with Value.Reg r when Hashtbl.mem v.defs r -> rewrite site r | _ -> x
  in
  let same xs = List.for_all (fun x -> Value.equal x (use Operand x)) xs in
  let block (b : Block.t) =
    if in_loop v.loop b.Block.label then b
    else
      let exit = List.mem b.Block.label v.loop.Loops.exits in
      let insn (i : Instr.t) =
        match i.Instr.op with
        | Instr.Phi (ty, incs) when exit ->
          let incs' =
            List.map
              (fun (pred, x) -> (pred, use (Exit_phi { exit = b.Block.label; pred }) x))
              incs
          in
          if List.for_all2 (fun (_, x) (_, x') -> Value.equal x x') incs incs' then i
          else { i with Instr.op = Instr.Phi (ty, incs') }
        | op ->
          if same (Instr.operands op) then i
          else { i with Instr.op = Instr.map_operands (use Operand) op }
      in
      let insns = List.map insn b.Block.insns in
      let term =
        if same (Instr.term_operands b.Block.term) then b.Block.term
        else Instr.map_term_operands (use Operand) b.Block.term
      in
      { b with Block.insns; term }
  in
  Func.map_blocks block f

(* The same walk, visiting each outside use without rewriting it. *)
let iter_outside_uses (v : loop_view) (f : Func.t) (visit : use_site -> int -> unit) : unit =
  ignore (map_outside_uses v f (fun site r -> visit site r; Value.Reg r))

(* Whether some outside use satisfies [p]; the walk stops at the first. *)
let exists_outside_use (v : loop_view) (f : Func.t) (p : use_site -> int -> bool) : bool =
  match iter_outside_uses v f (fun site r -> if p site r then raise_notrace Exit) with
  | () -> false
  | exception Exit -> true

(* Whether the edges from the predecessors [from] bring one value into
   each phi of [b]. *)
let phis_agree (b : Block.t) (from : string -> bool) : bool =
  List.for_all
    (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.Phi (_, incs) ->
        (match List.filter_map (fun (l, x) -> if from l then Some x else None) incs with
         | [] -> true
         | x :: rest -> List.for_all (Value.equal x) rest)
      | _ -> true)
    b.Block.insns

(* Estimate trip count of a simple counted loop:
   header phi  i = phi [init, preheader] [next, latch]
   latch next  = i + step
   guard       = icmp pred i, bound  (controls the back edge)
   Returns [Some n] when the loop runs a compile-time-known n >= 0 times. *)
type counted_loop = {
  phi_reg : int;
  init : int64;
  step : int64;
  bound : int64;
  pred : Instr.icmp;
  trip_count : int;
  next_reg : int;
  cmp_reg : int;
  ty : Types.t;
}

let analyze_counted_loop (f : Func.t) (loop : Loops.loop) : counted_loop option =
  match loop.Loops.latches, loop.Loops.preheader with
  | [ latch ], Some pre ->
    let header = Func.find_block_exn f loop.Loops.header in
    let latch_blk = Func.find_block_exn f latch in
    (* find the exit condition: the latch (or header) ends in a cbr whose
       condition is an icmp on the induction phi's next value *)
    let defs = Func.def_map f in
    let find_icmp c =
      match c with
      | Value.Reg r ->
        (match Hashtbl.find_opt defs r with
         | Some (_, { Instr.op = Instr.Icmp (p, ty, a, b); Instr.id; _ }) ->
           Some (id, p, ty, a, b)
         | _ -> None)
      | _ -> None
    in
    let phis = Block.phis header in
    let try_phi (i : Instr.t) =
      match i.Instr.op with
      | Instr.Phi (ty, incs) when Types.is_integer ty ->
        let init_v = List.assoc_opt pre incs in
        let next_v = List.assoc_opt latch incs in
        (match init_v, next_v with
         | Some (Value.Const (Value.Cint (_, init))), Some (Value.Reg next_reg) ->
           (match Hashtbl.find_opt defs next_reg with
            | Some (_, { Instr.op = Instr.Binop (Instr.Add, _, Value.Reg p, Value.Const (Value.Cint (_, step))); _ })
              when p = i.Instr.id && not (Int64.equal step 0L) ->
              (* guard: cbr in latch *)
              (match latch_blk.Block.term with
               | Instr.Cbr (c, t, e) ->
                 (match find_icmp c with
                  | Some (cmp_reg, pred, _, Value.Reg lhs, Value.Const (Value.Cint (_, bound)))
                    when lhs = next_reg || lhs = i.Instr.id ->
                    (* normalize: continue branch goes to header *)
                    let continue_on_true = String.equal t loop.Loops.header in
                    let continue_on_false = String.equal e loop.Loops.header in
                    if not (continue_on_true || continue_on_false) then None
                    else begin
                      let pred =
                        if continue_on_true then pred else Instr.negate_icmp pred
                      in
                      (* count iterations by direct simulation, bounded *)
                      let uses_next = lhs = next_reg in
                      let limit = 4096 in
                      let rec count i iters =
                        if iters > limit then None
                        else
                          let next = Int64.add i step in
                          let probe = if uses_next then next else i in
                          if Fold.eval_icmp pred probe bound then count next (iters + 1)
                          else Some (iters + 1)
                      in
                      match count init 0 with
                      | Some trip_count ->
                        Some
                          { phi_reg = i.Instr.id; init; step; bound; pred;
                            trip_count; next_reg; cmp_reg; ty }
                      | None -> None
                    end
                  | _ -> None)
               | _ -> None)
            | _ -> None)
         | _ -> None)
      | _ -> None
    in
    List.find_map try_phi phis
  | _ -> None

(* Whether [x] is the counted loop's induction phi. *)
let is_iv (info : counted_loop) (x : Value.t) =
  match x with Value.Reg r -> r = info.phi_reg | _ -> false
