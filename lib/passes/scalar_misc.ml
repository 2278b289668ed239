(* Assorted scalar passes from the Oz pipeline:
   -jump-threading, -correlated-propagation, -speculative-execution,
   -tailcallelim, -reassociate, -float2int, -lower-expect,
   -lower-constant-intrinsics, -div-rem-pairs. *)

open Posetrl_ir
module SSet = Set.Make (String)

(* --- jump-threading ------------------------------------------------------

   When a block's conditional branch is decided by a phi of constants,
   each predecessor contributing a constant can jump directly to the
   decided target, skipping the test. We thread the common shape: a block
   containing only the phi (plus other phis) and a cbr on it. *)

let thread_one (f : Func.t) : (Func.t * bool) =
  let cfg = Cfg.of_func f in
  let candidate =
    List.find_map
      (fun (b : Block.t) ->
        match b.Block.term with
        | Instr.Cbr (Value.Reg c, t, e) when not (String.equal t e) ->
          let phis, rest = Block.split_phis b in
          if rest <> [] then None
          else
            List.find_map
              (fun (i : Instr.t) ->
                match i.Instr.op with
                | Instr.Phi (Types.I1, incs) when i.Instr.id = c ->
                  let const_preds =
                    List.filter_map
                      (fun (l, v) ->
                        match v with
                        | Value.Const (Value.Cint (Types.I1, k)) ->
                          Some (l, Int64.equal k 1L)
                        | _ -> None)
                      incs
                  in
                  if const_preds = [] then None else Some (b, t, e, const_preds, phis)
                | _ -> None)
              phis
        | _ -> None)
      f.Func.blocks
  in
  match candidate with
  | None -> (f, false)
  | Some (b, t_lbl, e_lbl, const_preds, phis) ->
    (* a predecessor can only be retargeted when the destination's phis can
       absorb the new edge: destination phi entries from [b] reference
       either constants or [b]'s phis, which we resolve per-pred *)
    let label = b.Block.label in
    let dest_of k = if k then t_lbl else e_lbl in
    let resolvable pred k =
      let dest = Func.find_block_exn f (dest_of k) in
      (* threading may not create a duplicate incoming edge *)
      let already_pred =
        List.exists (String.equal pred) (Cfg.preds cfg (dest_of k))
      in
      (not already_pred)
      && List.for_all
           (fun (i : Instr.t) ->
             match i.Instr.op with
             | Instr.Phi (_, incs) ->
               (match List.assoc_opt label incs with
                | None -> true
                | Some (Value.Const _) -> true
                | Some (Value.Reg r) ->
                  List.exists (fun (p : Instr.t) -> p.Instr.id = r) phis
                | Some _ -> true)
             | _ -> true)
           dest.Block.insns
    in
    let threadable = List.filter (fun (p, k) -> resolvable p k) const_preds in
    if threadable = [] then (f, false)
    else begin
      (* resolve [b]'s phi values for a given pred *)
      let phi_value_for pred (r : int) =
        List.find_map
          (fun (i : Instr.t) ->
            if i.Instr.id = r then
              match i.Instr.op with
              | Instr.Phi (_, incs) -> List.assoc_opt pred incs
              | _ -> None
            else None)
          phis
      in
      let blocks =
        List.map
          (fun (blk : Block.t) ->
            (* retarget threaded predecessors *)
            let blk =
              match List.find_opt (fun (p, _) -> String.equal p blk.Block.label) threadable with
              | Some (_, k) ->
                { blk with
                  Block.term =
                    Instr.map_term_labels
                      (fun l -> if String.equal l label then dest_of k else l)
                      blk.Block.term }
              | None -> blk
            in
            (* destinations absorb new incoming edges *)
            let new_edges_into =
              List.filter (fun (_, k) -> String.equal (dest_of k) blk.Block.label) threadable
            in
            let blk =
              if new_edges_into = [] then blk
              else
                Block.map_insns
                  (fun (i : Instr.t) ->
                    match i.Instr.op with
                    | Instr.Phi (ty, incs) ->
                      let base_v = List.assoc_opt label incs in
                      let extra =
                        List.filter_map
                          (fun (pred, _) ->
                            match base_v with
                            | None -> None
                            | Some (Value.Reg r) ->
                              (match phi_value_for pred r with
                               | Some v -> Some (pred, v)
                               | None -> Some (pred, Value.Reg r))
                            | Some v -> Some (pred, v))
                          new_edges_into
                      in
                      { i with Instr.op = Instr.Phi (ty, incs @ extra) }
                    | _ -> i)
                  blk
            in
            (* [b] itself drops the threaded predecessors from its phis *)
            if String.equal blk.Block.label label then
              List.fold_left
                (fun blk (pred, _) -> Block.remove_phi_pred ~pred blk)
                blk threadable
            else blk)
          f.Func.blocks
      in
      let f = Func.with_blocks f blocks in
      (Utils.remove_unreachable_blocks f |> Utils.simplify_single_incoming_phis, true)
    end

let jump_threading_pass =
  Pass.function_pass "jump-threading"
    ~description:"thread edges whose branch outcome the predecessor determines"
    (fun _cfg f ->
      Utils.to_fixed_point ~max_iters:8 thread_one f |> Utils.trivial_dce)

(* --- correlated-propagation ----------------------------------------------

   Uses branch conditions to refine values in dominated regions: inside
   the true successor of [cbr (icmp eq x, C)], x is C; a re-test of the
   same condition register folds to its known truth value. *)

let correlated_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  let rewrites = ref [] in
  List.iter
    (fun (b : Block.t) ->
      match b.Block.term with
      | Instr.Cbr (Value.Reg c, t, e) when not (String.equal t e) ->
        let defs = Func.def_map f in
        let add_region succ facts =
          (* the facts hold in blocks dominated by succ, provided succ has
             the branch as only entry *)
          match Cfg.preds cfg succ with
          | [ p ] when String.equal p b.Block.label ->
            List.iter (fun fact -> rewrites := (succ, fact) :: !rewrites) facts
          | _ -> ()
        in
        let eq_fact =
          match Hashtbl.find_opt defs c with
          | Some (_, { Instr.op = Instr.Icmp (Instr.Eq, _, Value.Reg x, (Value.Const _ as k)); _ }) ->
            Some (x, k)
          | _ -> None
        in
        add_region t
          ((c, Value.ci1 true) :: (match eq_fact with Some f' -> [ f' ] | None -> []));
        add_region e [ (c, Value.ci1 false) ]
      | _ -> ())
    f.Func.blocks;
  if !rewrites = [] then f
  else begin
    let blocks =
      List.map
        (fun (blk : Block.t) ->
          (* apply facts whose region dominates this block *)
          let applicable =
            List.filter (fun (root, _) -> Dom.dominates dom root blk.Block.label) !rewrites
          in
          if applicable = [] then blk
          else
            let fix v =
              match v with
              | Value.Reg r ->
                (match List.find_opt (fun (_, (fr, _)) -> fr = r) applicable with
                 | Some (_, (_, v')) -> v'
                 | None -> v)
              | _ -> v
            in
            (* phi operands flow along edges, not within the block: skip *)
            let fix_insn (i : Instr.t) =
              match i.Instr.op with
              | Instr.Phi _ -> i
              | op -> { i with Instr.op = Instr.map_operands fix op }
            in
            { (Block.map_insns fix_insn blk) with
              Block.term = Instr.map_term_operands fix blk.Block.term })
        f.Func.blocks
    in
    Func.with_blocks f blocks |> Utils.fold_terminators |> Utils.trivial_dce
  end

let correlated_pass =
  Pass.function_pass "correlated-propagation"
    ~description:"propagate values implied by dominating branch conditions"
    correlated_func

(* --- speculative-execution -----------------------------------------------

   Hoists a handful of cheap pure instructions from both successors of a
   conditional branch into the branching block, exposing if-conversion
   opportunities for simplifycfg. *)

let speculative_func (cfg_opt : Config.t) (f : Func.t) : Func.t =
  let budget = cfg_opt.Config.speculate_max_insns in
  if budget = 0 then f
  else begin
    let cfg = Cfg.of_func f in
    let single_pred l = match Cfg.preds cfg l with [ _ ] -> true | _ -> false in
    let blocks_tbl = Hashtbl.create 16 in
    List.iter (fun (b : Block.t) -> Hashtbl.replace blocks_tbl b.Block.label b) f.Func.blocks;
    let hoisted : (string, Instr.t list) Hashtbl.t = Hashtbl.create 4 in
    let cleared : (string, unit) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun (b : Block.t) ->
        match b.Block.term with
        | Instr.Cbr (_, t, e) when not (String.equal t e) ->
          let try_hoist lbl =
            if single_pred lbl && not (Hashtbl.mem cleared lbl) then begin
              let succ = Hashtbl.find blocks_tbl lbl in
              let phis, rest = Block.split_phis succ in
              let cheap (i : Instr.t) =
                Instr.is_pure i.Instr.op
                &&
                match i.Instr.op with
                | Instr.Binop ((Instr.Sdiv | Instr.Udiv | Instr.Srem | Instr.Urem), _, _, _) ->
                  false
                | _ -> true
              in
              if phis = [] && List.length rest <= budget && List.for_all cheap rest
                 && rest <> [] then begin
                let cur = Option.value (Hashtbl.find_opt hoisted b.Block.label) ~default:[] in
                Hashtbl.replace hoisted b.Block.label (cur @ rest);
                Hashtbl.replace cleared lbl ()
              end
            end
          in
          try_hoist t;
          try_hoist e
        | _ -> ())
      f.Func.blocks;
    if Hashtbl.length hoisted = 0 then f
    else
      Func.map_blocks
        (fun (b : Block.t) ->
          let b =
            if Hashtbl.mem cleared b.Block.label then
              Block.filter_insns (fun i -> Instr.is_phi i.Instr.op) b
            else b
          in
          match Hashtbl.find_opt hoisted b.Block.label with
          | Some insns -> { b with Block.insns = b.Block.insns @ insns }
          | None -> b)
        f
  end

let speculative_pass =
  Pass.function_pass "speculative-execution"
    ~description:"hoist cheap instructions above conditional branches"
    speculative_func

(* --- tailcallelim --------------------------------------------------------

   Rewrites self-recursive tail calls into a loop: parameters become phis
   in a new loop header and each `ret (call self)` becomes a backedge. *)

let tailcall_func (_cfg : Config.t) (f : Func.t) : Func.t =
  if Func.is_declaration f then f
  else begin
    (* find tail sites: call to self immediately followed by ret of the
       call's result (or both void) *)
    let tail_sites =
      List.filter_map
        (fun (b : Block.t) ->
          match List.rev b.Block.insns, b.Block.term with
          | ( { Instr.id; Instr.op = Instr.Call (ty, g, args) } :: _,
              Instr.Ret (Some (_, Value.Reg r)) )
            when String.equal g f.Func.name && r = id && Types.equal ty f.Func.ret ->
            Some (b.Block.label, args)
          | ( { Instr.id = _; Instr.op = Instr.Call (_, g, args) } :: _,
              Instr.Ret None )
            when String.equal g f.Func.name ->
            Some (b.Block.label, args)
          | _ -> None)
        f.Func.blocks
    in
    if tail_sites = [] then f
    else begin
      let counter = Func.fresh_counter f in
      let entry = Func.entry f in
      let header_lbl = Utils.fresh_label f "tailrecurse" in
      let new_entry_lbl = Utils.fresh_label f "tailentry" in
      (* new phis: one per parameter *)
      let phis =
        List.map
          (fun (p, ty) ->
            let r = Func.fresh counter in
            (p, ty, r))
          f.Func.params
      in
      let site_labels = List.map fst tail_sites in
      let phi_insns =
        List.mapi
          (fun idx (p, ty, r) ->
            let incs =
              (new_entry_lbl, Value.Reg p)
              :: List.map
                   (fun (lbl, args) -> (lbl, List.nth args idx))
                   tail_sites
            in
            Instr.mk r (Instr.Phi (ty, incs)))
          phis
      in
      (* substitution: parameter -> phi inside the old body *)
      let subst v =
        match v with
        | Value.Reg r ->
          (match List.find_opt (fun (p, _, _) -> p = r) phis with
           | Some (_, _, nr) -> Value.Reg nr
           | None -> v)
        | _ -> v
      in
      let rewrite_block (b : Block.t) =
        let b = Block.map_operands subst b in
        if List.exists (String.equal b.Block.label) site_labels then
          (* drop the tail call and loop back *)
          let insns =
            match List.rev b.Block.insns with
            | { Instr.op = Instr.Call _; _ } :: rest -> List.rev rest
            | insns -> List.rev insns
          in
          { b with Block.insns; Block.term = Instr.Br header_lbl }
        else b
      in
      let old_blocks = List.map rewrite_block f.Func.blocks in
      let header = Block.mk header_lbl phi_insns (Instr.Br entry.Block.label) in
      (* the old entry may have phis only if it had predecessors; in MiniIR
         the entry has no preds, so it is safe to branch into it; but it
         now has two preds (header) — still fine since the header is the
         only one *)
      let new_entry = Block.mk new_entry_lbl [] (Instr.Br header_lbl) in
      let f' =
        Func.with_blocks ~next_id:counter.Func.next f
          (new_entry :: header :: old_blocks)
      in
      (* tail sites now feed the header phis; phi incomings referencing the
         parameters were already substituted by rewrite_block's
         map_operands — but the phi_insns themselves must not substitute
         their new_entry incoming (they reference the raw parameter) *)
      f'
    end
  end

let tailcallelim_pass =
  Pass.function_pass "tailcallelim"
    ~description:"turn self-recursive tail calls into loops" tailcall_func

(* --- reassociate ----------------------------------------------------------

   Flattens single-use chains of one commutative-associative operator,
   reorders operands so constants meet (and fold), and rebuilds a
   left-leaning chain. *)

let reassociate_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let uses = Func.use_counts f in
  let single_use r = Option.value (Hashtbl.find_opt uses r) ~default:0 = 1 in
  let counter = Func.fresh_counter f in
  let rewrite_block (b : Block.t) =
    let defs = Hashtbl.create 16 in
    List.iter
      (fun (i : Instr.t) ->
        if i.Instr.id >= 0 then Hashtbl.replace defs i.Instr.id i.Instr.op)
      b.Block.insns;
    let absorbed = Hashtbl.create 8 in
    (* flatten the operator chain rooted at a binop *)
    let rec leaves bop ty v =
      match v with
      | Value.Reg r when single_use r ->
        (match Hashtbl.find_opt defs r with
         | Some (Instr.Binop (b', ty', x, y)) when b' = bop && Types.equal ty ty' ->
           Hashtbl.replace absorbed r ();
           leaves bop ty x @ leaves bop ty y
         | _ -> [ v ])
      | v -> [ v ]
    in
    let rewrite (i : Instr.t) =
      match i.Instr.op with
      | Instr.Binop (bop, ty, x, y)
        when Instr.is_commutative bop && Types.is_integer ty
             && not (Hashtbl.mem absorbed i.Instr.id) ->
        let ls = leaves bop ty x @ leaves bop ty y in
        if List.length ls <= 2 then [ i ]
        else begin
          (* fold all constant leaves together *)
          let consts, vars =
            List.partition (fun v -> Value.is_const v) ls
          in
          let ident =
            match bop with
            | Instr.Add | Instr.Or | Instr.Xor -> 0L
            | Instr.Mul -> 1L
            | Instr.And -> -1L
            | _ -> 0L
          in
          let cval =
            List.fold_left
              (fun acc v ->
                match v with
                | Value.Const (Value.Cint (_, k)) ->
                  Option.value (Fold.eval_binop bop ty acc k) ~default:acc
                | _ -> acc)
              ident consts
          in
          let operands =
            vars @ (if Int64.equal cval ident && vars <> [] then [] else [ Value.cint ty cval ])
          in
          match operands with
          | [] -> [ { i with Instr.op = Instr.Binop (bop, ty, Value.cint ty cval, Value.cint ty ident) } ]
          | [ v ] ->
            (* chain collapsed to a single value: keep as v op ident *)
            [ { i with Instr.op = Instr.Binop (bop, ty, v, Value.cint ty ident) } ]
          | v0 :: rest ->
            (* left-leaning rebuild; the last op keeps the original id *)
            let rec build acc = function
              | [] -> assert false
              | [ last ] -> [ Instr.mk i.Instr.id (Instr.Binop (bop, ty, acc, last)) ]
              | v :: tl ->
                let r = Func.fresh counter in
                Instr.mk r (Instr.Binop (bop, ty, acc, v)) :: build (Value.Reg r) tl
            in
            build v0 rest
        end
      | _ -> [ i ]
    in
    let insns =
      List.concat_map
        (fun (i : Instr.t) ->
          if Hashtbl.mem absorbed i.Instr.id then [] else rewrite i)
        b.Block.insns
    in
    { b with Block.insns }
  in
  let f = Func.map_blocks rewrite_block f in
  Func.commit_counter f counter |> Utils.trivial_dce

let reassociate_pass =
  Pass.function_pass "reassociate"
    ~description:"reassociate commutative chains to expose constant folding"
    reassociate_func

(* --- float2int ------------------------------------------------------------

   Demotes float arithmetic whose inputs come from integers and whose only
   consumer converts back to integer: fptosi(fop(sitofp a, sitofp b)). *)

let float2int_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let defs = Hashtbl.create 16 in
  Func.iter_insns
    (fun _ i -> if i.Instr.id >= 0 then Hashtbl.replace defs i.Instr.id i.Instr.op)
    f;
  let as_int v =
    match v with
    | Value.Reg r ->
      (match Hashtbl.find_opt defs r with
       | Some (Instr.Cast (Instr.Sitofp, from_ty, _, x)) -> Some (from_ty, x)
       | _ -> None)
    | Value.Const (Value.Cfloat fl) when Float.is_integer fl && Float.abs fl < 1e15 ->
      Some (Types.I64, Value.ci64 (int_of_float fl))
    | _ -> None
  in
  let int_op = function
    | Instr.Fadd -> Some Instr.Add
    | Instr.Fsub -> Some Instr.Sub
    | Instr.Fmul -> Some Instr.Mul
    | _ -> None
  in
  let rewrite (i : Instr.t) =
    match i.Instr.op with
    | Instr.Cast (Instr.Fptosi, _, to_ty, Value.Reg r) ->
      (match Hashtbl.find_opt defs r with
       | Some (Instr.Binop (fop, Types.F64, a, b)) ->
         (match int_op fop, as_int a, as_int b with
          | Some iop, Some (ta, ia), Some (_, ib) when Types.equal ta to_ty ->
            { i with Instr.op = Instr.Binop (iop, to_ty, ia, ib) }
          | _ -> i)
       | _ -> i)
    | _ -> i
  in
  Func.map_blocks (Block.map_insns rewrite) f |> Utils.trivial_dce

let float2int_pass =
  Pass.function_pass "float2int"
    ~description:"demote int-to-int float arithmetic back to integers"
    float2int_func

(* --- lower-expect ---------------------------------------------------------

   [expect v, e] conveys branch-probability information; after lowering,
   the value is just [v]. We keep a function attribute marking that
   expectation data was seen (the MCA block-frequency model gives such
   functions slightly better static predictions). *)

let lower_expect_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let subst = Hashtbl.create 4 in
  Func.iter_insns
    (fun _ i ->
      match i.Instr.op with
      | Instr.Expect (_, v, _) -> Hashtbl.replace subst i.Instr.id v
      | _ -> ())
    f;
  if Hashtbl.length subst = 0 then f
  else Func.substitute subst f |> Func.add_attr "branch-hints"

let lower_expect_pass =
  Pass.function_pass "lower-expect"
    ~description:"lower expect intrinsics to their value" lower_expect_func

(* --- lower-constant-intrinsics ---------------------------------------------

   Folds [is.constant] and [objectsize] intrinsics to constants. *)

let lower_ci_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let subst = Hashtbl.create 4 in
  Func.iter_insns
    (fun _ i ->
      match i.Instr.op with
      | Instr.Intrinsic ("is.constant", _, [ v ]) ->
        Hashtbl.replace subst i.Instr.id (Value.ci1 (Value.is_const v))
      | Instr.Intrinsic ("objectsize", ty, _) ->
        (* unknown at compile time: canonical -1 *)
        Hashtbl.replace subst i.Instr.id (Value.cint ty (-1L))
      | _ -> ())
    f;
  Func.substitute subst f

let lower_ci_pass =
  Pass.function_pass "lower-constant-intrinsics"
    ~description:"fold is.constant and objectsize intrinsics" lower_ci_func

(* --- div-rem-pairs ---------------------------------------------------------

   When both x/y and x%y are computed, derive the remainder from the
   quotient (r = x - (x/y)*y), trading an expensive division for a
   multiply and subtract. *)

let div_rem_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let counter = Func.fresh_counter f in
  let rewrite_block (b : Block.t) =
    (* record divisions seen earlier in this block *)
    let divs : ((Instr.binop * Types.t * Value.t * Value.t) * int) list ref = ref [] in
    let insns =
      List.concat_map
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Binop ((Instr.Sdiv | Instr.Udiv) as d, ty, x, y) ->
            divs := ((d, ty, x, y), i.Instr.id) :: !divs;
            [ i ]
          | Instr.Binop ((Instr.Srem | Instr.Urem) as rop, ty, x, y) ->
            let want = if rop = Instr.Srem then Instr.Sdiv else Instr.Udiv in
            (match List.assoc_opt (want, ty, x, y) !divs with
             | Some q ->
               let m = Func.fresh counter in
               [ Instr.mk m (Instr.Binop (Instr.Mul, ty, Value.Reg q, y));
                 Instr.mk i.Instr.id (Instr.Binop (Instr.Sub, ty, x, Value.Reg m)) ]
             | None -> [ i ])
          | _ -> [ i ])
        b.Block.insns
    in
    { b with Block.insns }
  in
  let f = Func.map_blocks rewrite_block f in
  Func.commit_counter f counter

let div_rem_pass =
  Pass.function_pass "div-rem-pairs"
    ~description:"compute remainders from existing quotients" div_rem_func
