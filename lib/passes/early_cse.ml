(* -early-cse / -early-cse-memssa: dominator-scoped common subexpression
   elimination.

   Walks the dominator tree carrying a scoped table of available pure
   expressions. The memssa variant additionally tracks a memory generation
   along each dominator path, enabling redundant-load elimination and
   store-to-load forwarding across blocks; the plain variant restricts
   memory reasoning to a single block (mirroring the LLVM split). *)

open Posetrl_ir

(* keyed on [Instr.exact_key] *)
module OpMap = Map.Make (struct
  type t = Instr.op
  let compare = Stdlib.compare
end)

module PtrMap = Map.Make (struct
  type t = Value.t
  let compare = Stdlib.compare
end)

type scope = {
  avail : Value.t OpMap.t;          (* pure expression -> leader value *)
  loads : (Types.t * Value.t * int) PtrMap.t; (* ptr -> ty, value, gen *)
  gen : int;
}

let run_with ~memssa (f : Func.t) : Func.t =
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  let subst : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let rec walk label (sc : scope) =
    let blk = Func.find_block_exn f label in
    (* Memory facts carried down the dominator tree are only valid when
       every path into this block goes through the facts' origin; at join
       points (several predecessors, e.g. loop headers reached by a
       backedge) a sibling path may have stored, so memory facts reset.
       The plain variant resets at every block boundary. *)
    let multi_pred = match Cfg.preds cfg label with _ :: _ :: _ -> true | _ -> false in
    let sc =
      if (not memssa) || multi_pred then
        { sc with loads = PtrMap.empty; gen = sc.gen + 1 }
      else sc
    in
    let sc =
      List.fold_left
        (fun sc (i : Instr.t) ->
          let op = i.Instr.op in
          if Instr.is_pure op && i.Instr.id >= 0 then begin
            let key = Instr.exact_key op in
            match OpMap.find_opt key sc.avail with
            | Some leader ->
              Hashtbl.replace subst i.Instr.id leader;
              sc
            | None -> { sc with avail = OpMap.add key (Value.Reg i.Instr.id) sc.avail }
          end
          else
            match op with
            | Instr.Load (ty, p) when i.Instr.id >= 0 ->
              (match PtrMap.find_opt p sc.loads with
               | Some (ty', v, g) when Types.equal ty ty' && g = sc.gen ->
                 Hashtbl.replace subst i.Instr.id v;
                 sc
               | _ ->
                 { sc with
                   loads = PtrMap.add p (ty, Value.Reg i.Instr.id, sc.gen) sc.loads })
            | Instr.Store (ty, v, p) ->
              (* a store invalidates everything except the stored slot *)
              { sc with
                gen = sc.gen + 1;
                loads = PtrMap.singleton p (ty, v, sc.gen + 1) }
            | op when Instr.writes_memory op ->
              { sc with gen = sc.gen + 1; loads = PtrMap.empty }
            | _ -> sc)
        sc blk.Block.insns
    in
    List.iter (fun child -> walk child sc) (Dom.children dom label)
  in
  walk dom.Dom.entry { avail = OpMap.empty; loads = PtrMap.empty; gen = 0 };
  if Hashtbl.length subst = 0 then f
  else Func.substitute subst f |> Utils.trivial_dce

let pass =
  Pass.function_pass "early-cse"
    ~description:"dominator-scoped CSE with block-local load forwarding"
    (fun _cfg f -> run_with ~memssa:false f)

let memssa_pass =
  Pass.function_pass "early-cse-memssa"
    ~description:"early-cse with cross-block memory-generation tracking"
    (fun _cfg f -> run_with ~memssa:true f)
