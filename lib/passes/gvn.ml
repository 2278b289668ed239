(* -gvn: global value numbering.

   Assigns value numbers to pure expressions over a reverse-post-order
   sweep; an instruction whose number already has a leader defined in a
   dominating position is replaced by the leader. Compared with early-cse,
   value numbering sees through commutativity and across non-dominating
   definitions discovered in RPO iteration. Only pure instructions
   ([Instr.is_pure]) are numbered: loads, calls and other memory
   operations are never replaced. *)

open Posetrl_ir

(* Canonical key for value numbering: commutative operands sorted. The
   leader table is keyed on its [Instr.exact_key], so float constants
   that differ only in the sign of zero get different numbers. *)
let key_of (op : Instr.op) : Instr.op =
  match op with
  | Instr.Binop (b, ty, x, y) when Instr.is_commutative b && Stdlib.compare x y > 0 ->
    Instr.Binop (b, ty, y, x)
  | Instr.Icmp (p, ty, x, y) when Stdlib.compare x y > 0 ->
    Instr.Icmp (Instr.swap_icmp p, ty, y, x)
  | op -> op

let run_func (_cfg : Config.t) (f : Func.t) : Func.t =
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  (* leader table: expression key -> (block, reg). Built in RPO so leaders
     appear before followers on any dominating path. *)
  let leaders : (Instr.op, string * int) Hashtbl.t = Hashtbl.create 64 in
  let subst : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let order = Cfg.rpo cfg in
  List.iter
    (fun label ->
      let blk = Func.find_block_exn f label in
      List.iter
        (fun (i : Instr.t) ->
          if i.Instr.id >= 0 && Instr.is_pure i.Instr.op then begin
            (* resolve operands through pending substitutions first *)
            let op = Instr.map_operands (Func.resolve subst) i.Instr.op in
            let key = Instr.exact_key (key_of op) in
            match Hashtbl.find_opt leaders key with
            | Some (lblk, lreg)
              when (not (Hashtbl.mem subst lreg))
                   && (String.equal lblk label || Dom.strictly_dominates dom lblk label) ->
              Hashtbl.replace subst i.Instr.id (Value.Reg lreg)
            | _ -> Hashtbl.replace leaders key (label, i.Instr.id)
          end)
        blk.Block.insns)
    order;
  if Hashtbl.length subst = 0 then f
  else Func.substitute subst f |> Utils.trivial_dce

let pass =
  Pass.function_pass "gvn"
    ~description:"global value numbering over dominating expressions"
    run_func
