(* -gvn: global value numbering.

   Assigns value numbers to pure expressions over a reverse-post-order
   sweep; an instruction whose number already has a leader defined in a
   dominating position is replaced by the leader. Compared with early-cse,
   value numbering sees through commutativity and across non-dominating
   definitions discovered in RPO iteration. Redundant-load elimination is
   performed for functions regions where the pointer's memory is provably
   untouched (no intervening may-write on any dominating path; we
   approximate with a per-block generation scheme seeded from block entry
   states computed by a dataflow pass).

   With [Config.use_alias] the sweep also eliminates same-block redundant
   loads: a load from a pointer already loaded earlier in the block is
   replaced by the earlier result when no intervening instruction may
   clobber that pointer according to [Posetrl_analysis.Alias]. Opt-in;
   byte-identical to the legacy path on the validation suites, and it
   can do more elsewhere (both pinned in test_analysis.ml). *)

open Posetrl_ir
module Alias = Posetrl_analysis.Alias

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

let run_func (pcfg : Config.t) (f : Func.t) : Func.t =
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  let alias =
    if pcfg.Config.use_alias then Some (Alias.of_func f) else None
  in
  (* leader table: expression key -> (block, reg). Built in RPO so leaders
     appear before followers on any dominating path. *)
  let leaders : (Instr.op, string * int) Hashtbl.t = Hashtbl.create 64 in
  let subst : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let killed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let order = Cfg.rpo cfg in
  (* same-block available loads (alias mode): (ty, resolved ptr) -> reg *)
  let avail_loads : (Types.t * Value.t, int) Hashtbl.t = Hashtbl.create 8 in
  let clear_loads_where cond =
    let doomed =
      Hashtbl.fold (fun k _ acc -> if cond k then k :: acc else acc) avail_loads []
    in
    List.iter (Hashtbl.remove avail_loads) doomed
  in
  List.iter
    (fun label ->
      let blk = Func.find_block_exn f label in
      Hashtbl.reset avail_loads;
      List.iter
        (fun (i : Instr.t) ->
          (* resolve operands through pending substitutions first *)
          let resolve v =
            match v with
            | Value.Reg r ->
              (match Hashtbl.find_opt subst r with Some v' -> v' | None -> v)
            | _ -> v
          in
          if i.Instr.id >= 0 && Instr.is_pure i.Instr.op then begin
            let op = Instr.map_operands resolve i.Instr.op in
            let key = Instr.exact_key (key_of op) in
            match Hashtbl.find_opt leaders key with
            | Some (lblk, lreg)
              when (not (Hashtbl.mem killed lreg))
                   && (String.equal lblk label || Dom.strictly_dominates dom lblk label) ->
              Hashtbl.replace subst i.Instr.id (Value.Reg lreg);
              Hashtbl.replace killed i.Instr.id ()
            | _ -> Hashtbl.replace leaders key (label, i.Instr.id)
          end
          else
            match alias with
            | None -> ()
            | Some fi -> (
              match i.Instr.op with
              | Instr.Load (ty, p) when i.Instr.id >= 0 -> (
                let p = resolve p in
                match Hashtbl.find_opt avail_loads (ty, p) with
                | Some lreg when not (Hashtbl.mem killed lreg) ->
                  Hashtbl.replace subst i.Instr.id (Value.Reg lreg);
                  Hashtbl.replace killed i.Instr.id ()
                | _ -> Hashtbl.replace avail_loads (ty, p) i.Instr.id)
              | Instr.Store (_, _, q) ->
                let q = resolve q in
                clear_loads_where (fun (_, p) -> Alias.may_alias fi p q)
              | Instr.Memcpy (d, _, _) ->
                let d = resolve d in
                clear_loads_where (fun (_, p) -> Alias.may_alias fi p d)
              | Instr.Call _ | Instr.Callind _ ->
                clear_loads_where (fun (_, p) -> Alias.call_may_touch fi p)
              | Instr.Intrinsic _ -> Hashtbl.reset avail_loads
              | _ -> ()))
        blk.Block.insns)
    order;
  if Hashtbl.length subst = 0 then f
  else begin
    let rec resolve v =
      match v with
      | Value.Reg r ->
        (match Hashtbl.find_opt subst r with
         | Some v' when v' <> v -> resolve v'
         | _ -> v)
      | _ -> v
    in
    let f =
      Func.map_blocks
        (Block.filter_insns (fun i -> not (Hashtbl.mem killed i.Instr.id)))
        f
    in
    Func.map_operands resolve f |> Utils.trivial_dce
  end

let pass =
  Pass.function_pass "gvn"
    ~description:"global value numbering over dominating expressions"
    run_func
