(* Structural well-formedness checks for MiniIR.

   Every pass is required to produce IR that passes verification; the test
   suite runs the verifier after each pass on each workload. *)

module SSet = Set.Make (String)

type error = { func : string; block : string option; message : string }

let errf ~func ?block fmt =
  Printf.ksprintf (fun message -> { func; block; message }) fmt

let error_to_string e =
  match e.block with
  | Some b -> Printf.sprintf "%s/%s: %s" e.func b e.message
  | None -> Printf.sprintf "%s: %s" e.func e.message

(* SSA dominance checking (enabled with [~dom:true]): every use of a
   register must be dominated by its definition — same-block uses by
   instruction position, cross-block uses via the dominator tree — and a
   phi's incoming value must be dominated at the corresponding
   predecessor (reflexively: defined in the predecessor itself or above
   it). Parameters dominate everything; uses inside unreachable blocks
   are skipped (no path reaches them), but a definition sitting in an
   unreachable block never dominates a reachable use. *)
let dominance_errors (f : Func.t) (cfg : Cfg.t) (reach : SSet.t) : error list =
  let errors = ref [] in
  let err ~block fmt =
    Printf.ksprintf
      (fun message -> errors := { func = f.Func.name; block = Some block; message } :: !errors)
      fmt
  in
  let dom = Dom.compute cfg in
  (* def site: register -> (block label, index in block); params absent *)
  let def_site = Hashtbl.create 64 in
  List.iter
    (fun (b : Block.t) ->
      List.iteri
        (fun idx (i : Instr.t) ->
          if i.Instr.id >= 0 then Hashtbl.replace def_site i.Instr.id (b.Block.label, idx))
        b.Block.insns)
    f.Func.blocks;
  let params = Hashtbl.create 8 in
  List.iter (fun (r, _) -> Hashtbl.replace params r ()) f.Func.params;
  let is_param r = Hashtbl.mem params r in
  (* [r] used at position [idx] of reachable block [block]; [idx] =
     max_int for terminator uses *)
  let check_use ~block ~idx ~what r =
    if not (is_param r) then
      match Hashtbl.find_opt def_site r with
      | None -> () (* undefined register: the structural check reports it *)
      | Some (db, didx) ->
        if not (SSet.mem db reach) then
          err ~block "%s %%%d not dominated by its definition (defined in unreachable %s)" what r db
        else if String.equal db block then begin
          if didx >= idx then
            err ~block "%s %%%d before its definition in the same block" what r
        end
        else if not (Dom.strictly_dominates dom db block) then
          err ~block "%s %%%d not dominated by its definition in %s" what r db
  in
  let check_phi_incoming ~block ~phi (pred, v) =
    match v with
    | Value.Reg r when not (is_param r) ->
      if SSet.mem pred reach then begin
        match Hashtbl.find_opt def_site r with
        | None -> ()
        | Some (db, _) ->
          if not (SSet.mem db reach) then
            err ~block "phi %%%d incoming %%%d from %s defined in unreachable %s" phi r pred db
          else if not (Dom.dominates dom db pred) then
            err ~block "phi %%%d incoming %%%d does not dominate predecessor %s" phi r pred
      end
    | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      let block = b.Block.label in
      if SSet.mem block reach then begin
        List.iteri
          (fun idx (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Phi (_, incs) ->
              List.iter (check_phi_incoming ~block ~phi:i.Instr.id) incs
            | op ->
              List.iter
                (fun v ->
                  match v with
                  | Value.Reg r -> check_use ~block ~idx ~what:"use of" r
                  | _ -> ())
                (Instr.operands op))
          b.Block.insns;
        List.iter
          (fun v ->
            match v with
            | Value.Reg r -> check_use ~block ~idx:max_int ~what:"terminator use of" r
            | _ -> ())
          (Instr.term_operands b.Block.term)
      end)
    f.Func.blocks;
  List.rev !errors

let verify_func ?(dom = false) (m : Modul.t) (f : Func.t) : error list =
  if Func.is_declaration f then []
  else begin
    let errors = ref [] in
    let err ?block fmt = Printf.ksprintf (fun message -> errors := { func = f.Func.name; block; message } :: !errors) fmt in
    let labels = List.map (fun b -> b.Block.label) f.Func.blocks in
    let label_set = SSet.of_list labels in
    (* unique labels *)
    if List.length labels <> SSet.cardinal label_set then
      err "duplicate block labels";
    (* single definition per register; defs below next_id; [defs] holds types *)
    let defs = Hashtbl.create 64 in
    List.iter (fun (r, ty) ->
        if Hashtbl.mem defs r then err "duplicate parameter register %%%d" r;
        Hashtbl.replace defs r ty) f.Func.params;
    Func.iter_insns
      (fun b i ->
        if i.Instr.id >= 0 then begin
          if Hashtbl.mem defs i.Instr.id then
            err ~block:b.Block.label "register %%%d defined more than once" i.Instr.id;
          Hashtbl.replace defs i.Instr.id (Instr.result_ty i.Instr.op);
          if i.Instr.id >= f.Func.next_id then
            err ~block:b.Block.label "register %%%d >= next_id %d" i.Instr.id f.Func.next_id
        end)
      f;
    (* every used register is defined somewhere; terminator labels exist;
       phis lead their block; phi preds match CFG preds *)
    let cfg = Cfg.of_func f in
    let reach = Cfg.reachable cfg in
    List.iter
      (fun b ->
        let block = b.Block.label in
        let check_value v =
          match v with
          | Value.Reg r ->
            if not (Hashtbl.mem defs r) then err ~block "use of undefined register %%%d" r
          | Value.Global g ->
            if Option.is_none (Modul.find_global m g)
               && Option.is_none (Modul.find_func m g) then
              err ~block "use of undefined global @%s" g
          | Value.Const _ -> ()
        in
        let seen_non_phi = ref false in
        List.iter
          (fun i ->
            (match i.Instr.op with
             | Instr.Phi (_, incs) ->
               if !seen_non_phi then err ~block "phi %%%d after non-phi instruction" i.Instr.id;
               let inc_labels = List.map fst incs in
               let preds =
                 if SSet.mem block reach then
                   List.filter (fun p -> SSet.mem p reach) (Cfg.preds cfg block)
                 else Cfg.preds cfg block
               in
               let inc_set = SSet.of_list inc_labels in
               if List.length inc_labels <> SSet.cardinal inc_set then
                 err ~block "phi %%%d has duplicate incoming labels" i.Instr.id;
               List.iter
                 (fun p ->
                   if not (SSet.mem p inc_set) then
                     err ~block "phi %%%d missing incoming for predecessor %s" i.Instr.id p)
                 preds;
               SSet.iter
                 (fun l ->
                   if not (List.exists (String.equal l) preds) then
                     err ~block "phi %%%d has incoming for non-predecessor %s" i.Instr.id l)
                 inc_set
             | _ -> seen_non_phi := true);
            (match i.Instr.op with
             | Instr.Call (_, g, _) ->
               (match Modul.find_func m g with
                | Some callee ->
                  if List.length callee.Func.params
                     <> List.length (Instr.operands i.Instr.op) then
                    err ~block "call @%s: arity mismatch" g
                | None -> err ~block "call to undefined function @%s" g)
             (* integer binops on integer lanes, float binops on f64
                lanes: the constant folders and the interpreter assume it *)
             | Instr.Binop (op, ty, _, _) ->
               let float_op =
                 match op with
                 | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv -> true
                 | _ -> false
               in
               let elt = Types.elt_type ty in
               if not (if float_op then Types.is_float elt else Types.is_integer elt) then
                 err ~block "%s on non-%s type %s" (Instr.binop_name op)
                   (if float_op then "float" else "integer") (Types.to_string ty)
             | _ -> ());
            List.iter check_value (Instr.operands i.Instr.op);
            let ty = Instr.result_ty i.Instr.op in
            if Types.equal ty Types.Void && i.Instr.id >= 0 then
              err ~block "void-result instruction defines %%%d" i.Instr.id;
            if (not (Types.equal ty Types.Void)) && i.Instr.id < 0 then
              err ~block "value-producing %s has no destination" (Instr.opcode_name i.Instr.op))
          b.Block.insns;
        List.iter check_value (Instr.term_operands b.Block.term);
        List.iter
          (fun l ->
            if not (SSet.mem l label_set) then
              err ~block "branch to undefined label %s" l)
          (Block.successors b);
        (* return type matches *)
        match b.Block.term with
        | Instr.Ret None ->
          if not (Types.equal f.Func.ret Types.Void) then
            err ~block "ret void in non-void function"
        | Instr.Ret (Some (ty, v)) ->
          if not (Types.equal f.Func.ret ty) then
            err ~block "ret type %s does not match function type %s"
              (Types.to_string ty) (Types.to_string f.Func.ret);
          (* an undefined register is reported above *)
          (match v with
           | Value.Reg r -> Hashtbl.find_opt defs r
           | Value.Const c -> Some (Value.const_ty c)
           | Value.Global _ -> None)
          |> Option.iter (fun vty ->
                 if not (Types.equal vty ty) then
                   err ~block "ret type %s does not match its value's type %s"
                     (Types.to_string ty) (Types.to_string vty))
        | _ -> ())
      f.Func.blocks;
    let structural = List.rev !errors in
    if dom then structural @ dominance_errors f cfg reach else structural
  end

let verify_module ?(dom = false) (m : Modul.t) : error list =
  let dup_names =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun f ->
        let n = f.Func.name in
        if Hashtbl.mem seen n then Some (errf ~func:n "duplicate function name")
        else begin Hashtbl.add seen n (); None end)
      m.Modul.funcs
  in
  dup_names @ List.concat_map (verify_func ~dom m) m.Modul.funcs

(* Raise on invalid IR; used in tests and by the pass manager's debug mode. *)
exception Invalid of string

let check ?(dom = false) m =
  match verify_module ~dom m with
  | [] -> ()
  | errs ->
    raise (Invalid (String.concat "\n" (List.map error_to_string errs)))

let is_valid ?(dom = false) m = verify_module ~dom m = []
