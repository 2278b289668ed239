(* posetrl lint: static findings over a MiniIR module.

   Severity policy (what the CI gate keys on):
     - Error:   structural verifier failures, SSA dominance violations,
                purity attributes contradicted by the function body —
                each of these means a pass produced or would consume
                wrong IR.
     - Warning: dead stores, unreachable blocks, branches the value-range
                analysis proves constant (dead-branch) and blocks whose
                path conditions contradict (contradicted-range) — wasted
                size the pipeline should have cleaned up, but
                semantically fine.
     - Info:    dead pure code, recomputed available expressions, missing
                purity attributes, integer arithmetic that may wrap its
                type (possible-overflow) and same-block stores through
                pointers that may alias (may-alias-store-conflict) —
                optimisation opportunities and precision hazards.

   The bundled workload suite at -Oz must lint with zero errors; CI
   runs [posetrl lint --suite --fail-on error] to keep it that way. *)

open Posetrl_ir
module Obs = Posetrl_obs
module SSet = Set.Make (String)

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_string = function
  | "error" -> Result.Ok Error
  | "warning" -> Result.Ok Warning
  | "info" -> Result.Ok Info
  | s ->
    Result.Error (Printf.sprintf "unknown severity %S (error|warning|info)" s)

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

type finding = {
  severity : severity;
  rule : string;          (* stable kebab-case rule id *)
  func : string;
  block : string option;
  message : string;
}

let verifier_findings (m : Modul.t) : finding list =
  let structural = Verifier.verify_module m in
  let with_dom = Verifier.verify_module ~dom:true m in
  let structural_keys =
    SSet.of_list (List.map Verifier.error_to_string structural)
  in
  let of_err rule (e : Verifier.error) =
    { severity = Error;
      rule;
      func = e.Verifier.func;
      block = e.Verifier.block;
      message = e.Verifier.message }
  in
  List.map (of_err "structural") structural
  @ List.filter_map
      (fun e ->
        if SSet.mem (Verifier.error_to_string e) structural_keys then None
        else Some (of_err "undominated-use" e))
      with_dom

let unreachable_findings (f : Func.t) : finding list =
  let cfg = Cfg.of_func f in
  let reach = Cfg.reachable cfg in
  List.filter_map
    (fun (b : Block.t) ->
      if Cfg.SSet.mem b.Block.label reach then None
      else
        Some
          { severity = Warning;
            rule = "unreachable-block";
            func = f.Func.name;
            block = Some b.Block.label;
            message = "block is unreachable from the entry" })
    f.Func.blocks

let dead_store_findings (f : Func.t) : finding list =
  List.map
    (fun (block, idx, reason) ->
      { severity = Warning;
        rule = "dead-store";
        func = f.Func.name;
        block = Some block;
        message = Printf.sprintf "store at index %d is dead: %s" idx reason })
    (Effects.dead_stores f)

let dead_code_findings (f : Func.t) : finding list =
  List.map
    (fun (block, id) ->
      { severity = Info;
        rule = "dead-code";
        func = f.Func.name;
        block = Some block;
        message = Printf.sprintf "result of %%%d is never demanded" id })
    (Usedef.undemanded f)

let redundant_expr_findings (f : Func.t) : finding list =
  let avail = Available.of_func f in
  List.map
    (fun (block, id) ->
      { severity = Info;
        rule = "redundant-expr";
        func = f.Func.name;
        block = Some block;
        message =
          Printf.sprintf "%%%d recomputes an expression available on every path" id })
    (Available.redundant avail f)

(* Abstract value of an operand at its use, from the at-def table (SSA:
   one def, so at-def and at-use agree up to edge refinement). *)
let operand_aval (ai : Absint.t) (v : Value.t) : Absint.aval =
  match v with
  | Value.Reg r -> Absint.val_of ai r
  | Value.Const (Value.Cint (_, k)) -> Absint.Range (k, k)
  | _ -> Absint.Top

let absint_findings (f : Func.t) : finding list =
  let ai = Absint.of_func f in
  let cfg = Cfg.of_func f in
  let cfg_reach = Cfg.reachable cfg in
  let entry_label = (Func.entry f).Block.label in
  let contradicted =
    List.filter_map
      (fun (b : Block.t) ->
        if
          Cfg.SSet.mem b.Block.label cfg_reach
          && (not (Absint.reachable ai b.Block.label))
          && not (String.equal b.Block.label entry_label)
        then
          Some
            { severity = Warning;
              rule = "contradicted-range";
              func = f.Func.name;
              block = Some b.Block.label;
              message =
                "value ranges prove the path conditions contradict: block \
                 cannot execute" }
        else None)
      f.Func.blocks
  in
  let dead_branch =
    List.filter_map
      (fun (b : Block.t) ->
        if not (Absint.reachable ai b.Block.label) then None
        else
          match b.Block.term with
          | Instr.Cbr (Value.Reg c, t, e) when not (String.equal t e) -> (
            match Absint.val_of ai c with
            | Absint.Range (k1, k2) when Int64.equal k1 k2 ->
              let always = not (Int64.equal k1 0L) in
              let dead = if always then e else t in
              Some
                { severity = Warning;
                  rule = "dead-branch";
                  func = f.Func.name;
                  block = Some b.Block.label;
                  message =
                    Printf.sprintf
                      "condition %%%d is always %b: the edge to %s is dead" c
                      always dead }
            | _ -> None)
          | _ -> None)
      f.Func.blocks
  in
  let overflow =
    List.concat_map
      (fun (b : Block.t) ->
        if not (Absint.reachable ai b.Block.label) then []
        else
          List.filter_map
            (fun (i : Instr.t) ->
              match i.Instr.op with
              | Instr.Binop (op, ty, x, y) ->
                let ax = operand_aval ai x and ay = operand_aval ai y in
                if Absint.may_overflow op ty ax ay then
                  Some
                    { severity = Info;
                      rule = "possible-overflow";
                      func = f.Func.name;
                      block = Some b.Block.label;
                      message =
                        Printf.sprintf
                          "%%%d: operands %s and %s may wrap %s" i.Instr.id
                          (Absint.aval_to_string ax)
                          (Absint.aval_to_string ay)
                          (Types.to_string ty) }
                else None
              | _ -> None)
            b.Block.insns)
      f.Func.blocks
  in
  contradicted @ dead_branch @ overflow

(* Same-block stores through syntactically distinct pointers that the
   points-to facts cannot separate. Constant-index geps off the same base
   are provably disjoint and excluded; everything else is summarized as
   one finding per block so unrolled loops don't produce a quadratic
   flood of pairs. *)
let alias_findings (f : Func.t) : finding list =
  let fi = Alias.of_func f in
  let defs : (int, Instr.op) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) -> Hashtbl.replace defs i.Instr.id i.Instr.op)
        b.Block.insns)
    f.Func.blocks;
  (* (base, elt type, constant index) when [p] is a constant gep *)
  let const_gep = function
    | Value.Reg r -> (
      match Hashtbl.find_opt defs r with
      | Some (Instr.Gep (ty, base, Value.Const (Value.Cint (_, k)))) ->
        Some (base, ty, k)
      | _ -> None)
    | _ -> None
  in
  let provably_disjoint p q =
    match const_gep p, const_gep q with
    | Some (b1, t1, k1), Some (b2, t2, k2) ->
      Value.equal b1 b2 && Types.equal t1 t2 && not (Int64.equal k1 k2)
    | _ -> false
  in
  List.filter_map
    (fun (b : Block.t) ->
      let stores =
        List.filter_map
          (fun (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Store (_, _, p) -> Some p
            | _ -> None)
          b.Block.insns
      in
      let count = ref 0 in
      let example = ref None in
      let rec scan = function
        | [] -> ()
        | p :: rest ->
          List.iter
            (fun q ->
              if
                (not (Value.equal p q))
                && (not (provably_disjoint p q))
                && Alias.may_alias fi p q
              then begin
                incr count;
                if !example = None then example := Some (p, q)
              end)
            rest;
          scan rest
      in
      scan stores;
      match !example with
      | None -> None
      | Some (p, q) ->
        Some
          { severity = Info;
            rule = "may-alias-store-conflict";
            func = f.Func.name;
            block = Some b.Block.label;
            message =
              Format.asprintf
                "%d store pair%s may alias (e.g. %a vs %a): their order \
                 must be kept"
                !count
                (if !count = 1 then "" else "s")
                Printer.pp_value p Printer.pp_value q })
    f.Func.blocks

let effects_findings (m : Modul.t) : finding list =
  let summary = Effects.summarize m in
  List.map
    (fun (func, attr, e) ->
      { severity = Error;
        rule = "attr-contradiction";
        func;
        block = None;
        message =
          Printf.sprintf "attribute %s contradicted by body (computed effect: %s)"
            attr (Effects.effect_to_string e) })
    (Effects.contradicted_attrs summary m)
  @ List.map
      (fun (func, e) ->
        { severity = Info;
          rule = "missing-purity-attr";
          func;
          block = None;
          message =
            Printf.sprintf "body is %s but carries no purity attribute"
              (Effects.effect_to_string e) })
      (Effects.missing_purity_attrs summary m)

let lint_module (m : Modul.t) : finding list =
  Obs.Span.with_ "posetrl.analysis.lint"
    ~attrs:[ ("module", Obs.Event.S m.Modul.name) ]
    (fun sp ->
      Obs.Metrics.inc (Obs.Metrics.counter "posetrl.analysis.lint.modules");
      let per_func =
        List.concat_map
          (fun f ->
            unreachable_findings f @ dead_store_findings f
            @ dead_code_findings f @ redundant_expr_findings f
            @ absint_findings f @ alias_findings f)
          (Modul.defined_funcs m)
      in
      let findings = verifier_findings m @ effects_findings m @ per_func in
      Obs.Metrics.inc
        ~by:(float_of_int (List.length findings))
        (Obs.Metrics.counter "posetrl.analysis.lint.findings");
      Obs.Span.set_attr sp "findings" (Obs.Event.I (List.length findings));
      (* stable order: severity first, then rule, then location *)
      List.stable_sort
        (fun a b ->
          let c = compare (severity_rank b.severity) (severity_rank a.severity) in
          if c <> 0 then c
          else
            let c = String.compare a.rule b.rule in
            if c <> 0 then c
            else
              let c = String.compare a.func b.func in
              if c <> 0 then c else compare a.block b.block)
        findings)

let count (sev : severity) (fs : finding list) : int =
  List.length (List.filter (fun f -> f.severity = sev) fs)

(* Does any finding reach severity [s]? *)
let reaches (s : severity) (fs : finding list) : bool =
  List.exists (fun f -> severity_rank f.severity >= severity_rank s) fs

let finding_to_json (f : finding) : Obs.Json.t =
  Obs.Json.Obj
    [ ("severity", Obs.Json.Str (severity_to_string f.severity));
      ("rule", Obs.Json.Str f.rule);
      ("func", Obs.Json.Str f.func);
      ("block",
       match f.block with Some b -> Obs.Json.Str b | None -> Obs.Json.Null);
      ("message", Obs.Json.Str f.message) ]

let to_json ~(name : string) (fs : finding list) : Obs.Json.t =
  Obs.Json.Obj
    [ ("kind", Obs.Json.Str "lint-report");
      ("module", Obs.Json.Str name);
      ("errors", Obs.Json.Int (count Error fs));
      ("warnings", Obs.Json.Int (count Warning fs));
      ("infos", Obs.Json.Int (count Info fs));
      ("findings", Obs.Json.Arr (List.map finding_to_json fs)) ]
