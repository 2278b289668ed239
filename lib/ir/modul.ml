(* A MiniIR module: globals plus functions, the unit the pass manager,
   codegen and evaluation pipelines operate on. ("module" is a keyword.) *)

type t = {
  name : string;
  globals : Global.t list;
  funcs : Func.t list;
}

let mk ?(globals = []) ~name funcs = { name; globals; funcs }

(* Bit-exact equality ([Func.equal], [Global.equal]): what "a pass
   changed nothing" means. *)
let equal (a : t) (b : t) =
  a == b
  || String.equal a.name b.name
     && List.equal Global.equal a.globals b.globals
     && List.equal Func.equal a.funcs b.funcs

let find_func m name = List.find_opt (fun f -> String.equal f.Func.name name) m.funcs

let find_func_exn m name =
  match find_func m name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Modul.find_func: no function %s in %s" name m.name)

let find_global m name = List.find_opt (fun g -> String.equal g.Global.name name) m.globals

let map_funcs fn m = { m with funcs = List.map fn m.funcs }

(* Apply [fn] only to function definitions, leaving declarations alone. *)
let map_defined fn m =
  map_funcs (fun f -> if Func.is_declaration f then f else fn f) m

let defined_funcs m = List.filter (fun f -> not (Func.is_declaration f)) m.funcs

let replace_func m f =
  { m with
    funcs = List.map (fun g -> if String.equal g.Func.name f.Func.name then f else g) m.funcs }

let insn_count m =
  List.fold_left (fun n f -> n + if Func.is_declaration f then 0 else Func.insn_count f) 0 m.funcs

(* Direct call graph: function name -> callee names (with multiplicity). *)
let callees f =
  Func.fold_insns
    (fun acc _ i ->
      match i.Instr.op with Instr.Call (_, g, _) -> g :: acc | _ -> acc)
    [] f

let callers m name =
  List.filter_map
    (fun f ->
      if Func.is_declaration f then None
      else if List.exists (String.equal name) (callees f) then Some f.Func.name
      else None)
    m.funcs
