(* Textual form of MiniIR; the inverse of [Parser]. *)

open Instr

let pp_value = Value.pp

let pp_ty = Types.pp

let pp_args ppf args = Fmt.(list ~sep:(any ", ") pp_value) ppf args

let pp_op ppf (op : op) =
  match op with
  | Binop (b, ty, x, y) ->
    Fmt.pf ppf "%s %a %a, %a" (binop_name b) pp_ty ty pp_value x pp_value y
  | Icmp (p, ty, x, y) ->
    Fmt.pf ppf "icmp %s %a %a, %a" (icmp_name p) pp_ty ty pp_value x pp_value y
  | Fcmp (p, x, y) -> Fmt.pf ppf "fcmp %s %a, %a" (icmp_name p) pp_value x pp_value y
  | Select (ty, c, x, y) ->
    Fmt.pf ppf "select %a %a, %a, %a" pp_ty ty pp_value c pp_value x pp_value y
  | Cast (c, t1, t2, v) ->
    Fmt.pf ppf "%s %a %a to %a" (castop_name c) pp_ty t1 pp_value v pp_ty t2
  | Alloca (ty, n) -> Fmt.pf ppf "alloca %a x %d" pp_ty ty n
  | Load (ty, p) -> Fmt.pf ppf "load %a, %a" pp_ty ty pp_value p
  | Store (ty, v, p) -> Fmt.pf ppf "store %a %a, %a" pp_ty ty pp_value v pp_value p
  | Gep (ty, b, i) -> Fmt.pf ppf "gep %a %a, %a" pp_ty ty pp_value b pp_value i
  | Call (ty, g, args) -> Fmt.pf ppf "call %a @%s(%a)" pp_ty ty g pp_args args
  | Callind (ty, f, args) ->
    Fmt.pf ppf "callind %a %a(%a)" pp_ty ty pp_value f pp_args args
  | Phi (ty, incs) ->
    let pp_inc ppf (l, v) = Fmt.pf ppf "[%s: %a]" l pp_value v in
    Fmt.pf ppf "phi %a %a" pp_ty ty Fmt.(list ~sep:(any ", ") pp_inc) incs
  | Memcpy (d, s, n) -> Fmt.pf ppf "memcpy %a, %a, %a" pp_value d pp_value s pp_value n
  | Expect (ty, v, e) -> Fmt.pf ppf "expect %a %a, %a" pp_ty ty pp_value v pp_value e
  | Intrinsic (n, ty, args) -> Fmt.pf ppf "intrinsic %s %a (%a)" n pp_ty ty pp_args args

let pp_insn ppf (i : Instr.t) =
  if i.id >= 0 then Fmt.pf ppf "  %%%d = %a" i.id pp_op i.op
  else Fmt.pf ppf "  %a" pp_op i.op

let pp_term ppf (t : term) =
  match t with
  | Ret None -> Fmt.string ppf "  ret void"
  | Ret (Some (ty, v)) -> Fmt.pf ppf "  ret %a %a" pp_ty ty pp_value v
  | Br l -> Fmt.pf ppf "  br %s" l
  | Cbr (c, t, e) -> Fmt.pf ppf "  cbr %a, %s, %s" pp_value c t e
  | Switch (ty, v, cases, d) ->
    let pp_case ppf (k, l) = Fmt.pf ppf "%Ld: %s" k l in
    Fmt.pf ppf "  switch %a %a [%a], default %s" pp_ty ty pp_value v
      Fmt.(list ~sep:(any ", ") pp_case)
      cases d
  | Unreachable -> Fmt.string ppf "  unreachable"

let pp_block ppf (b : Block.t) =
  Fmt.pf ppf "%s:@\n" b.Block.label;
  List.iter (fun i -> Fmt.pf ppf "%a@\n" pp_insn i) b.Block.insns;
  Fmt.pf ppf "%a@\n" pp_term b.Block.term

let pp_func ppf (f : Func.t) =
  let pp_param ppf (r, ty) = Fmt.pf ppf "%%%d: %a" r pp_ty ty in
  let linkage = match f.Func.linkage with Func.Internal -> "internal " | Func.External -> "" in
  if Func.is_declaration f then
    Fmt.pf ppf "declare @%s(%a): %a@\n" f.Func.name
      Fmt.(list ~sep:(any ", ") pp_param)
      f.Func.params pp_ty f.Func.ret
  else begin
    Fmt.pf ppf "%sfunc @%s(%a): %a" linkage f.Func.name
      Fmt.(list ~sep:(any ", ") pp_param)
      f.Func.params pp_ty f.Func.ret;
    if not (Attrs.equal f.Func.attrs Attrs.empty) then
      Fmt.pf ppf " %a" Attrs.pp f.Func.attrs;
    Fmt.pf ppf " {@\n";
    List.iter (pp_block ppf) f.Func.blocks;
    Fmt.pf ppf "}@\n"
  end

let pp_global ppf (g : Global.t) =
  let kind = if g.Global.is_const then "const" else "global" in
  let linkage =
    match g.Global.linkage with Global.Internal -> "internal " | Global.External -> ""
  in
  Fmt.pf ppf "%s%s @%s: %a x %d" linkage kind g.Global.name pp_ty g.Global.elt_ty
    g.Global.elems;
  (match g.Global.init with
   | None -> ()
   | Some Global.Zeroinit -> Fmt.pf ppf " = zeroinit"
   | Some (Global.Ints vs) ->
     Fmt.pf ppf " = ints [%a]" Fmt.(array ~sep:(any ", ") int64) vs
   | Some (Global.Floats vs) ->
     Fmt.pf ppf " = floats [%a]" Fmt.(array ~sep:(any ", ") float) vs
   | Some (Global.Bytes s) -> Fmt.pf ppf " = bytes %S" s);
  Fmt.pf ppf "@\n"

let pp_module ppf (m : Modul.t) =
  Fmt.pf ppf "module %s@\n@\n" m.Modul.name;
  List.iter (pp_global ppf) m.Modul.globals;
  if m.Modul.globals <> [] then Fmt.pf ppf "@\n";
  List.iter (fun f -> Fmt.pf ppf "%a@\n" pp_func f) m.Modul.funcs

let module_to_string m = Fmt.str "%a" pp_module m
