(* Object-file size model.

   Mirrors the size a compiled-but-unlinked object file would have: text
   section (functions aligned per target), data section (initialized
   globals), no file space for bss (zero-initialized data), relocation
   records for calls and global references, and a symbol-table entry per
   defined symbol. This is the [BinSize] used by the paper's reward (Eqn
   2) and size tables (Table IV, Fig 5c/5d). *)

open Posetrl_ir

type section_sizes = {
  text : int;
  data : int;
  bss : int; (* informational; does not contribute to object size *)
  relocs : int;
  symtab : int;
  headers : int;
}

let align n a = (n + a - 1) / a * a

let measure (t : Target.t) (m : Modul.t) : section_sizes =
  let text, relocs =
    List.fold_left
      (fun (text, relocs) f ->
        if Func.is_declaration f then (text, relocs)
        else begin
          let lf = Lower.lower_func t f in
          (align text t.Target.func_align + lf.Lower.code_bytes,
           relocs + (lf.Lower.call_sites * t.Target.call_reloc_bytes))
        end)
      (0, 0) m.Modul.funcs
  in
  let data, bss =
    List.fold_left
      (fun (data, bss) (g : Global.t) ->
        match g.Global.init with
        | None -> (data, bss)
        | Some Global.Zeroinit -> (data, align bss 8 + Global.size_bytes g)
        | Some _ -> (align data 8 + Global.size_bytes g, bss))
      (0, 0) m.Modul.globals
  in
  let symbols =
    List.length (Modul.defined_funcs m)
    + List.length (List.filter Global.is_definition m.Modul.globals)
  in
  let sym_names =
    List.fold_left (fun acc f -> acc + String.length f.Func.name + 1) 0 m.Modul.funcs
    + List.fold_left
        (fun acc (g : Global.t) -> acc + String.length g.Global.name + 1)
        0 m.Modul.globals
  in
  { text = align text t.Target.func_align;
    data;
    bss;
    relocs;
    symtab = (symbols * t.Target.symtab_entry_bytes) + sym_names;
    headers = t.Target.header_bytes }

(* Total object-file size in bytes: every section but bss. *)
let total (s : section_sizes) : int =
  s.text + s.data + s.relocs + s.symtab + s.headers

let size (t : Target.t) (m : Modul.t) : int = total (measure t m)

(* Text-only size, useful for per-function reporting. *)
let text_size (t : Target.t) (m : Modul.t) : int = (measure t m).text

let func_size (t : Target.t) (f : Func.t) : int =
  if Func.is_declaration f then 0 else (Lower.lower_func t f).Lower.code_bytes
