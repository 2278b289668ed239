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
  relocs : int;
  symtab : int;
  headers : int;
}

let align n a = (n + a - 1) / a * a

(* Section sizes of [m], given the lowerings of its defined functions in
   module order. *)
let sections (t : Target.t) (m : Modul.t) (lowered : Lower.lowered_func list) :
    section_sizes =
  let text, relocs =
    List.fold_left
      (fun (text, relocs) (lf : Lower.lowered_func) ->
        (align text t.Target.func_align + lf.Lower.code_bytes,
         relocs + (lf.Lower.call_sites * t.Target.call_reloc_bytes)))
      (0, 0) lowered
  in
  let data =
    List.fold_left
      (fun data (g : Global.t) ->
        match g.Global.init with
        | None | Some Global.Zeroinit -> data (* bss: no file space *)
        | Some _ -> align data 8 + Global.size_bytes g)
      0 m.Modul.globals
  in
  let symbols =
    List.length lowered
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
    relocs;
    symtab = (symbols * t.Target.symtab_entry_bytes) + sym_names;
    headers = t.Target.header_bytes }

let measure (t : Target.t) (m : Modul.t) : section_sizes =
  sections t m (List.map (Lower.lower_func t) (Modul.defined_funcs m))

(* Total object-file size in bytes. *)
let total (s : section_sizes) : int =
  s.text + s.data + s.relocs + s.symtab + s.headers

let size (t : Target.t) (m : Modul.t) : int = total (measure t m)

(* Text-only size, useful for per-function reporting. *)
let text_size (t : Target.t) (m : Modul.t) : int = (measure t m).text
