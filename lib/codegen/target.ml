(* Target machine descriptions.

   The size model needs two architectures because the paper evaluates on
   both: x86-64 (variable-length encodings, many addressing modes) and
   AArch64 (fixed 4-byte encodings, large immediates need extra moves).
   Machine instructions are abstracted into classes that the MCA
   throughput model maps onto execution ports. *)

type mclass =
  | MAlu      (* integer add/sub/logic/shift/cmp *)
  | MMul
  | MDiv
  | MFpAdd
  | MFpMul
  | MFpDiv
  | MLoad
  | MStore
  | MBranch
  | MCall
  | MMov      (* register moves, immediates, extensions *)
  | MLea      (* address arithmetic *)
  | MVecAlu
  | MVecMem
  | MNop

type minst = { klass : mclass; bytes : int }

let mi klass bytes = { klass; bytes }

type arch = X86_64 | AArch64

type t = {
  arch : arch;
  name : string;
  ptr_bytes : int;
  int_regs : int;        (* allocatable integer registers *)
  func_align : int;      (* function start alignment in .text *)
  prologue_bytes : int;
  epilogue_bytes : int;
  call_reloc_bytes : int; (* relocation record per call/global reference *)
  symtab_entry_bytes : int;
  header_bytes : int;     (* fixed object-file overhead *)
}

let x86_64 = {
  arch = X86_64;
  name = "x86-64";
  ptr_bytes = 8;
  int_regs = 12;
  func_align = 16;
  prologue_bytes = 4;  (* push rbp; mov rbp,rsp *)
  epilogue_bytes = 2;  (* leave; (ret counted per-ret) *)
  call_reloc_bytes = 24;
  symtab_entry_bytes = 24;
  header_bytes = 680;
}

let aarch64 = {
  arch = AArch64;
  name = "aarch64";
  ptr_bytes = 8;
  int_regs = 24;
  func_align = 8;
  prologue_bytes = 8;  (* stp x29,x30; mov x29,sp *)
  epilogue_bytes = 8;
  call_reloc_bytes = 24;
  symtab_entry_bytes = 24;
  header_bytes = 680;
}
