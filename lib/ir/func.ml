(* Functions: a parameter list (each parameter owns an SSA register), a
   return type, a CFG given as an ordered block list (entry first), and a
   fresh-register counter threaded through passes. *)

module SMap = Map.Make (String)

type linkage = Internal | External

type t = {
  name : string;
  params : (int * Types.t) list;
  ret : Types.t;
  blocks : Block.t list; (* empty for declarations; entry block first *)
  next_id : int;
  attrs : Attrs.t;
  linkage : linkage;
}

let mk ?(attrs = Attrs.empty) ?(linkage = Internal) ~name ~params ~ret ~blocks ~next_id () =
  { name; params; ret; blocks; next_id; attrs; linkage }

let declare ?(attrs = Attrs.empty) ~name ~params ~ret () =
  let params = List.mapi (fun i ty -> (i, ty)) params in
  { name; params; ret; blocks = []; next_id = List.length params;
    attrs; linkage = External }

let is_declaration f = f.blocks = []

(* Bit-exact equality: float constants compare by bit pattern and
   attributes as sets (passes rebuild equal sets with different tree
   shapes); [==] short-circuits at every level. *)
let equal (a : t) (b : t) =
  a == b
  || String.equal a.name b.name
     && a.next_id = b.next_id && a.linkage = b.linkage
     && Types.equal a.ret b.ret && a.params = b.params
     && Attrs.equal a.attrs b.attrs
     && List.equal Block.equal a.blocks b.blocks

let entry f =
  match f.blocks with
  | [] -> invalid_arg ("Func.entry: declaration " ^ f.name)
  | b :: _ -> b

let find_block f label =
  List.find_opt (fun b -> String.equal b.Block.label label) f.blocks

let find_block_exn f label =
  match find_block f label with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Func.find_block: no block %s in %s" label f.name)

let block_map f =
  List.fold_left (fun m b -> SMap.add b.Block.label b m) SMap.empty f.blocks

let with_blocks ?next_id f blocks =
  { f with blocks; next_id = Option.value next_id ~default:f.next_id }

let map_blocks fn f = { f with blocks = List.map fn f.blocks }

(* Rewrite every operand in the function body. *)
let map_operands fn f = map_blocks (Block.map_operands fn) f

(* Substitute register [r] by value [v] everywhere. *)
let replace_reg r v f =
  let subst = function Value.Reg r' when r' = r -> v | x -> x in
  map_operands subst f

module ISet = Set.Make (Int)

(* Follow [v] through the register substitution [subst] to the end of its
   chain. A register already visited ends the walk (a self-map or a cycle
   resolves to the register where it closes). *)
let resolve (subst : (int, Value.t) Hashtbl.t) (v : Value.t) : Value.t =
  let rec go seen v =
    match v with
    | Value.Reg r when not (ISet.mem r seen) ->
      (match Hashtbl.find_opt subst r with
       | Some v' -> go (ISet.add r seen) v'
       | None -> v)
    | _ -> v
  in
  go ISet.empty v

(* Apply [subst]: every use goes through [resolve], and the instructions
   defining a substituted register are dropped. An empty table returns
   [f] itself. *)
let substitute (subst : (int, Value.t) Hashtbl.t) (f : t) : t =
  if Hashtbl.length subst = 0 then f
  else
    let resolve = resolve subst in
    let rewrite (i : Instr.t) =
      if i.Instr.id >= 0 && Hashtbl.mem subst i.Instr.id then None
      else Some { i with Instr.op = Instr.map_operands resolve i.Instr.op }
    in
    map_blocks
      (fun b ->
        { b with
          Block.insns = List.filter_map rewrite b.Block.insns;
          term = Instr.map_term_operands resolve b.Block.term })
      f

let iter_insns fn f =
  List.iter (fun b -> List.iter (fn b) b.Block.insns) f.blocks

let fold_insns fn acc f =
  List.fold_left
    (fun acc b -> List.fold_left (fun acc i -> fn acc b i) acc b.Block.insns)
    acc f.blocks

let insn_count f =
  fold_insns (fun n _ _ -> n + 1) 0 f + List.length f.blocks (* + terminators *)

(* Map from defining register to (block label, instruction). *)
let def_map f =
  fold_insns
    (fun m b i -> if i.Instr.id >= 0 then (i.Instr.id, (b.Block.label, i)) :: m else m)
    [] f
  |> List.to_seq |> Hashtbl.of_seq

(* Number of uses of each register across the body (terminators included). *)
let use_counts f =
  let tbl = Hashtbl.create 64 in
  let bump = function
    | Value.Reg r -> Hashtbl.replace tbl r (1 + Option.value (Hashtbl.find_opt tbl r) ~default:0)
    | _ -> ()
  in
  List.iter
    (fun b ->
      List.iter (fun i -> List.iter bump (Instr.operands i.Instr.op)) b.Block.insns;
      List.iter bump (Instr.term_operands b.Block.term))
    f.blocks;
  tbl

(* Mutable fresh-id source for use inside a pass body. *)
type counter = { mutable next : int }

let fresh_counter f = { next = f.next_id }

let fresh c =
  let id = c.next in
  c.next <- id + 1;
  id

let commit_counter f c = { f with next_id = c.next }

let has_attr a f = Attrs.mem a f.attrs

let add_attr a f = { f with attrs = Attrs.add a f.attrs }
