(* Available expressions: a forward "must" analysis — an expression is
   available at a point iff it has been computed on EVERY path reaching
   it. The join is therefore set intersection, encoded with an explicit
   top element ([All], the lattice bottom under the solver's join) so
   unvisited facts start as the identity of intersection.

   Expression keys are the pure instruction shape (opcode, result type,
   operands); SSA means operands are never redefined, so there are no
   kills. Loads and other memory reads are deliberately excluded. *)

open Posetrl_ir
module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* [All] = "every expression" (top of the must-analysis, the solver's
   bottom); [Avail s] = exactly the expressions in [s]. *)
type fact = All | Avail of SSet.t

module Lattice = struct
  type t = fact

  let bottom = All

  let equal a b =
    match a, b with
    | All, All -> true
    | Avail x, Avail y -> SSet.equal x y
    | _ -> false

  let join a b =
    match a, b with
    | All, x | x, All -> x
    | Avail x, Avail y -> Avail (SSet.inter x y)
end

module Solver = Dataflow.Make (Lattice)

(* Canonical key of a pure expression; [None] for anything impure or
   position-dependent. Result type disambiguates casts sharing a name. *)
let expr_key (op : Instr.op) : string option =
  if not (Instr.is_pure op) then None
  else
    match op with
    | Instr.Phi _ -> None
    | _ ->
      Some
        (Printf.sprintf "%s:%s(%s)" (Instr.opcode_name op)
           (Types.to_string (Instr.result_ty op))
           (String.concat "," (List.map Value.to_string (Instr.operands op))))

let exprs_of_block (b : Block.t) : SSet.t =
  List.fold_left
    (fun acc (i : Instr.t) ->
      match expr_key i.Instr.op with
      | Some k -> SSet.add k acc
      | None -> acc)
    SSet.empty b.Block.insns

let transfer (b : Block.t) (inb : fact) : fact =
  match inb with
  | All -> All (* unreachable block: vacuously everything *)
  | Avail s -> Avail (SSet.union s (exprs_of_block b))

(* the fact at each block's entry *)
type t = fact SMap.t

let of_func (f : Func.t) : t =
  (Solver.solve ~init:(Avail SSet.empty) ~transfer f).Solver.at_entry

let avail_in (t : t) label = Option.value (SMap.find_opt label t) ~default:All

(* Pure instructions whose expression is already available at block
   entry (recomputations a CSE/GVN pass could forward): (block, id). *)
let redundant (t : t) (f : Func.t) : (string * int) list =
  List.concat_map
    (fun (b : Block.t) ->
      match avail_in t b.Block.label with
      | All -> []
      | Avail at_entry ->
        let seen = ref at_entry in
        List.filter_map
          (fun (i : Instr.t) ->
            match expr_key i.Instr.op with
            | Some k ->
              if SSet.mem k !seen then Some (b.Block.label, i.Instr.id)
              else begin
                seen := SSet.add k !seen;
                None
              end
            | None -> None)
          b.Block.insns)
    f.Func.blocks
