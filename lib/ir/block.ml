(* Basic blocks: a label, a straight-line instruction list (phis first),
   and a single terminator. *)

type t = {
  label : string;
  insns : Instr.t list;
  term : Instr.term;
}

let mk label insns term = { label; insns; term }

(* Bit-exact equality ([Instr.equal]), short-circuiting on [==]. *)
let equal (a : t) (b : t) =
  a == b
  || String.equal a.label b.label
     && List.equal Instr.equal a.insns b.insns
     && Instr.equal_term a.term b.term

let phis b = List.filter (fun i -> Instr.is_phi i.Instr.op) b.insns

let non_phis b = List.filter (fun i -> not (Instr.is_phi i.Instr.op)) b.insns

(* Split [insns] into the phi prefix and the rest. *)
let split_phis b =
  let rec go acc = function
    | ({ Instr.op = Instr.Phi _; _ } as i) :: rest -> go (i :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] b.insns

let map_insns f b = { b with insns = List.map f b.insns }

let filter_insns p b = { b with insns = List.filter p b.insns }

let successors b = Instr.successors b.term

(* Rewrite every operand (including the terminator's) with [f]. *)
let map_operands f b =
  { b with
    insns = List.map (fun i -> { i with Instr.op = Instr.map_operands f i.Instr.op }) b.insns;
    term = Instr.map_term_operands f b.term }

(* Update phi incoming labels when a predecessor is renamed. *)
let rename_phi_pred ~from ~to_ b =
  let fix i =
    match i.Instr.op with
    | Instr.Phi (ty, incs) ->
      let incs = List.map (fun (l, v) -> ((if String.equal l from then to_ else l), v)) incs in
      { i with Instr.op = Instr.Phi (ty, incs) }
    | _ -> i
  in
  map_insns fix b

(* Drop phi entries coming from a predecessor that no longer exists. *)
let remove_phi_pred ~pred b =
  let fix i =
    match i.Instr.op with
    | Instr.Phi (ty, incs) ->
      let incs = List.filter (fun (l, _) -> not (String.equal l pred)) incs in
      { i with Instr.op = Instr.Phi (ty, incs) }
    | _ -> i
  in
  map_insns fix b
