(* Natural-loop detection from back edges in the dominator tree.

   A back edge is an edge [latch -> header] where [header] dominates
   [latch]; the natural loop is the set of blocks that can reach the latch
   without passing through the header. Loop nesting depth drives both the
   static block-frequency estimate (MCA) and several loop passes. *)

module SSet = Set.Make (String)
module SMap = Map.Make (String)

type loop = {
  header : string;
  latches : string list;
  blocks : SSet.t;
  depth : int; (* 1 = outermost *)
  preheader : string option;
  exits : string list; (* blocks outside the loop targeted from inside *)
}

type t = {
  loops : loop list; (* outermost first *)
  depth_of : int SMap.t; (* 0 for non-loop blocks *)
}

let natural_loop cfg ~header ~latch =
  let rec go body work =
    match work with
    | [] -> body
    | b :: rest ->
      if SSet.mem b body || String.equal b header then go body rest
      else go (SSet.add b body) (Cfg.preds cfg b @ rest)
  in
  go (SSet.singleton header) [ latch ]

let compute (f : Func.t) =
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  let reach = Cfg.reachable cfg in
  (* back edges *)
  let back_edges =
    List.concat_map
      (fun b ->
        let l = b.Block.label in
        if not (Cfg.SSet.mem l reach) then []
        else
          List.filter_map
            (fun s -> if Dom.dominates dom s l then Some (l, s) else None)
            (Block.successors b))
      f.Func.blocks
  in
  (* merge back edges sharing a header into one loop *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let cur = Option.value (Hashtbl.find_opt by_header header) ~default:[] in
      Hashtbl.replace by_header header (latch :: cur))
    back_edges;
  let raw_loops =
    Hashtbl.fold
      (fun header latches acc ->
        let blocks =
          List.fold_left
            (fun acc latch -> SSet.union acc (natural_loop cfg ~header ~latch))
            SSet.empty latches
        in
        (header, latches, blocks) :: acc)
      by_header []
  in
  (* nesting depth: number of loops containing a block *)
  let depth_of =
    List.fold_left
      (fun m b ->
        let l = b.Block.label in
        let d =
          List.length (List.filter (fun (_, _, blocks) -> SSet.mem l blocks) raw_loops)
        in
        SMap.add l d m)
      SMap.empty f.Func.blocks
  in
  let loop_of (header, latches, blocks) =
    let depth = Option.value (SMap.find_opt header depth_of) ~default:1 in
    (* preheader: unique predecessor of header outside the loop whose only
       successor is the header *)
    let outside_preds =
      List.filter (fun p -> not (SSet.mem p blocks)) (Cfg.preds cfg header)
    in
    let preheader =
      match outside_preds with
      | [ p ] ->
        (match Cfg.succs cfg p with
         | [ s ] when String.equal s header -> Some p
         | _ -> None)
      | _ -> None
    in
    let exits =
      SSet.fold
        (fun b acc ->
          List.fold_left
            (fun acc s -> if SSet.mem s blocks then acc else s :: acc)
            acc (Cfg.succs cfg b))
        blocks []
      |> List.sort_uniq String.compare
    in
    { header; latches; blocks; depth; preheader; exits }
  in
  let loops =
    raw_loops |> List.map loop_of
    |> List.sort (fun a b -> compare a.depth b.depth)
  in
  { loops; depth_of }

let depth t label = Option.value (SMap.find_opt label t.depth_of) ~default:0

(* Loops whose body contains no other loop's header. *)
let leaf_loops t =
  List.filter
    (fun l ->
      not
        (List.exists
           (fun l' ->
             (not (String.equal l'.header l.header)) && SSet.mem l'.header l.blocks)
           t.loops))
    t.loops

let loop_count t = List.length t.loops
