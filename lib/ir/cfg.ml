(* Control-flow-graph queries over a function: successor/predecessor maps,
   reachability, and reverse post-order. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

type t = {
  succs : string list SMap.t;
  preds : string list SMap.t;
  entry : string;
}

let of_func (f : Func.t) =
  let entry = (Func.entry f).Block.label in
  let succs =
    List.fold_left
      (fun m b -> SMap.add b.Block.label (Block.successors b) m)
      SMap.empty f.Func.blocks
  in
  let preds =
    List.fold_left
      (fun m b ->
        List.fold_left
          (fun m s ->
            let cur = Option.value (SMap.find_opt s m) ~default:[] in
            SMap.add s (b.Block.label :: cur) m)
          m (Block.successors b))
      (List.fold_left (fun m b -> SMap.add b.Block.label [] m) SMap.empty f.Func.blocks)
      f.Func.blocks
  in
  { succs; preds; entry }

let succs t label = Option.value (SMap.find_opt label t.succs) ~default:[]

let preds t label = Option.value (SMap.find_opt label t.preds) ~default:[]

(* Blocks reachable from entry. *)
let reachable t =
  let rec go seen = function
    | [] -> seen
    | l :: rest ->
      if SSet.mem l seen then go seen rest
      else go (SSet.add l seen) (succs t l @ rest)
  in
  go SSet.empty [ t.entry ]

(* Reverse post-order of the reachable subgraph, entry first. *)
let rpo t =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      List.iter dfs (succs t l);
      order := l :: !order
    end
  in
  dfs t.entry;
  !order
