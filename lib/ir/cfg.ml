(* Control-flow-graph queries over a function: successor/predecessor lists,
   reachability and reverse post-order.

   The graph is built once over block indices ("nodes"): node [k] is the
   [k]-th distinct block label in block order, so the entry block is node
   0, and a branch target no block defines is a further node with no
   successors. Malformed functions keep well-defined answers: a label
   shared by several blocks has the last such block's successors and the
   predecessors of every block that branches to it. *)

module SSet = Set.Make (String)
module Tbl = Hashtbl.Make (String)

type t = {
  entry : string;
  index : int Tbl.t; (* label -> node *)
  labels : string array; (* node -> label *)
  block_node : int array; (* k-th block -> its node *)
  block_succs : int list array; (* k-th block -> its own successors *)
  succ : int list array; (* node -> successors, terminator order *)
  pred : int list array; (* node -> predecessors, reverse block order, one per edge *)
  succ_labels : string list array;
  pred_labels : string list array;
}

let of_func (f : Func.t) =
  let entry = (Func.entry f).Block.label in
  let blocks = Array.of_list f.Func.blocks in
  let index = Tbl.create (2 * Array.length blocks) in
  let rev_labels = ref [] and n = ref 0 in
  let node l =
    match Tbl.find_opt index l with
    | Some v -> v
    | None ->
      let v = !n in
      Tbl.add index l v;
      rev_labels := l :: !rev_labels;
      incr n;
      v
  in
  let block_node = Array.map (fun b -> node b.Block.label) blocks in
  let block_succ_labels = Array.map Block.successors blocks in
  let block_succs = Array.map (List.map node) block_succ_labels in
  let n = !n in
  let succ = Array.make n [] and succ_labels = Array.make n [] in
  let pred = Array.make n [] and pred_labels = Array.make n [] in
  Array.iteri
    (fun k v ->
      succ.(v) <- block_succs.(k);
      succ_labels.(v) <- block_succ_labels.(k);
      let l = blocks.(k).Block.label in
      List.iter
        (fun s ->
          pred.(s) <- v :: pred.(s);
          pred_labels.(s) <- l :: pred_labels.(s))
        block_succs.(k))
    block_node;
  { entry; index; labels = Array.of_list (List.rev !rev_labels); block_node; block_succs;
    succ; pred; succ_labels; pred_labels }

let size t = Array.length t.labels

let node t label = Tbl.find_opt t.index label

let succs t label = match node t label with Some v -> t.succ_labels.(v) | None -> []

let preds t label = match node t label with Some v -> t.pred_labels.(v) | None -> []

(* Nodes in reverse post-order of a depth-first walk from the entry that
   takes successors in terminator order: exactly the reachable nodes. *)
let rpo_nodes t =
  let seen = Array.make (size t) false in
  let order = ref [] in
  let rec dfs v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter dfs t.succ.(v);
      order := v :: !order
    end
  in
  dfs 0;
  !order

(* Blocks reachable from entry. *)
let reachable t = SSet.of_list (List.map (Array.get t.labels) (rpo_nodes t))

(* Reverse post-order of the reachable subgraph, entry first. *)
let rpo t = List.map (Array.get t.labels) (rpo_nodes t)
