(* Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm, over
   the CFG's block indices. *)

type t = {
  cfg : Cfg.t;
  entry : string;
  idom : int array; (* node -> immediate dominator; entry -> itself; -1 unreachable *)
  children : string list array; (* node -> dominator-tree children, descending label order *)
}

(* Immediate dominators by node: -1 for a node the entry does not reach.
   Every reachable node's idom comes before it in reverse post-order, so
   a walk up the array ends at the entry. *)
let idoms (cfg : Cfg.t) : int array =
  let order = Array.of_list (Cfg.rpo_nodes cfg) in
  let n = Array.length order in
  let num = Array.make (Cfg.size cfg) (-1) in
  Array.iteri (fun i v -> num.(v) <- i) order;
  (* idoms over rpo positions; -1 = undefined *)
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while !f1 > !f2 do f1 := idom.(!f1) done;
      while !f2 > !f1 do f2 := idom.(!f2) done
    done;
    !f1
  in
  (* the reachable predecessors processed so far, intersected *)
  let meet acc p =
    let q = num.(p) in
    if q < 0 || idom.(q) < 0 then acc else if acc < 0 then q else intersect acc q
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let new_idom = List.fold_left meet (-1) cfg.Cfg.pred.(order.(i)) in
      if new_idom >= 0 && idom.(i) <> new_idom then begin
        idom.(i) <- new_idom;
        changed := true
      end
    done
  done;
  let by_node = Array.make (Cfg.size cfg) (-1) in
  Array.iteri (fun i v -> by_node.(v) <- order.(idom.(i))) order;
  by_node

(* [dominates_node idom a b]: does node [a] dominate node [b]? Reflexive. *)
let dominates_node (idom : int array) a b =
  let rec walk v = v = a || (let p = idom.(v) in p >= 0 && p <> v && walk p) in
  walk b

let compute (cfg : Cfg.t) =
  let idom = idoms cfg in
  let labels = cfg.Cfg.labels in
  let children = Array.make (Array.length idom) [] in
  Array.iteri (fun v p -> if p >= 0 && p <> v then children.(p) <- labels.(v) :: children.(p)) idom;
  let children =
    Array.map
      (function
        | ([] | [ _ ]) as l -> l
        | l -> List.sort (fun a b -> String.compare b a) l)
      children
  in
  { cfg; entry = cfg.Cfg.entry; idom; children }

let of_func f = compute (Cfg.of_func f)

let idom t label =
  match Cfg.node t.cfg label with
  | Some v when t.idom.(v) >= 0 -> Some t.cfg.Cfg.labels.(t.idom.(v))
  | _ -> None

(* [dominates t a b]: does [a] dominate [b]? Reflexive. *)
let dominates t a b =
  match Cfg.node t.cfg b with
  | None -> String.equal a b
  | Some vb ->
    (match Cfg.node t.cfg a with
     | Some va -> dominates_node t.idom va vb
     | None -> false)

let strictly_dominates t a b = (not (String.equal a b)) && dominates t a b

(* Children in the dominator tree. *)
let children t label = match Cfg.node t.cfg label with Some v -> t.children.(v) | None -> []
