(* Natural-loop detection from back edges in the dominator tree.

   A back edge is an edge [latch -> header] where [header] dominates
   [latch]; the natural loop is the set of blocks that can reach the latch
   without passing through the header. Loop nesting depth drives both the
   static block-frequency estimate (MCA) and several loop passes.

   The facts are computed over the CFG's block indices, with each loop's
   body marked in a [bool] array, and [compute] remembers its last answer
   per domain: IR values are immutable and the facts read only block
   labels and terminators, so the same function object gets the same
   answer. *)

module SSet = Cfg.SSet

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
  cfg : Cfg.t;
  depths : int array; (* node -> nesting depth, 0 outside every loop *)
}

let compute_fresh (f : Func.t) =
  let cfg = Cfg.of_func f in
  let idom = Dom.idoms cfg in
  let n = Cfg.size cfg in
  let labels = cfg.Cfg.labels in
  (* merge back edges sharing a header into one loop; a node is reachable
     iff it has an idom. The table is keyed on header labels because its
     fold order is the order of loops of equal depth. *)
  let by_header = Hashtbl.create 8 in
  Array.iteri
    (fun k l ->
      if idom.(l) >= 0 then
        List.iter
          (fun s ->
            if Dom.dominates_node idom s l then begin
              let header = labels.(s) in
              let latches = Option.value (Hashtbl.find_opt by_header header) ~default:[] in
              Hashtbl.replace by_header header (labels.(l) :: latches)
            end)
          cfg.Cfg.block_succs.(k))
    cfg.Cfg.block_node;
  let depths = Array.make n 0 in
  (* each loop's body: every node that reaches a latch without passing
     through the header *)
  let raw_loops =
    Hashtbl.fold
      (fun header latches acc ->
        let h = Option.get (Cfg.node cfg header) in
        let body = Array.make n false in
        body.(h) <- true;
        let rec mark v =
          if not body.(v) then begin
            body.(v) <- true;
            List.iter mark cfg.Cfg.pred.(v)
          end
        in
        List.iter (fun latch -> mark (Option.get (Cfg.node cfg latch))) latches;
        Array.iteri (fun v inside -> if inside then depths.(v) <- depths.(v) + 1) body;
        (h, latches, body) :: acc)
      by_header []
  in
  let loop_of (h, latches, body) =
    (* preheader: unique predecessor of header outside the loop whose only
       successor is the header *)
    let preheader =
      match List.filter (fun p -> not body.(p)) cfg.Cfg.pred.(h) with
      | [ p ] -> (match cfg.Cfg.succ.(p) with [ s ] when s = h -> Some labels.(p) | _ -> None)
      | _ -> None
    in
    let blocks = ref [] and exits = ref [] in
    Array.iteri
      (fun v inside ->
        if inside then begin
          blocks := labels.(v) :: !blocks;
          List.iter (fun s -> if not body.(s) then exits := labels.(s) :: !exits) cfg.Cfg.succ.(v)
        end)
      body;
    { header = labels.(h); latches; blocks = SSet.of_list !blocks; depth = depths.(h);
      preheader; exits = List.sort_uniq String.compare !exits }
  in
  let loops =
    raw_loops |> List.map loop_of
    |> List.sort (fun a b -> compare a.depth b.depth)
  in
  { loops; cfg; depths }

(* The last function [compute] saw on this domain, and its answer. *)
let memo : (Func.t * t) option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let compute (f : Func.t) =
  let last = Domain.DLS.get memo in
  match !last with
  | Some (f', li) when f' == f -> li
  | _ ->
    let li = compute_fresh f in
    last := Some (f, li);
    li

let depth t label = match Cfg.node t.cfg label with Some v -> t.depths.(v) | None -> 0

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
