(* Reference control-flow facts: Posetrl_ir's Cfg, Dom and Loops as they
   were before they were computed over block indices, kept verbatim. Every
   query builds or walks string-keyed maps and sets, and Loops.compute
   remembers nothing. test_cfg.ml checks that both give the same answers,
   list orders included, on well-formed and malformed functions. *)

open Posetrl_ir

module Cfg = struct
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
end

module Dom = struct
  (* Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm. *)

  module SMap = Map.Make (String)

  type t = {
    idom : string SMap.t;  (* immediate dominator; entry maps to itself *)
    entry : string;
    order : string array;  (* reverse post-order, entry first *)
    index : int SMap.t;    (* label -> rpo index *)
  }

  let compute (cfg : Cfg.t) =
    let order = Array.of_list (Cfg.rpo cfg) in
    let n = Array.length order in
    let index =
      Array.to_seqi order
      |> Seq.fold_left (fun m (i, l) -> SMap.add l i m) SMap.empty
    in
    (* idoms over rpo indices; -1 = undefined *)
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
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 1 to n - 1 do
        let preds =
          Cfg.preds cfg order.(i)
          |> List.filter_map (fun p -> SMap.find_opt p index) (* reachable only *)
          |> List.filter (fun p -> idom.(p) >= 0 || p = 0)
        in
        match preds with
        | [] -> ()
        | first :: rest ->
          let new_idom = List.fold_left (fun acc p -> if idom.(p) >= 0 then intersect acc p else acc) first rest in
          if idom.(i) <> new_idom then begin
            idom.(i) <- new_idom;
            changed := true
          end
      done
    done;
    let idom_map =
      Array.to_seqi order
      |> Seq.fold_left
           (fun m (i, l) ->
             if idom.(i) >= 0 then SMap.add l order.(idom.(i)) m else m)
           SMap.empty
    in
    { idom = idom_map; entry = cfg.Cfg.entry; order; index }

  let of_func f = compute (Cfg.of_func f)

  let idom t label = SMap.find_opt label t.idom

  (* [dominates t a b]: does [a] dominate [b]? Reflexive. *)
  let dominates t a b =
    let rec walk l =
      if String.equal l a then true
      else
        match SMap.find_opt l t.idom with
        | Some p when not (String.equal p l) -> walk p
        | _ -> false
    in
    walk b

  let strictly_dominates t a b = (not (String.equal a b)) && dominates t a b

  (* Children in the dominator tree. *)
  let children t label =
    SMap.fold
      (fun l p acc ->
        if String.equal p label && not (String.equal l label) then l :: acc else acc)
      t.idom []
end

module Loops = struct
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
end
