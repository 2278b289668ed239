(* Generic monotone forward dataflow framework over a function CFG.

   A client supplies a join-semilattice (LATTICE) and a per-block
   transfer function; [Make(L).solve] runs the classic worklist
   algorithm in reverse post-order and returns the fixed-point fact at
   every block entry.

   Termination: transfer functions are required to be monotone and the
   lattice to have finite height. Facts start at [L.bottom] and are only
   ever replaced when the joined input strictly changes ([L.equal]
   returns false), so each block's fact can change at most height-many
   times and the worklist drains after O(height * blocks * edges) steps.
   A generous safety bound turns an accidental non-monotone transfer
   into an exception instead of a hang.

   Domain safety: all solver state (fact tables, worklist, visit flags)
   is allocated inside [solve] — there are no globals and no caches, so
   concurrent solves of the same function from different domains are
   safe (see the pool test in test/test_analysis.ml). *)

open Posetrl_ir
module SMap = Map.Make (String)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) = struct
  type result = {
    at_entry : L.t SMap.t;  (* joined fact entering the block's transfer *)
    iterations : int;       (* transfer applications until the fixpoint *)
  }

  let entry_fact result label =
    Option.value (SMap.find_opt label result.at_entry) ~default:L.bottom

  (* [edge ~pred ~succ fact] refines the fact flowing along one CFG edge
     before it is joined (the abstract interpreter uses it for branch
     refinement). Defaults to the identity. *)
  let solve ?(init = L.bottom)
      ?(edge = fun ~pred:_ ~succ:_ fact -> fact)
      ~(transfer : Block.t -> L.t -> L.t) (f : Func.t) : result =
    let cfg = Cfg.of_func f in
    let blocks = Array.of_list f.Func.blocks in
    let n = Array.length blocks in
    let index = Hashtbl.create (2 * n) in
    Array.iteri (fun i b -> Hashtbl.replace index b.Block.label i) blocks;
    (* process in reverse post-order, which reaches the fixpoint
       quickly; blocks unreachable from the entry keep their list
       position *)
    let order =
      let visited = Array.make n false in
      let ranked =
        List.filter_map
          (fun l ->
            match Hashtbl.find_opt index l with
            | Some i ->
              visited.(i) <- true;
              Some i
            | None -> None)
          (Cfg.rpo cfg)
      in
      let rest = ref [] in
      for i = n - 1 downto 0 do
        if not visited.(i) then rest := i :: !rest
      done;
      Array.of_list (ranked @ !rest)
    in
    (* facts, indexed by block: [joined] is the fact entering the
       transfer, [transferred] the transfer result *)
    let joined = Array.make n L.bottom in
    let transferred = Array.make n L.bottom in
    let entry_label = cfg.Cfg.entry in
    let on_queue = Array.make n false in
    let queue = Queue.create () in
    Array.iter
      (fun i ->
        on_queue.(i) <- true;
        Queue.add i queue)
      order;
    let iterations = ref 0 in
    let budget = 64 + (1024 * n * (1 + n)) in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      on_queue.(i) <- false;
      let b = blocks.(i) in
      let l = b.Block.label in
      incr iterations;
      if !iterations > budget then
        failwith
          (Printf.sprintf
             "Dataflow.solve: no fixpoint after %d iterations in %s (non-monotone transfer?)"
             !iterations f.Func.name);
      let joined_in =
        (* the entry block additionally receives the boundary fact [init] *)
        List.fold_left
          (fun acc p ->
            match Hashtbl.find_opt index p with
            | None -> acc
            | Some j -> L.join acc (edge ~pred:p ~succ:l transferred.(j)))
          (if String.equal l entry_label then init else L.bottom)
          (Cfg.preds cfg l)
      in
      joined.(i) <- joined_in;
      let out = transfer b joined_in in
      if not (L.equal out transferred.(i)) then begin
        transferred.(i) <- out;
        List.iter
          (fun l' ->
            match Hashtbl.find_opt index l' with
            | Some j when not on_queue.(j) ->
              on_queue.(j) <- true;
              Queue.add j queue
            | _ -> ())
          (Cfg.succs cfg l)
      end
    done;
    let at_entry =
      Array.to_seqi blocks
      |> Seq.fold_left (fun m (i, b) -> SMap.add b.Block.label joined.(i) m) SMap.empty
    in
    { at_entry; iterations = !iterations }
end
