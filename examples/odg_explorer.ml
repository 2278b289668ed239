(* ODG explorer: how the action space falls out of the graph.

     dune exec examples/odg_explorer.exe

   Rebuilds the Oz Dependence Graph, sweeps the critical-node threshold k,
   and shows how the derived sub-sequence space grows/shrinks — the design
   knob behind the paper's Table III (k >= 8 gives 34 sub-sequences). Also
   demonstrates applying a single derived walk as an optimization recipe. *)

open Posetrl_ir
module P = Posetrl_passes
module O = Posetrl_odg
module W = Posetrl_workloads

let () =
  let g = Lazy.force O.Graph.default in
  Printf.printf "Oz sequence: %d pass instances over %d unique passes\n"
    (List.length P.Pipelines.oz_sequence)
    (O.Graph.node_count g);
  Printf.printf "ODG: %d edges\n\n" (O.Graph.edge_count g);

  print_endline "threshold sweep:";
  List.iter
    (fun k ->
      let crit = O.Graph.critical_nodes ~k g in
      let walks = O.Walks.derive ~k g in
      Printf.printf "  k >= %2d: %d critical nodes [%s], %d derived sub-sequences\n" k
        (List.length crit)
        (String.concat ", " (List.map fst crit))
        (List.length walks))
    [ 4; 6; 8; 10; 11 ];
  print_endline "\n(the paper picks k >= 8: simplifycfg/11, instcombine/10, loop-simplify/8 -> 34 walks)";

  (* use one derived walk as a standalone recipe *)
  let walks = O.Walks.derive ~k:8 g in
  let loop_walk =
    List.find (fun w -> List.mem "loop-unroll" w && List.mem "gvn" w) walks
  in
  Printf.printf "\napplying derived walk [%s] to 525.x264:\n"
    (String.concat " " loop_walk);
  let m =
    match W.Suites.find_program "525.x264" with
    | Some mk -> mk ()
    | None -> failwith "benchmark missing"
  in
  (* promote to SSA first so the loop walk has something to chew on *)
  let m = P.Pass_manager.run P.Config.oz [ "mem2reg"; "simplifycfg" ] m in
  let m' = P.Pass_manager.run ~sanitize:Structural P.Config.oz loop_walk m in
  Printf.printf "  instructions: %d -> %d\n" (Modul.insn_count m) (Modul.insn_count m');
  let obs = Posetrl_interp.Interp.observe in
  assert (obs m = obs m');
  print_endline "  behaviour preserved";

  (* write the graph for rendering *)
  let oc = open_out "odg_explorer.dot" in
  output_string oc (O.Graph.to_dot ~k:8 g);
  close_out oc;
  print_endline "\ngraph written to odg_explorer.dot (render with: dot -Tpdf)"
