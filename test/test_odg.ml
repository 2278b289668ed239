(* Tests for the Oz Dependence Graph: the paper's exact structural claims
   (Fig. 4, Tables I-III) and the walk-derivation algorithm. *)

module O = Posetrl_odg
module P = Posetrl_passes

let g = lazy (Lazy.force O.Graph.default)

let test_node_count () =
  Alcotest.(check int) "54 unique passes" 54 (O.Graph.node_count (Lazy.force g))

let test_critical_nodes_match_paper () =
  (* paper §IV-B: simplifycfg (11), instcombine (10), loop-simplify (8) *)
  let crit = O.Graph.critical_nodes ~k:8 (Lazy.force g) in
  Alcotest.(check (list (pair string int)))
    "critical nodes and degrees"
    [ ("simplifycfg", 11); ("instcombine", 10); ("loop-simplify", 8) ]
    crit

let test_no_other_high_degree_nodes () =
  let crit = O.Graph.critical_nodes ~k:7 (Lazy.force g) in
  Alcotest.(check int) "k=7 adds no nodes" 3 (List.length crit)

let test_edges_follow_sequence () =
  let g = Lazy.force g in
  (* spot-check a few consecutive pairs from Table I *)
  let has_edge u v = O.Graph.SSet.mem v (O.Graph.successors g u) in
  Alcotest.(check bool) "ee-instrument -> simplifycfg" true (has_edge "ee-instrument" "simplifycfg");
  Alcotest.(check bool) "instcombine -> barrier" true (has_edge "instcombine" "barrier");
  Alcotest.(check bool) "barrier -> elim-avail-extern" true (has_edge "barrier" "elim-avail-extern");
  Alcotest.(check bool) "no reverse edge" false (has_edge "simplifycfg" "ee-instrument")

let test_derived_walk_count_is_34 () =
  let walks = O.Walks.derive ~k:8 (Lazy.force g) in
  Alcotest.(check int) "34 sub-sequences (paper Table III)" 34 (List.length walks)

let test_derived_walks_are_valid () =
  let g = Lazy.force g in
  let walks = O.Walks.derive ~k:8 g in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        ("valid walk: " ^ String.concat " " w)
        true
        (O.Walks.valid_walk ~k:8 g w))
    walks

let test_derived_walks_unique () =
  let walks = O.Walks.derive ~k:8 (Lazy.force g) in
  Alcotest.(check int) "no duplicates" (List.length walks)
    (List.length (List.sort_uniq compare walks))

let test_walks_start_at_critical () =
  let walks = O.Walks.derive ~k:8 (Lazy.force g) in
  List.iter
    (fun w ->
      match w with
      | head :: _ ->
        Alcotest.(check bool) "head critical" true
          (List.mem head [ "simplifycfg"; "instcombine"; "loop-simplify" ])
      | [] -> Alcotest.fail "empty walk")
    walks

let test_higher_k_fewer_critical () =
  let g = Lazy.force g in
  Alcotest.(check int) "k=11" 1 (List.length (O.Graph.critical_nodes ~k:11 g));
  Alcotest.(check int) "k=10" 2 (List.length (O.Graph.critical_nodes ~k:10 g))

let test_dot_output () =
  let dot = O.Graph.to_dot (Lazy.force g) in
  Alcotest.(check bool) "digraph" true (String.length dot > 100);
  Alcotest.(check string) "starts" "digraph" (String.sub dot 0 7)

(* --- action spaces --------------------------------------------------------- *)

let test_manual_space_is_15 () =
  Alcotest.(check int) "15 manual groups (Table II)" 15
    (O.Action_space.n_actions O.Action_space.manual)

let test_odg_space_is_34 () =
  Alcotest.(check int) "34 ODG sub-sequences (Table III)" 34
    (O.Action_space.n_actions O.Action_space.odg)

let test_action_spaces_validate () =
  (match O.Action_space.validate O.Action_space.manual with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("manual space: unknown passes " ^ e));
  match O.Action_space.validate O.Action_space.odg with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("odg space: unknown passes " ^ e)

let test_manual_concat_is_oz () =
  (* Table II is a grouping of the Oz pipeline (modulo the duplicated
     barrier): concatenating the groups and dropping one barrier yields
     the canonical sequence *)
  Alcotest.(check int) "sequence length" 90 (List.length P.Pipelines.oz_sequence);
  let concat = List.concat P.Pipelines.manual_groups in
  Alcotest.(check int) "grouping has exactly one extra barrier" 91 (List.length concat)

let test_odg_actions_preserve_dependencies () =
  (* every consecutive pair inside a canonical ODG action (excluding walk
     heads) appears as an edge of the graph, i.e. the order is an Oz
     order; allow the handful of paper-table rows with OCR-level
     deviations to be absent but require > 90% edge coverage *)
  let g = Lazy.force g in
  let total = ref 0 and ok = ref 0 in
  Array.iter
    (fun action ->
      let rec pairs = function
        | a :: (b :: _ as rest) ->
          incr total;
          if O.Graph.SSet.mem b (O.Graph.successors g a) then incr ok;
          pairs rest
        | _ -> ()
      in
      pairs action)
    O.Action_space.odg.O.Action_space.actions;
  Alcotest.(check bool)
    (Printf.sprintf "edges preserved (%d/%d)" !ok !total)
    true
    (!ok * 100 >= !total * 90)

let test_derived_matches_canonical_closely () =
  (* the live derivation must reproduce most of the canonical Table III *)
  let derived = O.Walks.derive ~k:8 (Lazy.force g) in
  let canonical =
    Array.to_list O.Action_space.odg.O.Action_space.actions
    (* normalize the paper's spelling variant *)
    |> List.map
         (List.map (fun p ->
              if p = "alignment-from-assumptions" then p
              else if p = "alignmentfromassumptions" then "alignment-from-assumptions"
              else p))
  in
  let matches =
    List.length (List.filter (fun w -> List.mem w canonical) derived)
  in
  (* the residual differences are the OCR-level inconsistencies of the
     paper's own Table III (barrier placement, mem2reg position) *)
  Alcotest.(check bool)
    (Printf.sprintf "derived matches canonical (%d/34)" matches)
    true (matches >= 20)

let test_actions_runnable () =
  (* every action of both spaces must run on a real module and preserve
     behaviour *)
  let m = Testutil.sum_squares_module () in
  let before = Testutil.observe m in
  List.iter
    (fun (space : O.Action_space.t) ->
      Array.iteri
        (fun idx action ->
          let m' = P.Pass_manager.run ~sanitize:Structural P.Config.oz action m in
          Alcotest.(check bool)
            (Printf.sprintf "%s action %d" space.O.Action_space.name idx)
            true
            (Testutil.observe m' = before))
        space.O.Action_space.actions)
    [ O.Action_space.manual; O.Action_space.odg ]

let suite =
  [ Alcotest.test_case "54 nodes" `Quick test_node_count;
    Alcotest.test_case "critical nodes = paper" `Quick test_critical_nodes_match_paper;
    Alcotest.test_case "k=7 same set" `Quick test_no_other_high_degree_nodes;
    Alcotest.test_case "edges follow sequence" `Quick test_edges_follow_sequence;
    Alcotest.test_case "34 derived walks" `Quick test_derived_walk_count_is_34;
    Alcotest.test_case "walks valid" `Quick test_derived_walks_are_valid;
    Alcotest.test_case "walks unique" `Quick test_derived_walks_unique;
    Alcotest.test_case "walks start critical" `Quick test_walks_start_at_critical;
    Alcotest.test_case "higher k fewer critical" `Quick test_higher_k_fewer_critical;
    Alcotest.test_case "dot output" `Quick test_dot_output;
    Alcotest.test_case "manual space 15" `Quick test_manual_space_is_15;
    Alcotest.test_case "odg space 34" `Quick test_odg_space_is_34;
    Alcotest.test_case "action spaces validate" `Quick test_action_spaces_validate;
    Alcotest.test_case "manual concat = Oz" `Quick test_manual_concat_is_oz;
    Alcotest.test_case "odg deps preserved" `Quick test_odg_actions_preserve_dependencies;
    Alcotest.test_case "derived ~ canonical" `Quick test_derived_matches_canonical_closely;
    Alcotest.test_case "actions runnable" `Quick test_actions_runnable ]
