(* Decision-space coverage tests (DESIGN.md §13).

   The unit tests drive [Obs.Coverage] directly on a tiny hand-built
   universe where every credit is checkable on paper: node visits along
   the action path, intra-path and junction ODG edges, the transition
   matrix and its episode-boundary reset, the entropy series. The
   property holds the trainer's table equal to its ledger recompute,
   tick-aligned entropy samples included. *)

module Obs = Posetrl_obs
module Cov = Obs.Coverage
module C = Posetrl_core
module O = Posetrl_odg

let check_float = Alcotest.(check (float 1e-9))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* a 4-node chain a->b->c->d with three actions: [a;b], [c], [c;d] *)
let tiny_universe =
  { Cov.nodes = [| "a"; "b"; "c"; "d" |];
    Cov.edges = [| (0, 1); (1, 2); (2, 3) |];
    Cov.action_paths = [| [| 0; 1 |]; [| 2 |]; [| 2; 3 |] |] }

(* the walkthrough every unit test below shares: two episodes,
   exercising an intra-path edge, a junction edge and the boundary
   reset *)
let tiny_table () =
  let t = Cov.create tiny_universe in
  Cov.observe t ~action:0 ~pos:0 ~reward:1.0 ~r_binsize:0.5 ~r_throughput:0.25;
  Cov.observe t ~action:1 ~pos:1 ~reward:2.0 ~r_binsize:1.0 ~r_throughput:0.5;
  Cov.observe t ~action:2 ~pos:0 ~reward:4.0 ~r_binsize:2.0 ~r_throughput:1.0;
  t

let test_observe_semantics () =
  let t = tiny_table () in
  Alcotest.(check int) "steps" 3 (Cov.steps t);
  Alcotest.(check int) "episodes (two pos=0 marks)" 2 (Cov.episodes t);
  Alcotest.(check (list int)) "node visits along paths" [ 1; 1; 2; 1 ]
    (List.init 4 (Cov.node_visits t));
  Alcotest.(check int) "all nodes reached" 4 (Cov.nodes_visited t);
  (* edge (0,1) intra-path, (1,2) junction b->c, (2,3) intra-path *)
  Alcotest.(check int) "all edges reached" 3 (Cov.edges_visited t);
  check_float "edge pct" 100.0 (Cov.edge_pct t);
  Alcotest.(check int) "transition 0->1 recorded" 1
    (Cov.transition t ~from:0 ~to_:1);
  Alcotest.(check int) "episode boundary resets the cursor" 0
    (Cov.transition t ~from:1 ~to_:2);
  check_float "uniform 3-action entropy" (Float.log2 3.0) (Cov.entropy t);
  (* the junction edge carries the *current* step's reward split *)
  (match Cov.top_edges t ~k:10 with
   | [ (0, 1, 1, r01, _, _); (1, 2, 1, r12, rb12, rt12); (2, 3, 1, r23, _, _) ]
     ->
     check_float "intra-path edge reward" 1.0 r01;
     check_float "junction edge takes step reward" 2.0 r12;
     check_float "junction binsize" 1.0 rb12;
     check_float "junction throughput" 0.5 rt12;
     check_float "second episode edge" 4.0 r23
   | es -> Alcotest.failf "unexpected top_edges (%d rows)" (List.length es));
  Alcotest.(check (list (triple int int int))) "one transition" [ (0, 1, 1) ]
    (Cov.top_transitions t ~k:5)

let test_create_validates () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty action set rejected" true
    (raises (fun () ->
         Cov.create
           { Cov.nodes = [| "a" |]; Cov.edges = [||]; Cov.action_paths = [||] }));
  Alcotest.(check bool) "edge endpoint out of range rejected" true
    (raises (fun () ->
         Cov.create
           { Cov.nodes = [| "a" |];
             Cov.edges = [| (0, 5) |];
             Cov.action_paths = [| [| 0 |] |] }));
  Alcotest.(check bool) "out-of-range action rejected" true
    (raises (fun () ->
         Cov.observe (tiny_table ()) ~action:7 ~pos:0 ~reward:0.0 ~r_binsize:0.0
           ~r_throughput:0.0))

let test_sample_series () =
  let t = Cov.create tiny_universe in
  Cov.sample t ~step:0;
  Cov.observe t ~action:0 ~pos:0 ~reward:1.0 ~r_binsize:0.0 ~r_throughput:0.0;
  Cov.sample t ~step:1;
  match Cov.series t with
  | [ (0, p0, e0); (1, p1, e1) ] ->
    check_float "empty table: 0%" 0.0 p0;
    check_float "empty table: 0 bits" 0.0 e0;
    check_float "one edge of three" (100.0 /. 3.0) p1;
    check_float "single action: 0 bits" 0.0 e1
  | s -> Alcotest.failf "unexpected series length %d" (List.length s)

let test_json_roundtrip_exact () =
  let t = tiny_table () in
  Cov.observe_state t [| 0.5; -1.25; 3.0 |];
  Cov.sample t ~step:3;
  let doc = Cov.to_json t in
  (* a serialize → parse → deserialize cycle through the %.17g printer
     must reproduce the table exactly *)
  match Cov.of_json (Obs.Json.of_string (Obs.Json.to_string doc)) with
  | None -> Alcotest.fail "coverage did not round-trip"
  | Some t' ->
    Alcotest.(check bool) "exact equality after round-trip" true
      (Cov.equal t t');
    Alcotest.(check int) "episodes preserved" (Cov.episodes t)
      (Cov.episodes t');
    Alcotest.(check int) "sketch occupancy preserved" (Cov.sketch_occupied t)
      (Cov.sketch_occupied t')

(* [tiny_table]'s coverage.json with one field rewritten at [path] *)
let tiny_doc_with (path : string list) (v : Obs.Json.t) : Obs.Json.t =
  let rec set path (j : Obs.Json.t) =
    match path, j with
    | [], _ -> v
    | k :: rest, Obs.Json.Obj kvs ->
      Obs.Json.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest x else x)) kvs)
    | _ -> j
  in
  set path (Cov.to_json (tiny_table ()))

let test_of_json_robust () =
  let bad =
    [ Obs.Json.Str "x";
      Obs.Json.Obj [ ("kind", Obs.Json.Str "coverage") ];
      (* structurally complete but with an edge endpoint out of range:
         the embedded universe must re-validate, not crash *)
      (match Cov.to_json (tiny_table ()) with
       | Obs.Json.Obj fields ->
         Obs.Json.Obj
           (List.map
              (function
                | "universe", _ ->
                  ( "universe",
                    Obs.Json.Obj
                      [ ("nodes", Obs.Json.Arr [ Obs.Json.Str "a" ]);
                        ("edges",
                         Obs.Json.Arr
                           [ Obs.Json.Arr [ Obs.Json.Int 0; Obs.Json.Int 9 ] ]);
                        ("action_paths",
                         Obs.Json.Arr [ Obs.Json.Arr [ Obs.Json.Int 0 ] ]) ] )
                | kv -> kv)
              fields)
       | j -> j);
      (* every length consistent, one edge endpoint out of range *)
      tiny_doc_with [ "universe"; "edges" ]
        (Obs.Json.Arr
           (List.map
              (fun (u, v) -> Obs.Json.Arr [ Obs.Json.Int u; Obs.Json.Int v ])
              [ (0, 1); (1, 2); (2, 9) ])) ]
  in
  List.iter
    (fun doc ->
      Alcotest.(check bool) "malformed doc is None" true (Cov.of_json doc = None))
    bad

let read_bounded ~what doc =
  let text = Obs.Json.to_string doc in
  let read, bytes =
    Testutil.allocated (fun () -> Cov.of_json (Obs.Json.of_string text))
  in
  if bytes >= 16e6 then Alcotest.failf "%s: reading allocated %.0f bytes" what bytes;
  read

(* 3,000 empty action paths declare a 3,000² transition matrix the
   document does not hold: rejected without allocating it *)
let test_of_json_bounded_paths () =
  let doc =
    tiny_doc_with [ "universe"; "action_paths" ]
      (Obs.Json.Arr (List.init 3000 (fun _ -> Obs.Json.Arr [])))
  in
  Alcotest.(check bool) "invalid, as before" true
    (read_bounded ~what:"3,000 empty paths" doc = None)

(* a valid table whose sketch projection would be 6 × 2,000,000: a
   loaded table never uses the projection, so reading never builds it *)
let test_of_json_lazy_projection () =
  let doc = tiny_doc_with [ "sketch"; "state_dim" ] (Obs.Json.Int 2_000_000) in
  match read_bounded ~what:"state_dim 2,000,000" doc with
  | Some t -> Alcotest.(check bool) "valid, as before" true (Cov.equal t (tiny_table ()))
  | None -> Alcotest.fail "a valid table read as invalid"

let test_render_golden () =
  let base = tiny_table () in
  Cov.sample base ~step:3;
  let cand = tiny_table () in
  Cov.observe cand ~action:1 ~pos:1 ~reward:0.5 ~r_binsize:0.5 ~r_throughput:0.0;
  Alcotest.(check string) "coverage body" {|
decision-space coverage (3 steps, 2 episodes):
  ODG edges visited   3/3 (100.0%)
  ODG nodes visited   4/4
  action entropy      1.585 bits (max 1.585 over 3 actions)
  state sketch        0/64 buckets occupied
== hottest ODG edges (coverage.json) ==
| edge   | visits | mean r | mean binsize | mean throughput |
|--------|--------|--------|--------------|-----------------|
| a -> b |      1 |  1.000 |        0.500 |           0.250 |
| b -> c |      1 |  2.000 |        1.000 |           0.500 |
== top action transitions ==
| from | to | count |
|------|----|-------|
|    0 |  1 |     1 |
|} (Cov.render ~top:2 base);
  Alcotest.(check string) "no visited edges"
    {|
decision-space coverage (0 steps, 0 episodes):
  ODG edges visited   0/3 (0.0%)
  ODG nodes visited   0/4
  action entropy      0.000 bits (max 1.585 over 3 actions)
  state sketch        0/64 buckets occupied
no visited edges
|}
    (Cov.render ~top:2 (Cov.create tiny_universe));
  Alcotest.(check string) "runs compare coverage line"
    {|coverage: edges 100.0% -> 100.0% (+0.0 pts)  entropy 1.585 -> 1.500 bits (-0.085)  nodes 4 -> 4
|}
    (Cov.render_shift ~base ~cand);
  Alcotest.(check string) "one side without data"
    {|coverage: no data on at least one side (pre-coverage run or unreadable coverage.json)
|}
    (Obs.Fold.shift (module Cov) ~base:(Some base) ~cand:None)

(* a streamed table over a random universe: random steps, embeddings and
   samples *)
let gen_coverage =
  QCheck2.Gen.(
    let* n_nodes = int_range 1 5 in
    let node = int_bound (n_nodes - 1) in
    let* edges = array_size (int_range 0 6) (pair node node)
    and* action_paths = array_size (int_range 1 4) (array_size (int_range 0 3) node) in
    let reward = frequency [ (9, float_range (-1e3) 1e3); (1, return Float.nan) ] in
    let+ steps =
      list_size (int_range 0 25)
        (tup4 (int_bound (Array.length action_paths - 1)) (int_range 0 3) reward
           (pair (array_size (int_range 0 4) (float_range (-1.0) 1.0)) bool))
    in
    let t =
      Cov.create
        { Cov.nodes = Array.init n_nodes (Printf.sprintf "n%d"); edges; action_paths }
    in
    List.iteri
      (fun i (action, pos, reward, (state, tick)) ->
        Cov.observe_state t state;
        Cov.observe t ~action ~pos ~reward ~r_binsize:(reward /. 2.0)
          ~r_throughput:(-.reward);
        if tick then Cov.sample t ~step:i)
      steps;
    t)

let prop_reader =
  QCheck2.Test.make ~count:300
    ~print:(fun (t, seed) ->
        Printf.sprintf "%s, seed %d" (Obs.Json.to_string (Cov.to_json t)) seed)
    ~name:"coverage.json reads back equal, and is total under one mutation"
    QCheck2.Gen.(pair gen_coverage int)
    (fun (t, seed) ->
      let doc = Cov.to_json t in
      (match Cov.of_json (Testutil.reread doc) with
       | Some t' -> Cov.equal t t' && Cov.sketch_buckets t = Cov.sketch_buckets t'
       | None -> false)
      && Testutil.total_under_mutation Cov.of_json doc seed)

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let test_run_coverage_file () =
  let dir = Filename.temp_file "posetrl_cov" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let rdir = Filename.concat dir "r1" in
      let run =
        Obs.Run.create ~dir:rdir ~name:"r1"
          ~meta:[ ("kind", Obs.Json.Str "train") ]
          ()
      in
      let info () = Obs.Run.find rdir in
      Alcotest.(check bool) "absent file is None" true
        (Obs.Run.read (info ()) (Obs.Run.Fold Cov.file) = None);
      Obs.Run.write run (Obs.Run.Fold Cov.file) (Cov.to_json (tiny_table ()));
      Obs.Run.finish run;
      (match Obs.Fold.read (module Cov) (info ()) with
       | Some t -> Alcotest.(check int) "written table read back" 3 (Cov.steps t)
       | None -> Alcotest.fail "coverage.json should read back");
      (* a torn write must degrade to None, never an exception *)
      let oc = open_out (Obs.Run.doc_path (Obs.Run.Fold Cov.file) rdir) in
      output_string oc "{\"kind\": \"cov";
      close_out oc;
      Alcotest.(check bool) "corrupt file is None" true
        (Obs.Run.read (info ()) (Obs.Run.Fold Cov.file) = None))

let test_to_dot_heat () =
  let t = Cov.create tiny_universe in
  (* five episodes of action 0: edge (0,1) hot, (1,2)/(2,3) unvisited *)
  for _ = 1 to 5 do
    Cov.observe t ~action:0 ~pos:0 ~reward:0.0 ~r_binsize:0.0 ~r_throughput:0.0
  done;
  let dot = Cov.to_dot ~k:2 t in
  Alcotest.(check bool) "same header as odg --dot" true
    (String.starts_with ~prefix:"digraph odg {\n  rankdir=LR;\n" dot);
  (* b and c both touch two universe edges: critical at k=2 *)
  Alcotest.(check bool) "critical node styled" true
    (contains dot "\"b\" [shape=doublecircle,style=bold];");
  Alcotest.(check bool) "visited edge carries its count" true
    (contains dot "\"a\" -> \"b\" [color=\"#cc0000\",penwidth=4.00,label=\"5\"];");
  Alcotest.(check bool) "unvisited edge dashed" true
    (contains dot "\"c\" -> \"d\" [style=dashed,color=\"#cccccc\"];");
  Alcotest.(check bool) "closed" true (String.ends_with ~suffix:"}\n" dot)

let test_sketch_deterministic () =
  let mk () = Cov.create ~sketch_bits:4 ~sketch_seed:7 ~state_dim:8 tiny_universe in
  let states =
    List.init 16 (fun i ->
        Array.init 8 (fun j -> Float.sin (float_of_int ((i * 8) + j))))
  in
  let a = mk () and b = mk () in
  List.iter (Cov.observe_state a) states;
  List.iter (Cov.observe_state b) states;
  Alcotest.(check (array int)) "same seed + stream = same buckets"
    (Cov.sketch_buckets a) (Cov.sketch_buckets b);
  Alcotest.(check bool) "occupancy within 2^bits" true
    (Cov.sketch_occupied a >= 1 && Cov.sketch_occupied a <= 16)

(* --- coverage universe over the real ODG ------------------------------------ *)

let test_coverage_universe_shape () =
  let u = C.Trainer.coverage_universe O.Action_space.odg in
  let g = Lazy.force O.Graph.default in
  Alcotest.(check int) "one path per action"
    (O.Action_space.n_actions O.Action_space.odg)
    (Array.length u.Cov.action_paths);
  Alcotest.(check bool) "at least the ODG nodes" true
    (Array.length u.Cov.nodes >= O.Graph.node_count g);
  Alcotest.(check int) "all ODG edges present" (O.Graph.edge_count g)
    (Array.length u.Cov.edges);
  (* a table over the real universe accepts every action *)
  let t = Cov.create u in
  for a = 0 to Array.length u.Cov.action_paths - 1 do
    Cov.observe t ~action:a ~pos:0 ~reward:0.0 ~r_binsize:0.0 ~r_throughput:0.0
  done;
  Alcotest.(check bool) "every-action sweep visits edges" true
    (Cov.edges_visited t > 0)

(* --- streaming = recompute (the determinism property) ------------------------ *)

let prop_streaming_eq_recompute =
  Testutil.prop_folds_eq_recompute ~only:Cov.name
    ~name:"streaming coverage = ledger recompute" ()

let suite =
  [ Alcotest.test_case "observe credits nodes/edges/transitions" `Quick
      test_observe_semantics;
    Alcotest.test_case "create and observe validate indices" `Quick
      test_create_validates;
    Alcotest.test_case "sample appends the entropy series" `Quick
      test_sample_series;
    Alcotest.test_case "coverage json round-trip is exact" `Quick
      test_json_roundtrip_exact;
    Alcotest.test_case "coverage reader rejects malformed docs" `Quick
      test_of_json_robust;
    Alcotest.test_case "coverage reader allocates only what the doc holds"
      `Quick test_of_json_bounded_paths;
    Alcotest.test_case "coverage reader never builds the projection" `Quick
      test_of_json_lazy_projection;
    Alcotest.test_case "coverage renderers golden" `Quick test_render_golden;
    QCheck_alcotest.to_alcotest prop_reader;
    Alcotest.test_case "run ledger coverage.json read/write hardened" `Quick
      test_run_coverage_file;
    Alcotest.test_case "heat dot export" `Quick test_to_dot_heat;
    Alcotest.test_case "state sketch is seed-deterministic" `Quick
      test_sketch_deterministic;
    Alcotest.test_case "universe over the real ODG" `Quick
      test_coverage_universe_shape;
    QCheck_alcotest.to_alcotest prop_streaming_eq_recompute ]
