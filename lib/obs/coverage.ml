(* Decision-space coverage over the ODG (which part of the graph the
   policy actually explores, not just how well it scores).

   The trainer feeds every environment step's (action, position, reward
   split) into a table keyed by a fixed *universe* — the ODG nodes, the
   ODG edge set and each action's pass path mapped to node indices
   (built by [Posetrl_odg.Action_space.coverage_universe]; this module
   takes plain arrays so the obs layer keeps its no-odg dependency).
   Per step the table credits node visits along the action's path, the
   intra-path ODG edges plus the junction edge from the previous
   action's last node, the action×action transition matrix, and the
   cumulative action histogram that drives the Shannon entropy series.

   Everything except the state sketch is a pure fold over the in-order
   step stream, so the table is byte-deterministic per seed (DESIGN.md
   §9) and [Fold.recompute] rebuilds it float-exactly from the run
   ledger's episode/tick records, which the tests hold equal to the
   streaming table. The state sketch (seeded sign-projection buckets
   over the IR2Vec embedding) is deterministic per seed too, but states
   are not persisted in the ledger, so it is excluded from [equal] and
   checked by byte-comparing two training runs' coverage.json
   instead.

   Metric exposure is opt-in per table ([registry]): the trainer's
   table publishes posetrl.coverage.* gauges on [sample]; recomputed
   tables (tests, `posetrl runs show`) stay silent. *)

module Rng = Posetrl_support.Rng
module Tbl = Posetrl_support.Table

type universe = {
  nodes : string array;
  edges : (int * int) array;
  action_paths : int array array;
}

type edge_cell = {
  mutable e_count : int;
  mutable e_reward : float;
  mutable e_binsize : float;
  mutable e_throughput : float;
}

type metric_handles = {
  m_edge_pct : Metrics.gauge;
  m_entropy : Metrics.gauge;
  m_edges_visited : Metrics.gauge;
  m_nodes_visited : Metrics.gauge;
}

type t = {
  universe : universe;
  n_actions : int;
  node_counts : int array;
  edge_cells : edge_cell array;
  edge_index : (int * int, int) Hashtbl.t;
  transitions : int array array; (* prev action × next action *)
  action_counts : int array;
  mutable steps : int;
  mutable episodes : int;
  mutable prev_action : int; (* -1 at episode boundaries *)
  mutable series_rev : (int * float * float) list; (* (step, edge%, entropy) *)
  sketch_bits : int;
  sketch_seed : int;
  state_dim : int;
  proj : float array array Lazy.t;
  (* sketch_bits × state_dim, seeded; built by the first [observe_state],
     so a table read from disk never builds it *)
  sketch : int array; (* 2^sketch_bits bucket counts *)
  metrics : metric_handles option;
}

let fresh_edge_cell () =
  { e_count = 0; e_reward = 0.0; e_binsize = 0.0; e_throughput = 0.0 }

let create ?registry ?(sketch_bits = 6) ?(sketch_seed = 9461)
    ?(state_dim = 300) (u : universe) : t =
  let n_nodes = Array.length u.nodes in
  let n_actions = Array.length u.action_paths in
  if n_actions = 0 then invalid_arg "Coverage.create: empty action set";
  Array.iter
    (fun (a, b) ->
      if a < 0 || a >= n_nodes || b < 0 || b >= n_nodes then
        invalid_arg "Coverage.create: edge endpoint out of range")
    u.edges;
  Array.iter
    (Array.iter (fun i ->
         if i < 0 || i >= n_nodes then
           invalid_arg "Coverage.create: action path node out of range"))
    u.action_paths;
  let sketch_bits = max 1 (min 12 sketch_bits) in
  let state_dim = max 1 state_dim in
  let edge_index = Hashtbl.create (max 16 (2 * Array.length u.edges)) in
  Array.iteri
    (fun i e -> if not (Hashtbl.mem edge_index e) then Hashtbl.add edge_index e i)
    u.edges;
  (* fixed seeded projection, filled in row-major order so the sketch
     is identical for any two tables built with the same seed *)
  let proj =
    lazy
      (let rng = Rng.create sketch_seed in
       Array.init sketch_bits (fun _ ->
           Array.init state_dim (fun _ -> Rng.normal rng)))
  in
  let metrics =
    Option.map
      (fun r ->
        { m_edge_pct = Metrics.gauge ~r "posetrl.coverage.edge_pct";
          m_entropy = Metrics.gauge ~r "posetrl.coverage.entropy_bits";
          m_edges_visited = Metrics.gauge ~r "posetrl.coverage.edges_visited";
          m_nodes_visited = Metrics.gauge ~r "posetrl.coverage.nodes_visited" })
      registry
  in
  { universe = u;
    n_actions;
    node_counts = Array.make n_nodes 0;
    edge_cells = Array.init (Array.length u.edges) (fun _ -> fresh_edge_cell ());
    edge_index;
    transitions = Array.make_matrix n_actions n_actions 0;
    action_counts = Array.make n_actions 0;
    steps = 0;
    episodes = 0;
    prev_action = -1;
    series_rev = [];
    sketch_bits;
    sketch_seed;
    state_dim;
    proj;
    sketch = Array.make (1 lsl sketch_bits) 0;
    metrics }

let n_actions (t : t) = t.n_actions
let steps (t : t) = t.steps
let episodes (t : t) = t.episodes
let node_count (t : t) = Array.length t.universe.nodes
let edge_count (t : t) = Array.length t.universe.edges
let node_visits (t : t) (i : int) = t.node_counts.(i)
let transition (t : t) ~(from : int) ~(to_ : int) = t.transitions.(from).(to_)

let nodes_visited (t : t) =
  Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0 t.node_counts

let edges_visited (t : t) =
  Array.fold_left
    (fun acc c -> if c.e_count > 0 then acc + 1 else acc)
    0 t.edge_cells

let edge_pct (t : t) =
  let total = Array.length t.universe.edges in
  if total = 0 then 0.0
  else 100.0 *. float_of_int (edges_visited t) /. float_of_int total

(* Shannon entropy (bits) of the cumulative action distribution: log2 34
   ≈ 5.09 for a uniform policy over the ODG space, → 0 on collapse. *)
let entropy (t : t) =
  if t.steps = 0 then 0.0
  else begin
    let total = float_of_int t.steps in
    Array.fold_left
      (fun acc n ->
        if n = 0 then acc
        else begin
          let p = float_of_int n /. total in
          acc -. (p *. Float.log2 p)
        end)
      0.0 t.action_counts
  end

let credit_edge (t : t) u v ~reward ~r_binsize ~r_throughput =
  match Hashtbl.find_opt t.edge_index (u, v) with
  | None -> () (* consecutive passes that are not an ODG edge *)
  | Some i ->
    let c = t.edge_cells.(i) in
    c.e_count <- c.e_count + 1;
    c.e_reward <- c.e_reward +. reward;
    c.e_binsize <- c.e_binsize +. r_binsize;
    c.e_throughput <- c.e_throughput +. r_throughput

let observe (t : t) ~(action : int) ~(pos : int) ~(reward : float)
    ~(r_binsize : float) ~(r_throughput : float) : unit =
  if action < 0 || action >= t.n_actions then
    invalid_arg "Coverage.observe: action out of range";
  if pos = 0 then begin
    t.prev_action <- -1;
    t.episodes <- t.episodes + 1
  end;
  let path = t.universe.action_paths.(action) in
  if t.prev_action >= 0 then begin
    t.transitions.(t.prev_action).(action) <-
      t.transitions.(t.prev_action).(action) + 1;
    (* junction edge: the previous sub-sequence's last pass into this
       sub-sequence's first pass, when that hop exists in the ODG *)
    let prev_path = t.universe.action_paths.(t.prev_action) in
    if Array.length prev_path > 0 && Array.length path > 0 then
      credit_edge t
        prev_path.(Array.length prev_path - 1)
        path.(0) ~reward ~r_binsize ~r_throughput
  end;
  t.action_counts.(action) <- t.action_counts.(action) + 1;
  Array.iter (fun n -> t.node_counts.(n) <- t.node_counts.(n) + 1) path;
  for i = 0 to Array.length path - 2 do
    credit_edge t path.(i) path.(i + 1) ~reward ~r_binsize ~r_throughput
  done;
  t.prev_action <- action;
  t.steps <- t.steps + 1

(* Bucketed state-visitation sketch: the sign pattern of [sketch_bits]
   fixed random projections of the (pre-action) IR2Vec embedding picks
   one of 2^bits buckets. Same seed + same step stream → same sketch. *)
let observe_state (t : t) (state : float array) : unit =
  let d = min t.state_dim (Array.length state) in
  let proj = Lazy.force t.proj in
  let idx = ref 0 in
  for i = 0 to t.sketch_bits - 1 do
    let row = proj.(i) in
    let dot = ref 0.0 in
    for j = 0 to d - 1 do
      dot := !dot +. (row.(j) *. state.(j))
    done;
    if !dot >= 0.0 then idx := !idx lor (1 lsl i)
  done;
  t.sketch.(!idx) <- t.sketch.(!idx) + 1

let sketch_buckets (t : t) = Array.copy t.sketch

let sketch_occupied (t : t) =
  Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0 t.sketch

let sample (t : t) ~(step : int) : unit =
  let pct = edge_pct t in
  let ent = entropy t in
  t.series_rev <- (step, pct, ent) :: t.series_rev;
  match t.metrics with
  | None -> ()
  | Some m ->
    Metrics.set m.m_edge_pct pct;
    Metrics.set m.m_entropy ent;
    Metrics.set m.m_edges_visited (float_of_int (edges_visited t));
    Metrics.set m.m_nodes_visited (float_of_int (nodes_visited t))

let series (t : t) = List.rev t.series_rev

(* Ranked tables for the CLI; ties break on universe index so the
   ordering is deterministic. *)
let top_edges (t : t) ~(k : int) :
    (int * int * int * float * float * float) list =
  Array.to_list (Array.mapi (fun i c -> (i, c)) t.edge_cells)
  |> List.filter (fun (_, c) -> c.e_count > 0)
  |> List.sort (fun (i, a) (j, b) ->
         if a.e_count <> b.e_count then compare b.e_count a.e_count
         else compare i j)
  |> List.filteri (fun rank _ -> rank < k)
  |> List.map (fun (i, c) ->
         let u, v = t.universe.edges.(i) in
         (u, v, c.e_count, c.e_reward, c.e_binsize, c.e_throughput))

let top_transitions (t : t) ~(k : int) : (int * int * int) list =
  let xs = ref [] in
  for i = t.n_actions - 1 downto 0 do
    for j = t.n_actions - 1 downto 0 do
      if t.transitions.(i).(j) > 0 then
        xs := (i, j, t.transitions.(i).(j)) :: !xs
    done
  done;
  !xs
  |> List.sort (fun (i1, j1, a) (i2, j2, b) ->
         if a <> b then compare b a else compare (i1, j1) (i2, j2))
  |> List.filteri (fun rank _ -> rank < k)

(* --- persistence (coverage.json) ----------------------------------------- *)

let to_json (t : t) : Json.t =
  let open Json in
  let ints xs = Arr (Array.to_list (Array.map (fun n -> Int n) xs)) in
  Obj
    [ ("kind", Str "coverage");
      ("n_actions", Int t.n_actions);
      ("steps", Int t.steps);
      ("episodes", Int t.episodes);
      ("edge_pct", Float (edge_pct t));
      ("entropy_bits", Float (entropy t));
      ("nodes_visited", Int (nodes_visited t));
      ("edges_visited", Int (edges_visited t));
      ("universe",
       Obj
         [ ("nodes",
            Arr (Array.to_list (Array.map (fun n -> Str n) t.universe.nodes)));
           ("edges",
            Arr
              (Array.to_list
                 (Array.map (fun (u, v) -> Arr [ Int u; Int v ]) t.universe.edges)));
           ("action_paths",
            Arr (Array.to_list (Array.map (fun p -> ints p) t.universe.action_paths)))
         ]);
      ("node_counts", ints t.node_counts);
      ("action_counts", ints t.action_counts);
      ("edges",
       Arr
         (List.init (Array.length t.edge_cells) (fun i ->
              let u, v = t.universe.edges.(i) in
              let c = t.edge_cells.(i) in
              Obj
                [ ("u", Int u);
                  ("v", Int v);
                  ("count", Int c.e_count);
                  ("reward_total", Float c.e_reward);
                  ("r_binsize_total", Float c.e_binsize);
                  ("r_throughput_total", Float c.e_throughput) ])));
      ("transitions", Arr (Array.to_list (Array.map (fun row -> ints row) t.transitions)));
      ("series",
       Arr
         (List.map
            (fun (s, pct, ent) ->
              Obj [ ("step", Int s); ("edge_pct", Float pct); ("entropy", Float ent) ])
            (series t)));
      ("sketch",
       Obj
         [ ("bits", Int t.sketch_bits);
           ("seed", Int t.sketch_seed);
           ("state_dim", Int t.state_dim);
           ("buckets", ints t.sketch) ]) ]

(* Exact equality over everything recomputable from the run ledger: the
   coverage.json documents without the sketch, since states are not
   persisted (comparing two training runs' coverage.json covers it). The
   mid-stream transition cursor is not in the document. *)
let equal (a : t) (b : t) : bool =
  let recomputable t =
    match to_json t with
    | Json.Obj fields -> Json.Obj (List.remove_assoc "sketch" fields)
    | doc -> doc
  in
  Json.equal (recomputable a) (recomputable b)

(* Total reader: coverage.json is ledger data and may be torn or from
   another version. Every array is decoded and checked against the
   universe before [create] sizes a table, so the action×action matrix
   is only built when the document holds one. *)
let of_json : Json.t -> t option =
  let open Json in
  let ints = array int in
  decode (fun doc ->
      let uni = field "universe" doc and sketch = field "sketch" doc in
      let u =
        { nodes = array string (field "nodes" uni);
          edges =
            array
              (fun e ->
                match list int e with [ u; v ] -> (u, v) | _ -> raise Decode)
              (field "edges" uni);
          action_paths = array ints (field "action_paths" uni) }
      in
      let n_actions = Array.length u.action_paths in
      let node_counts = ints (field "node_counts" doc)
      and action_counts = ints (field "action_counts" doc)
      and transitions = array ints (field "transitions" doc)
      and cells =
        array
          (fun c ->
            { e_count = int (field "count" c);
              e_reward = float (field "reward_total" c);
              e_binsize = float (field "r_binsize_total" c);
              e_throughput = float (field "r_throughput_total" c) })
          (field "edges" doc)
      and series =
        list
          (fun p ->
            (int (field "step" p), float (field "edge_pct" p),
             float (field "entropy" p)))
          (field "series" doc)
      and buckets = ints (field "buckets" sketch) in
      if string (field "kind" doc) <> "coverage" || n_actions = 0
         || Array.length node_counts <> Array.length u.nodes
         || Array.length action_counts <> n_actions
         || Array.length transitions <> n_actions
         || Array.exists (fun row -> Array.length row <> n_actions) transitions
         || Array.length cells <> Array.length u.edges
      then raise Decode;
      match
        create ~sketch_bits:(int (field "bits" sketch))
          ~sketch_seed:(int (field "seed" sketch))
          ~state_dim:(int (field "state_dim" sketch)) u
      with
      | exception Invalid_argument _ -> raise Decode
      | t when Array.length buckets <> Array.length t.sketch -> raise Decode
      | t ->
        { t with
          node_counts;
          edge_cells = cells;
          transitions;
          action_counts;
          steps = int (field "steps" doc);
          episodes = int (field "episodes" doc);
          series_rev = List.rev series;
          sketch = buckets })

(* --- the step-stream fold (Fold.S) ------------------------------------------ *)

let name = "coverage"
let file = "coverage.json"
let stream = "step"
let missing = "step stream (eval run or pre-attribution ledger)"

(* the sketch hashes the pre-action embedding (the state the policy
   decided in); the table folds the step itself *)
let observe_step (t : t) (s : Fold.step) : unit =
  Option.iter (observe_state t) s.state;
  observe t ~action:s.action ~pos:s.pos ~reward:s.reward ~r_binsize:s.r_binsize
    ~r_throughput:s.r_throughput

(* a ledger replay folds no states, so any sketch will do *)
let fresh (t : t) : t = create t.universe

let summary (t : t) =
  ( Printf.sprintf "coverage: %d/%d ODG edges (%.1f%%), action entropy %.3f bits\n"
      (edges_visited t) (edge_count t) (edge_pct t) (entropy t),
    [ ("coverage_edge_pct", Json.Float (edge_pct t));
      ("coverage_entropy_bits", Json.Float (entropy t)) ] )

(* --- rendering (posetrl runs show, posetrl runs compare) ------------------- *)

(* The coverage section of `posetrl runs show`: the summary block, then
   the [top] hottest ODG edges with their mean reward split and the
   [top] most frequent action transitions. *)
let render ~(top : int) (t : t) : string =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "\ndecision-space coverage (%d steps, %d episodes):\n\
    \  ODG edges visited   %d/%d (%.1f%%)\n\
    \  ODG nodes visited   %d/%d\n\
    \  action entropy      %.3f bits (max %.3f over %d actions)\n\
    \  state sketch        %d/%d buckets occupied\n"
    t.steps t.episodes (edges_visited t) (edge_count t) (edge_pct t)
    (nodes_visited t) (node_count t) (entropy t)
    (Float.log2 (float_of_int t.n_actions))
    t.n_actions (sketch_occupied t) (1 lsl t.sketch_bits);
  (match top_edges t ~k:top with
   | [] -> Buffer.add_string buf "no visited edges\n"
   | edges ->
     let tbl =
       Tbl.create ~title:"hottest ODG edges (coverage.json)"
         ~headers:[ "edge"; "visits"; "mean r"; "mean binsize"; "mean throughput" ]
         ~aligns:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
         ()
     in
     List.iter
       (fun (u, v, count, r, rb, rt) ->
         let mean x = Printf.sprintf "%.3f" (x /. float_of_int count) in
         Tbl.add_row tbl
           [ Printf.sprintf "%s -> %s" t.universe.nodes.(u) t.universe.nodes.(v);
             string_of_int count; mean r; mean rb; mean rt ])
       edges;
     Buffer.add_string buf (Tbl.render tbl));
  (match top_transitions t ~k:top with
   | [] -> ()
   | trans ->
     let tbl =
       Tbl.create ~title:"top action transitions" ~headers:[ "from"; "to"; "count" ]
         ~aligns:[ Tbl.Right; Tbl.Right; Tbl.Right ] ()
     in
     List.iter
       (fun (a, b, count) ->
         Tbl.add_row tbl [ string_of_int a; string_of_int b; string_of_int count ])
       trans;
     Buffer.add_string buf (Tbl.render tbl));
  Buffer.contents buf

(* The coverage line of `posetrl runs compare`: edge coverage, entropy
   and nodes, base -> candidate. Informational, like the attribution shift. *)
let render_shift ~base:(b : t) ~cand:(c : t) : string =
  Printf.sprintf
    "coverage: edges %.1f%% -> %.1f%% (%+.1f pts)  entropy %.3f -> %.3f \
     bits (%+.3f)  nodes %d -> %d\n"
    (edge_pct b) (edge_pct c) (edge_pct c -. edge_pct b) (entropy b) (entropy c)
    (entropy c -. entropy b) (nodes_visited b) (nodes_visited c)

(* --- heat-annotated ODG rendering ----------------------------------------- *)

(* Same structure as [Posetrl_odg.Graph.to_dot] (header, critical-node
   styling by degree ≥ k), with visit heat on the edges: colour ramps
   grey → red and penwidth grows with log-scaled count; edges in the
   universe that training never crossed render dashed light-grey. *)
let to_dot ?(k = 8) (t : t) : string =
  let u = t.universe in
  let deg = Array.make (Array.length u.nodes) 0 in
  Array.iter
    (fun (a, b) ->
      deg.(a) <- deg.(a) + 1;
      deg.(b) <- deg.(b) + 1)
    u.edges;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph odg {\n  rankdir=LR;\n";
  Array.iteri
    (fun i n ->
      if deg.(i) >= k then
        Buffer.add_string buf
          (Printf.sprintf "  \"%s\" [shape=doublecircle,style=bold];\n" n)
      else Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" n))
    u.nodes;
  let max_c = Array.fold_left (fun acc c -> max acc c.e_count) 0 t.edge_cells in
  Array.iteri
    (fun i (a, b) ->
      let c = t.edge_cells.(i).e_count in
      if c = 0 then
        Buffer.add_string buf
          (Printf.sprintf "  \"%s\" -> \"%s\" [style=dashed,color=\"#cccccc\"];\n"
             u.nodes.(a) u.nodes.(b))
      else begin
        let frac =
          if max_c <= 0 then 0.0
          else log (1.0 +. float_of_int c) /. log (1.0 +. float_of_int max_c)
        in
        let lerp lo hi =
          int_of_float (float_of_int lo +. (frac *. float_of_int (hi - lo)))
        in
        let color =
          Printf.sprintf "#%02x%02x%02x" (lerp 0x96 0xcc) (lerp 0x96 0x00)
            (lerp 0x96 0x00)
        in
        Buffer.add_string buf
          (Printf.sprintf
             "  \"%s\" -> \"%s\" [color=\"%s\",penwidth=%.2f,label=\"%d\"];\n"
             u.nodes.(a) u.nodes.(b) color
             (1.0 +. (3.0 *. frac))
             c)
      end)
    u.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
