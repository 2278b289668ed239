(* Streaming per-action reward attribution (the AutoPhase-style "which
   passes carry the reward" analysis, made always-on).

   The trainer feeds every environment step's (action, position, reward,
   r_binsize, r_throughput) into a table of per-action cells; the totals
   are plain float sums over the step stream in program order, so the
   table is byte-deterministic per seed, and [Obs.Fold.recompute]
   rebuilds it from the run ledger's episode records, which the tests
   hold exactly equal to the streaming table.
   The module is an [Obs.Fold.S].

   Metric exposure is opt-in per table ([registry]): the trainer's table
   publishes the posetrl.attrib.reward_total labeled gauge; recomputed
   tables (tests, `posetrl runs show`) stay silent. *)

module Obs = Posetrl_obs
module Tbl = Posetrl_support.Table

type cell = {
  mutable count : int;
  mutable total_reward : float;
  mutable total_binsize : float;
  mutable total_throughput : float;
  positions : int array;   (* selections at schedule position p (clamped) *)
}

type t = {
  n_actions : int;
  max_pos : int;
  cells : cell array;
  mutable steps : int;
  labels : string array;   (* per-action pass list as attrib.json stores it *)
  metrics : Obs.Metrics.gauge array option;
  (* per-action posetrl.attrib.reward_total; the per-action count is
     posetrl.train.action_selected, which the trainer publishes *)
}

let fresh_cell max_pos =
  { count = 0;
    total_reward = 0.0;
    total_binsize = 0.0;
    total_throughput = 0.0;
    positions = Array.make max_pos 0 }

let create ?registry ?(labels = fun _ -> "") ~(n_actions : int)
    ~(max_pos : int) () : t =
  if n_actions <= 0 then invalid_arg "Attrib.create: n_actions must be positive";
  let max_pos = max 1 max_pos in
  let metrics =
    Option.map
      (fun r ->
        Array.init n_actions (fun i ->
            Obs.Metrics.gauge ~r
              ~labels:[ ("action", string_of_int i) ]
              "posetrl.attrib.reward_total"))
      registry
  in
  { n_actions;
    max_pos;
    cells = Array.init n_actions (fun _ -> fresh_cell max_pos);
    steps = 0;
    labels = Array.init n_actions labels;
    metrics }

let n_actions (t : t) = t.n_actions
let steps (t : t) = t.steps

let observe (t : t) ~(action : int) ~(pos : int) ~(reward : float)
    ~(r_binsize : float) ~(r_throughput : float) : unit =
  if action < 0 || action >= t.n_actions then
    invalid_arg "Attrib.observe: action out of range";
  let c = t.cells.(action) in
  c.count <- c.count + 1;
  c.total_reward <- c.total_reward +. reward;
  c.total_binsize <- c.total_binsize +. r_binsize;
  c.total_throughput <- c.total_throughput +. r_throughput;
  let p = if pos < 0 then 0 else min pos (t.max_pos - 1) in
  c.positions.(p) <- c.positions.(p) + 1;
  t.steps <- t.steps + 1;
  match t.metrics with
  | None -> ()
  | Some gauges -> Obs.Metrics.set gauges.(action) c.total_reward

let count (t : t) (a : int) = t.cells.(a).count
let total_reward (t : t) (a : int) = t.cells.(a).total_reward
let total_binsize (t : t) (a : int) = t.cells.(a).total_binsize
let total_throughput (t : t) (a : int) = t.cells.(a).total_throughput
let positions (t : t) (a : int) = Array.copy t.cells.(a).positions

let mean_reward (t : t) (a : int) =
  let c = t.cells.(a) in
  if c.count = 0 then 0.0 else c.total_reward /. float_of_int c.count

(* the schedule position this action is most often taken at *)
let top_position (t : t) (a : int) : int option =
  let c = t.cells.(a) in
  if c.count = 0 then None
  else begin
    let best = ref 0 in
    Array.iteri
      (fun p n -> if n > c.positions.(!best) then best := p)
      c.positions;
    Some !best
  end

(* --- persistence (attrib.json) ------------------------------------------- *)

let to_json (t : t) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [ ("kind", Str "attrib");
      ("n_actions", Int t.n_actions);
      ("max_pos", Int t.max_pos);
      ("steps", Int t.steps);
      ("actions",
       Arr
         (List.init t.n_actions (fun a ->
              let c = t.cells.(a) in
              Obj
                [ ("action", Int a);
                  ("passes", Str t.labels.(a));
                  ("count", Int c.count);
                  ("reward_total", Float c.total_reward);
                  ("reward_mean", Float (mean_reward t a));
                  ("r_binsize_total", Float c.total_binsize);
                  ("r_throughput_total", Float c.total_throughput);
                  ("positions",
                   Arr (Array.to_list (Array.map (fun n -> Int n) c.positions)))
                ]))) ]

(* exact equality of the two attrib.json documents — the determinism and
   recompute contract is float-for-float, not approximate *)
let equal (a : t) (b : t) : bool = Obs.Json.equal (to_json a) (to_json b)

(* Total reader: attrib.json is ledger data and may be torn or from
   another version. Every entry is decoded and its positions checked
   against [max_pos] before the table exists, so a size the document
   declares but does not hold allocates nothing. *)
let of_json : Obs.Json.t -> t option =
  let open Obs.Json in
  decode (fun doc ->
      let max_pos = int (field "max_pos" doc) in
      let entry a e =
        let positions = array int (field "positions" e) in
        if int (field "action" e) <> a || Array.length positions <> max_pos then
          raise Decode;
        ( string (field "passes" e),
          { count = int (field "count" e);
            total_reward = float (field "reward_total" e);
            total_binsize = float (field "r_binsize_total" e);
            total_throughput = float (field "r_throughput_total" e);
            positions } )
      in
      let entries =
        Array.of_list (List.mapi entry (list Fun.id (field "actions" doc)))
      in
      let n_actions = Array.length entries in
      if string (field "kind" doc) <> "attrib" || max_pos <= 0 || n_actions = 0
         || int (field "n_actions" doc) <> n_actions
      then raise Decode;
      { n_actions;
        max_pos;
        cells = Array.map snd entries;
        steps = int (field "steps" doc);
        labels = Array.map fst entries;
        metrics = None })

(* --- rendering (posetrl runs show, posetrl runs compare) ------------------- *)

(* The attribution table of `posetrl runs show`: the [top] selected actions
   by total reward, with their reward split, most frequent schedule
   position and pass labels. *)
let render ~(top : int) (t : t) : string =
  let taken =
    List.init t.n_actions Fun.id
    |> List.filter (fun a -> count t a > 0)
    |> List.sort (fun a b -> compare (total_reward t b) (total_reward t a))
  in
  let tbl =
    Tbl.create ~title:"reward attribution (attrib.json)"
      ~headers:[ "action"; "count"; "reward"; "mean"; "binsize"; "throughput";
                 "top pos"; "passes" ]
      ~aligns:[ Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right;
                Tbl.Right; Tbl.Right; Tbl.Left ]
      ()
  in
  List.iteri
    (fun i a ->
      if i < top then
        Tbl.add_row tbl
          [ string_of_int a;
            string_of_int (count t a);
            Printf.sprintf "%.3f" (total_reward t a);
            Printf.sprintf "%.3f" (mean_reward t a);
            Printf.sprintf "%.3f" (total_binsize t a);
            Printf.sprintf "%.3f" (total_throughput t a);
            Option.fold ~none:"-" ~some:string_of_int (top_position t a);
            t.labels.(a) ])
    taken;
  let hidden = List.length taken - top in
  Printf.sprintf "\nper-action reward attribution (%d steps):\n%s%s" t.steps
    (Tbl.render tbl)
    (if hidden > 0 then
       Printf.sprintf "  (%d more actions with selections not shown)\n" hidden
     else "")

(* The attribution section of `posetrl runs compare`: the 15 actions
   whose total reward moved most between two runs. Informational: a
   shift explains a reward delta, it does not gate it. *)
let render_shift ~base:(b : t) ~cand:(c : t) : string =
  let shift a = total_reward c a -. total_reward b a in
  let tbl =
    Tbl.create ~title:"per-action reward attribution (base vs candidate)"
      ~headers:[ "action"; "count b/c"; "reward base"; "reward cand"; "shift" ]
      ~aligns:[ Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
      ()
  in
  List.init (min b.n_actions c.n_actions) Fun.id
  |> List.filter (fun a -> count b a > 0 || count c a > 0)
  |> List.sort (fun x y -> compare (Float.abs (shift y)) (Float.abs (shift x)))
  |> List.iteri (fun i a ->
         if i < 15 then
           Tbl.add_row tbl
             [ string_of_int a;
               Printf.sprintf "%d/%d" (count b a) (count c a);
               Printf.sprintf "%.3f" (total_reward b a);
               Printf.sprintf "%.3f" (total_reward c a);
               Printf.sprintf "%+.3f" (shift a) ]);
  Tbl.render tbl

(* --- the step-stream fold (Obs.Fold.S) ---------------------------------------- *)

let name = "attribution"
let file = "attrib.json"
let stream = "episode"
let missing = "per-step rewards (pre-attribution ledger)"

let observe_step (t : t) (s : Obs.Fold.step) : unit =
  observe t ~action:s.action ~pos:s.pos ~reward:s.reward ~r_binsize:s.r_binsize
    ~r_throughput:s.r_throughput

let sample (_ : t) ~step:_ = ()

let fresh (t : t) : t =
  create ~labels:(Array.get t.labels) ~n_actions:t.n_actions ~max_pos:t.max_pos ()

let summary (_ : t) = ("", [])
