(* Streaming per-action reward attribution (the AutoPhase-style "which
   passes carry the reward" analysis, made always-on).

   The trainer feeds every environment step's (action, position, reward,
   r_binsize, r_throughput) into a table of per-action cells; the totals
   are plain float sums over the step stream in program order, so the
   table is byte-deterministic per seed — including under the domain
   pool, which never reorders the step stream (DESIGN.md §9). The same
   arithmetic is exposed as [of_records], a brute-force recompute from
   the run ledger's episode records, which the tests hold exactly equal
   to the streaming table.

   Metric exposure is opt-in per table ([registry]): the trainer's table
   publishes posetrl.attrib.* labeled series; recomputed tables (tests,
   `posetrl explain`) stay silent. *)

module Obs = Posetrl_obs

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
  metrics : (Obs.Metrics.counter * Obs.Metrics.gauge) array option;
  (* per-action (posetrl.attrib.count, posetrl.attrib.reward_total) *)
}

let fresh_cell max_pos =
  { count = 0;
    total_reward = 0.0;
    total_binsize = 0.0;
    total_throughput = 0.0;
    positions = Array.make max_pos 0 }

let create ?registry ~(n_actions : int) ~(max_pos : int) () : t =
  if n_actions <= 0 then invalid_arg "Attrib.create: n_actions must be positive";
  let max_pos = max 1 max_pos in
  let metrics =
    Option.map
      (fun r ->
        Array.init n_actions (fun i ->
            let labels = [ ("action", string_of_int i) ] in
            ( Obs.Metrics.counter ~r ~labels "posetrl.attrib.count",
              Obs.Metrics.gauge ~r ~labels "posetrl.attrib.reward_total" )))
      registry
  in
  { n_actions;
    max_pos;
    cells = Array.init n_actions (fun _ -> fresh_cell max_pos);
    steps = 0;
    metrics }

let n_actions (t : t) = t.n_actions
let max_pos (t : t) = t.max_pos
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
  | Some handles ->
    let ctr, g = handles.(action) in
    Obs.Metrics.inc ctr;
    Obs.Metrics.set g c.total_reward

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

(* exact structural equality — the determinism/recompute contract is
   float-for-float, not approximate *)
let equal (a : t) (b : t) : bool =
  a.n_actions = b.n_actions && a.max_pos = b.max_pos && a.steps = b.steps
  && Array.for_all2
       (fun (x : cell) (y : cell) ->
         x.count = y.count
         && Float.equal x.total_reward y.total_reward
         && Float.equal x.total_binsize y.total_binsize
         && Float.equal x.total_throughput y.total_throughput
         && x.positions = y.positions)
       a.cells b.cells

(* --- persistence (attrib.json) ------------------------------------------- *)

let to_json ?(labels = fun (_ : int) -> "") (t : t) : Obs.Json.t =
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
                  ("passes", Str (labels a));
                  ("count", Int c.count);
                  ("reward_total", Float c.total_reward);
                  ("reward_mean", Float (mean_reward t a));
                  ("r_binsize_total", Float c.total_binsize);
                  ("r_throughput_total", Float c.total_throughput);
                  ("positions",
                   Arr (Array.to_list (Array.map (fun n -> Int n) c.positions)))
                ]))) ]

(* Robust reader: anything structurally off yields [None], never an
   exception — attrib.json is ledger data and may be torn or from a
   different version. *)
let of_json (doc : Obs.Json.t) : t option =
  let open Obs.Json in
  let int_of = function Int i -> Some i | Float f -> Some (int_of_float f) | _ -> None in
  let float_of = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None in
  let member k j = Obs.Runlog.field k j in
  match
    ( Obs.Runlog.str "kind" doc,
      Option.bind (member "n_actions" doc) int_of,
      Option.bind (member "max_pos" doc) int_of,
      Option.bind (member "steps" doc) int_of,
      member "actions" doc )
  with
  | Some "attrib", Some n_actions, Some max_pos, Some steps, Some (Arr actions)
    when n_actions > 0 && max_pos > 0 && List.length actions = n_actions -> (
    let t = create ~n_actions ~max_pos () in
    t.steps <- steps;
    let ok = ref true in
    List.iter
      (fun entry ->
        match
          ( Option.bind (member "action" entry) int_of,
            Option.bind (member "count" entry) int_of,
            Option.bind (member "reward_total" entry) float_of,
            Option.bind (member "r_binsize_total" entry) float_of,
            Option.bind (member "r_throughput_total" entry) float_of,
            member "positions" entry )
        with
        | Some a, Some count, Some rt, Some rb, Some rth, Some (Arr ps)
          when a >= 0 && a < n_actions && List.length ps = max_pos ->
          let c = t.cells.(a) in
          c.count <- count;
          c.total_reward <- rt;
          c.total_binsize <- rb;
          c.total_throughput <- rth;
          List.iteri
            (fun p v ->
              match int_of v with
              | Some n -> c.positions.(p) <- n
              | None -> ok := false)
            ps
        | _ -> ok := false)
      actions;
    if !ok then Some t else None)
  | _ -> None

(* --- brute-force recompute from the run ledger ---------------------------- *)

let of_records ~(n_actions : int) ~(max_pos : int)
    (records : Obs.Json.t list) : t =
  let t = create ~n_actions ~max_pos () in
  Obs.Runlog.replay ~n_actions ~observe:(observe t)
    ~sample:(fun ~step:_ -> ()) records;
  t
