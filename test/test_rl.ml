(* Tests for the RL substrate: replay buffer, schedule, the DDQN
   learning simple known-optimal environments, the batched DQN calls
   against per-sample references, and the learner against Dqn_ref. *)

open Posetrl_support
module Rl = Posetrl_rl
module Mlp = Posetrl_nn.Mlp
module Layer = Posetrl_nn.Layer
module Matrix = Posetrl_nn.Matrix
module Metrics = Posetrl_obs.Metrics

let tr s a r ns =
  { Rl.Replay.state = s; action = a; reward = r; next_state = ns }

let test_replay_ring () =
  let buf = Rl.Replay.create 3 in
  Alcotest.(check int) "empty" 0 (Rl.Replay.size buf);
  for k = 1 to 5 do
    Rl.Replay.push buf (tr [| float_of_int k |] 0 0.0 None)
  done;
  Alcotest.(check int) "capped at capacity" 3 (Rl.Replay.size buf)

let test_replay_sample () =
  let buf = Rl.Replay.create 8 in
  for k = 1 to 8 do
    Rl.Replay.push buf (tr [| float_of_int k |] k 0.0 None)
  done;
  let rng = Rng.create 1 in
  let batch = Rl.Replay.sample rng buf 32 in
  Alcotest.(check int) "batch size" 32 (Array.length batch);
  Array.iter
    (fun t ->
      Alcotest.(check bool) "valid action" true (t.Rl.Replay.action >= 1 && t.Rl.Replay.action <= 8))
    batch

let test_schedule_anneal () =
  let s = Rl.Schedule.create ~start:1.0 ~stop:0.01 ~decay_steps:100 () in
  Alcotest.(check (float 1e-9)) "start" 1.0 (Rl.Schedule.value s 0);
  Alcotest.(check (float 1e-9)) "end" 0.01 (Rl.Schedule.value s 100);
  Alcotest.(check (float 1e-9)) "beyond" 0.01 (Rl.Schedule.value s 10_000);
  let mid = Rl.Schedule.value s 50 in
  Alcotest.(check bool) "monotone" true (mid < 1.0 && mid > 0.01)

let test_schedule_paper_default () =
  Alcotest.(check (float 1e-9)) "paper start" 1.0
    (Rl.Schedule.value Rl.Schedule.paper_default 0);
  Alcotest.(check (float 1e-9)) "paper end" 0.01
    (Rl.Schedule.value Rl.Schedule.paper_default 20_000)

(* contextual bandit: state identifies which arm pays; the agent must
   learn state-dependent greedy actions *)
let test_dqn_learns_contextual_bandit () =
  let rng = Rng.create 11 in
  let agent = Rl.Dqn.create ~gamma:0.0 ~lr:0.01 rng ~state_dim:2 ~hidden:[ 16 ] ~n_actions:2 in
  let buf = Rl.Replay.create 512 in
  let states = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  (* state 0 pays on action 1; state 1 pays on action 0 *)
  for step = 1 to 2500 do
    let s_idx = Rng.int rng 2 in
    let s = states.(s_idx) in
    let a = Rl.Dqn.select_action agent rng ~epsilon:0.3 s in
    let r = if (s_idx = 0 && a = 1) || (s_idx = 1 && a = 0) then 1.0 else 0.0 in
    Rl.Replay.push buf (tr s a r None);
    if step > 64 && step mod 2 = 0 then
      ignore (Rl.Dqn.train_batch agent (Rl.Replay.sample rng buf 16))
  done;
  Alcotest.(check int) "state0 -> action1" 1 (Rl.Dqn.greedy_action agent states.(0));
  Alcotest.(check int) "state1 -> action0" 0 (Rl.Dqn.greedy_action agent states.(1))

(* 3-step chain MDP where the delayed reward requires bootstrapping:
   states s0 -> s1 -> s2(terminal, reward 1) only via action 0 *)
let test_dqn_bootstraps_chain () =
  let rng = Rng.create 21 in
  let agent =
    Rl.Dqn.create ~gamma:0.9 ~lr:0.01 rng ~state_dim:3 ~hidden:[ 16 ] ~n_actions:2
  in
  let buf = Rl.Replay.create 1024 in
  let state k = Array.init 3 (fun j -> if j = k then 1.0 else 0.0) in
  for step = 1 to 4000 do
    (* generate an episode with epsilon-greedy *)
    let rec play k =
      if k < 2 then begin
        let s = state k in
        let a = Rl.Dqn.select_action agent rng ~epsilon:0.4 s in
        if a = 0 then begin
          let terminal = k + 1 = 2 in
          let r = if terminal then 1.0 else 0.0 in
          Rl.Replay.push buf
            (tr s a r (if terminal then None else Some (state (k + 1))));
          play (k + 1)
        end
        else Rl.Replay.push buf (tr s a 0.0 None) (* falls off: episode over *)
      end
    in
    play 0;
    if step > 64 && step mod 2 = 0 then
      ignore (Rl.Dqn.train_batch agent (Rl.Replay.sample rng buf 16));
    if step mod 100 = 0 then Rl.Dqn.sync_target agent
  done;
  Alcotest.(check int) "s0 continues" 0 (Rl.Dqn.greedy_action agent (state 0));
  Alcotest.(check int) "s1 continues" 0 (Rl.Dqn.greedy_action agent (state 1));
  (* the value of s0 must reflect the discounted future reward *)
  let q = (Rl.Dqn.q_values agent (state 0)).(0) in
  Alcotest.(check bool) (Printf.sprintf "q(s0,continue)=%.3f near 0.9" q) true
    (q > 0.5 && q < 1.3)

let test_double_dqn_uses_online_selection () =
  (* structural check: double and vanilla targets differ when online and
     target networks disagree on the best next action *)
  let rng = Rng.create 33 in
  let agent = Rl.Dqn.create ~gamma:1.0 ~lr:0.01 ~double:true rng ~state_dim:2 ~hidden:[ 4 ] ~n_actions:2 in
  (* drift the online net away from the target without syncing *)
  let buf = Rl.Replay.create 64 in
  let s = [| 1.0; -1.0 |] in
  for _ = 1 to 32 do
    Rl.Replay.push buf (tr s 0 1.0 (Some s))
  done;
  for _ = 1 to 50 do
    ignore (Rl.Dqn.train_batch agent (Rl.Replay.sample rng buf 8))
  done;
  (* both flavours produce finite targets; smoke check via training loss *)
  let loss = Rl.Dqn.train_batch agent (Rl.Replay.sample rng buf 8) in
  Alcotest.(check bool) "finite loss" true (Float.is_finite loss)

(* --- batched calls against per-sample references ------------------------- *)

let same_bits (x : float) (y : float) = Int64.bits_of_float x = Int64.bits_of_float y

(* Per-transition TD target: one forward per network per next state. *)
let ref_td_target (t : Rl.Dqn.t) (tr : Rl.Replay.transition) : float =
  match tr.Rl.Replay.next_state with
  | None -> tr.Rl.Replay.reward
  | Some s' ->
    let future =
      if t.Rl.Dqn.double then begin
        (* online net picks a'; target net scores it *)
        let a' = Vecf.argmax (Mlp.forward t.Rl.Dqn.online s') in
        (Mlp.forward t.Rl.Dqn.target s').(a')
      end
      else Vecf.max_elt (Mlp.forward t.Rl.Dqn.target s')
    in
    tr.Rl.Replay.reward +. (t.Rl.Dqn.gamma *. future)

(* An agent whose online network differs from its target network, so
   double and vanilla DQN pick different next actions. *)
let drifted_agent ~double seed =
  let rng = Rng.create seed in
  let agent =
    Rl.Dqn.create ~gamma:0.9 ~double rng ~state_dim:7 ~hidden:[ 10; 6 ] ~n_actions:5
  in
  Mlp.copy_params ~src:(Mlp.create rng [ 7; 10; 6; 5 ]) ~dst:agent.Rl.Dqn.online;
  agent

let random_state rng = Array.init 7 (fun _ -> Rng.normal rng)

(* (seed, batch size, double) *)
let gen_td_case =
  QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 40) bool)

let prop_td_targets_match_reference =
  QCheck2.Test.make ~count:30
    ~print:(fun (seed, n, double) -> Printf.sprintf "seed=%d n=%d double=%b" seed n double)
    ~name:"td_targets = map of per-transition td_target (exact floats)" gen_td_case
    (fun (seed, n, double) ->
      let rng = Rng.create (seed + 1) in
      (* about a quarter of the transitions are terminal *)
      let batch =
        Array.init n (fun _ ->
            tr (random_state rng) (Rng.int rng 5) (Rng.normal rng)
              (if Rng.float rng < 0.25 then None else Some (random_state rng)))
      in
      let agent = drifted_agent ~double seed in
      let got = Dqn_ref.td_targets agent batch in
      Array.length got = n
      && Array.for_all2 same_bits got (Array.map (ref_td_target agent) batch))

(* --- the learner against the reference ------------------------------------

   [Rl.Dqn.train_batch] computes each distinct row once: one online
   forward over the batch's distinct states and next states, and the
   target net's rows memoized until the next sync. Dqn_ref keeps the
   learner that ran every row. Both must train to the same bits. *)

let net_bits (net : Mlp.t) : int64 list =
  Array.to_list net.Mlp.layers
  |> List.concat_map (fun (l : Layer.t) ->
         Array.to_list l.Layer.w.Matrix.data @ Array.to_list l.Layer.b)
  |> List.map Int64.bits_of_float

(* Rows chosen to repeat: a few base states, bit-equal copies of them,
   and a state whose 0.0 entry is -0.0 in its twin. *)
let state_pool rng =
  let base = Array.init 5 (fun _ -> random_state rng) in
  let zero = random_state rng in
  zero.(3) <- 0.0;
  let neg_zero = Array.copy zero in
  neg_zero.(3) <- -0.0;
  Array.concat [ base; Array.map Array.copy base; [| zero; neg_zero |] ]

(* Duplicated states, next states that are the state itself (a no-op
   step), copies and terminal transitions, all in one batch. *)
let planted_batch rng pool n =
  let pick () = pool.(Rng.int rng (Array.length pool)) in
  Array.init n (fun _ ->
      let s = pick () in
      let next =
        match Rng.int rng 4 with
        | 0 -> None
        | 1 -> Some s
        | 2 -> Some (Array.copy s)
        | _ -> Some (pick ())
      in
      tr s (Rng.int rng 5) (Rng.normal rng) next)

(* (seed, double) *)
let prop_learner_matches_reference =
  QCheck2.Test.make ~count:25
    ~print:(fun (seed, double) -> Printf.sprintf "seed=%d double=%b" seed double)
    ~name:"train_batch = reference learner (loss and weight bits)"
    QCheck2.Gen.(pair (int_range 0 10_000) bool)
    (fun (seed, double) ->
      let path = Filename.temp_file "posetrl" ".weights" in
      Rl.Dqn.save_weights (drifted_agent ~double (seed + 7)) path;
      let agent = drifted_agent ~double seed in
      let reference = drifted_agent ~double seed in
      let rng = Rng.create (seed + 1) in
      let pool = state_pool rng in
      let ok =
        List.for_all
          (fun step ->
            (* a sync and a load between batches: both must forget the
               memoized target rows *)
            if step = 4 then List.iter Rl.Dqn.sync_target [ agent; reference ];
            if step = 7 then
              List.iter (fun a -> Rl.Dqn.load_weights a path) [ agent; reference ];
            let batch = planted_batch rng pool (1 + Rng.int rng 40) in
            let got = Rl.Dqn.train_batch agent batch in
            let want = Dqn_ref.train_batch reference batch in
            same_bits got want
            && net_bits agent.Rl.Dqn.online = net_bits reference.Rl.Dqn.online
            && net_bits agent.Rl.Dqn.target = net_bits reference.Rl.Dqn.target)
          (List.init 10 Fun.id)
      in
      Sys.remove path;
      ok)

let counter name = Option.value ~default:0.0 (Metrics.value name)

(* Rows are distinct by their bits: copies merge, a -0.0 entry does not. *)
let test_learner_counts_distinct_rows () =
  let agent = drifted_agent ~double:true 11 in
  let rng = Rng.create 12 in
  let a = random_state rng and b = random_state rng and c = random_state rng in
  a.(0) <- 0.0;
  let a_neg = Array.copy a in
  a_neg.(0) <- -0.0;
  let batch =
    [| tr a 0 1.0 (Some a);
       tr (Array.copy a) 1 0.5 None;
       tr b 2 0.0 (Some c);
       tr a_neg 3 (-1.0) (Some (Array.copy c));
       tr b 4 0.2 (Some b) |]
  in
  let run () =
    let rows = counter "posetrl.dqn.learner_rows"
    and hits = counter "posetrl.dqn.target_memo_hits" in
    ignore (Rl.Dqn.train_batch agent batch);
    ( counter "posetrl.dqn.learner_rows" -. rows,
      counter "posetrl.dqn.target_memo_hits" -. hits )
  in
  (* online: a, b, a_neg, c; target: a, c, b *)
  Alcotest.(check (pair (float 0.0) (float 0.0))) "first batch: rows, hits" (7.0, 0.0)
    (run ());
  Alcotest.(check (pair (float 0.0) (float 0.0))) "again: the target rows are memoized"
    (4.0, 3.0) (run ());
  Rl.Dqn.sync_target agent;
  Alcotest.(check (pair (float 0.0) (float 0.0))) "after a sync: computed again" (7.0, 0.0)
    (run ())

(* The memo holds 4,096 rows, and is emptied before it would grow past. *)
let test_target_memo_cap () =
  let agent = drifted_agent ~double:false 13 in
  let rng = Rng.create 14 in
  let s = random_state rng in
  let fill = Array.init 4096 (fun _ -> tr s 0 0.0 (Some (random_state rng))) in
  let hits batch =
    let before = counter "posetrl.dqn.target_memo_hits" in
    ignore (Rl.Dqn.train_batch agent batch);
    counter "posetrl.dqn.target_memo_hits" -. before
  in
  let first = fill.(0) in
  let fresh = tr s 0 0.0 (Some (random_state rng)) in
  Alcotest.(check (float 0.0)) "4,096 misses" 0.0 (hits fill);
  Alcotest.(check (float 0.0)) "a full memo keeps its first row" 1.0 (hits [| first |]);
  Alcotest.(check (float 0.0)) "the 4,097th row is a miss" 0.0 (hits [| fresh |]);
  Alcotest.(check (float 0.0)) "which emptied the memo" 0.0 (hits [| first |]);
  Alcotest.(check (float 0.0)) "and the memo goes on" 1.0 (hits [| fresh |])

let test_greedy_actions_match_greedy_action () =
  let agent = drifted_agent ~double:true 4 in
  let rng = Rng.create 5 in
  let states = Array.init 9 (fun _ -> random_state rng) in
  let forwards () = Option.value ~default:0.0 (Metrics.value "posetrl.dqn.forwards") in
  let before = forwards () in
  let got = Rl.Dqn.greedy_actions agent states in
  Alcotest.(check (float 0.0)) "one forward counted per row" 9.0 (forwards () -. before);
  let gauge name = Option.get (Metrics.value name) in
  let q_mean = gauge "posetrl.dqn.q_mean" and q_max = gauge "posetrl.dqn.q_max" in
  (* the last row's gauges, as a loop of greedy_action leaves them *)
  ignore (Rl.Dqn.greedy_action agent states.(0));
  ignore (Rl.Dqn.greedy_action agent states.(8));
  Alcotest.(check bool) "q_mean is the last row's" true
    (same_bits q_mean (gauge "posetrl.dqn.q_mean"));
  Alcotest.(check bool) "q_max is the last row's" true
    (same_bits q_max (gauge "posetrl.dqn.q_max"));
  Alcotest.(check (array int)) "each row's greedy action"
    (Array.map (Rl.Dqn.greedy_action agent) states) got;
  Alcotest.(check (array int)) "no rows, no actions" [||]
    (Rl.Dqn.greedy_actions agent [||])

let test_save_load_weights () =
  let rng = Rng.create 9 in
  let a = Rl.Dqn.create rng ~state_dim:4 ~hidden:[ 8 ] ~n_actions:3 in
  let path = Filename.temp_file "posetrl" ".weights" in
  Rl.Dqn.save_weights a path;
  let rng2 = Rng.create 10 in
  let b = Rl.Dqn.create rng2 ~state_dim:4 ~hidden:[ 8 ] ~n_actions:3 in
  Rl.Dqn.load_weights b path;
  Sys.remove path;
  let x = [| 0.1; 0.2; 0.3; 0.4 |] in
  let qa = Rl.Dqn.q_values a x and qb = Rl.Dqn.q_values b x in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-9)) (Printf.sprintf "q[%d]" i) v qb.(i))
    qa

(* A saved file with one line rewritten: [edit] maps (line index, line)
   to the replacement lines. Returns the path of the edited copy. *)
let edited_weights (a : Rl.Dqn.t) edit =
  let path = Filename.temp_file "posetrl" ".weights" in
  Rl.Dqn.save_weights a path;
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i l -> edit i l)
    |> List.concat
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (String.concat "\n" lines));
  path

(* The load must fail with a message naming [expect], and leave the
   target agent's weights as they were. *)
let check_rejected ~expect path =
  let b = Rl.Dqn.create (Rng.create 10) ~state_dim:4 ~hidden:[ 8 ] ~n_actions:34 in
  let x = [| 0.1; 0.2; 0.3; 0.4 |] in
  let before = Rl.Dqn.q_values b x in
  let msg =
    match Rl.Dqn.load_weights b path with
    | () -> "loaded"
    | exception Failure m -> m
  in
  Sys.remove path;
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) (Printf.sprintf "%S names %S" msg expect) true (contains msg expect);
  Alcotest.(check bool) "weights untouched" true (Rl.Dqn.q_values b x = before)

(* Lines: 0 header, 1 sizes, then weights/biases per layer: layer 0 is
   lines 2/3, layer 1 (the 34-way output) lines 4/5. *)
let test_load_rejects_truncated () =
  let a = Rl.Dqn.create (Rng.create 9) ~state_dim:4 ~hidden:[ 8 ] ~n_actions:34 in
  let keep_first k line =
    String.split_on_char ' ' (String.trim line)
    |> List.filteri (fun i _ -> i < k)
    |> String.concat " "
  in
  (* the last bias line loses 17 of its 34 values *)
  check_rejected ~expect:"layer 1 biases: 17 values, expected 34"
    (edited_weights a (fun i l -> if i = 5 then [ keep_first 17 l ] else [ l ]));
  (* the file stops after layer 0 *)
  check_rejected ~expect:"file ends before layer 1 weights"
    (edited_weights a (fun i l -> if i >= 4 then [] else [ l ]))

let test_load_rejects_extra_values () =
  let a = Rl.Dqn.create (Rng.create 9) ~state_dim:4 ~hidden:[ 8 ] ~n_actions:34 in
  (* one value too many on layer 0's weight line *)
  check_rejected ~expect:"layer 0 weights: 33 values, expected 32"
    (edited_weights a (fun i l -> if i = 2 then [ l ^ " 0x1p+0" ] else [ l ]));
  (* a whole extra line after the last layer *)
  check_rejected ~expect:"unexpected data after the last layer"
    (edited_weights a (fun i l -> if i = 5 then [ l; "0x1p+0" ] else [ l ]))

let suite =
  [ Alcotest.test_case "replay ring" `Quick test_replay_ring;
    Alcotest.test_case "replay sample" `Quick test_replay_sample;
    Alcotest.test_case "schedule anneal" `Quick test_schedule_anneal;
    Alcotest.test_case "schedule paper default" `Quick test_schedule_paper_default;
    Alcotest.test_case "dqn contextual bandit" `Quick test_dqn_learns_contextual_bandit;
    Alcotest.test_case "dqn bootstraps chain" `Quick test_dqn_bootstraps_chain;
    Alcotest.test_case "double dqn smoke" `Quick test_double_dqn_uses_online_selection;
    Alcotest.test_case "save/load weights" `Quick test_save_load_weights;
    Alcotest.test_case "load rejects truncated weights" `Quick
      test_load_rejects_truncated;
    Alcotest.test_case "load rejects extra values" `Quick
      test_load_rejects_extra_values;
    Alcotest.test_case "greedy_actions = map greedy_action" `Quick
      test_greedy_actions_match_greedy_action;
    QCheck_alcotest.to_alcotest prop_td_targets_match_reference;
    Alcotest.test_case "learner counts distinct rows" `Quick
      test_learner_counts_distinct_rows;
    Alcotest.test_case "target memo cap" `Quick test_target_memo_cap;
    QCheck_alcotest.to_alcotest prop_learner_matches_reference ]
