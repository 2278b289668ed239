(* Training-health watchdog and reward-attribution tests (DESIGN.md §12).

   The watchdog tests drive Health.check directly with hand-built
   samples — under Clock.with_fake where the stall rule is involved —
   and assert the edge-trigger contract: one alert per incident, silence
   on healthy runs. The attribution tests check the table's arithmetic,
   its attrib.json reader, its renderers, and that the trainer's table
   equals its ledger recompute. *)

module Obs = Posetrl_obs
module Rl = Posetrl_rl
module H = Obs.Health

(* a private registry per test so alert counters don't cross-talk *)
let engine ?config () =
  let r = Obs.Metrics.create () in
  (H.create ?config ~registry:r (), r)

let sample ?(step = 200) ?(episode = 10) ?(loss = 0.5) ?(mean_reward = 5.0)
    ?(q_max = 10.0) ?(replay_size = 100) ?(replay_capacity = 1000)
    ?(replay_age_mean = 100.0) ?(weights_finite = true)
    ?(actions = [| 5; 5; 5; 5 |]) () : H.sample =
  { H.s_step = step;
    s_episode = episode;
    s_loss = loss;
    s_mean_reward = mean_reward;
    s_q_max = q_max;
    s_replay_size = replay_size;
    s_replay_capacity = replay_capacity;
    s_replay_age_mean = replay_age_mean;
    s_weights_finite = weights_finite;
    s_actions = actions }

let rules_of = List.map (fun (a : H.alert) -> a.H.a_rule)

(* --- watchdog rules --------------------------------------------------------- *)

let test_healthy_run_silent () =
  let t, r = engine () in
  for i = 1 to 20 do
    let fired = H.check t (sample ~step:(i * 200) ~episode:(i * 13) ()) in
    Alcotest.(check (list string)) "no alerts" [] (rules_of fired)
  done;
  Alcotest.(check (list string)) "nothing retained" [] (rules_of (H.alerts t));
  List.iter
    (fun rule ->
      Alcotest.(check (option (float 0.0)))
        (rule ^ " counter untouched") None
        (Obs.Metrics.value ~r ~labels:[ ("rule", rule) ] "posetrl.alerts.total"))
    H.rules

let test_nan_loss_edge_trigger () =
  let t, _ = engine () in
  ignore (H.check t (sample ()));
  let fired = H.check t (sample ~loss:Float.nan ()) in
  Alcotest.(check (list string)) "nan fires" [ "nan_loss" ] (rules_of fired);
  Alcotest.(check string) "severity error" "error"
    (List.hd fired).H.a_severity;
  (* still broken: edge-triggered, so no second alert *)
  Alcotest.(check (list string)) "no re-fire while condition holds" []
    (rules_of (H.check t (sample ~loss:Float.infinity ())));
  (* recovers, then breaks again: a second incident, a second alert *)
  Alcotest.(check (list string)) "re-arms on clear" []
    (rules_of (H.check t (sample ())));
  Alcotest.(check (list string)) "second incident fires" [ "nan_loss" ]
    (rules_of (H.check t (sample ~weights_finite:false ())));
  Alcotest.(check int) "two retained" 2 (List.length (H.alerts t))

let test_reward_collapse () =
  let t, _ = engine () in
  Alcotest.(check (list string)) "building best" []
    (rules_of (H.check t (sample ~mean_reward:10.0 ())));
  Alcotest.(check (list string)) "small dip silent" []
    (rules_of (H.check t (sample ~mean_reward:7.0 ())));
  let fired = H.check t (sample ~mean_reward:2.0 ()) in
  Alcotest.(check (list string)) "collapse fires" [ "reward_collapse" ]
    (rules_of fired);
  Alcotest.(check bool) "message names the drop" true
    (let m = (List.hd fired).H.a_message in
     (* the message carries the current mean and the trailing best *)
     String.length m > 0
     && Option.is_some (String.index_opt m '%'))

let test_q_explosion () =
  let t, _ = engine () in
  Alcotest.(check (list string)) "sane q silent" []
    (rules_of (H.check t (sample ~q_max:1e5 ())));
  Alcotest.(check (list string)) "explosion fires" [ "q_explosion" ]
    (rules_of (H.check t (sample ~q_max:(-2e6) ())))

let test_stalled_episode_fake_clock () =
  Obs.Clock.with_fake (fun advance ->
      let t, _ = engine () in
      ignore (H.check t (sample ~episode:5 ()));
      advance 200.0;
      Alcotest.(check (list string)) "within stall_s" []
        (rules_of (H.check t (sample ~episode:5 ())));
      advance 150.0;
      let fired = H.check t (sample ~episode:5 ()) in
      Alcotest.(check (list string)) "stall fires after 350s" [ "stalled_episode" ]
        (rules_of fired);
      (* an episode completing resets the stall timer and re-arms *)
      ignore (H.check t (sample ~episode:6 ()));
      advance 100.0;
      Alcotest.(check (list string)) "fresh episode clears it" []
        (rules_of (H.check t (sample ~episode:6 ()))))

let test_replay_stale () =
  let t, _ = engine () in
  Alcotest.(check (list string)) "fresh replay silent" []
    (rules_of (H.check t (sample ~replay_age_mean:3000.0 ())));
  Alcotest.(check (list string)) "stale replay fires" [ "replay_stale" ]
    (rules_of
       (H.check t (sample ~replay_age_mean:5000.0 ~replay_capacity:1000 ())))

let test_action_drift () =
  let t, _ = engine () in
  let uniform = [| 25; 25; 25; 25 |] in
  ignore (H.check t (sample ~actions:uniform ()));
  Alcotest.(check (list string)) "same distribution silent" []
    (rules_of (H.check t (sample ~actions:uniform ())));
  Alcotest.(check (list string)) "mild shift silent" []
    (rules_of (H.check t (sample ~actions:[| 30; 25; 25; 20 |] ())));
  (* everything concentrates on one action: an abrupt policy shift *)
  let fired = H.check t (sample ~actions:[| 100; 0; 0; 0 |] ()) in
  Alcotest.(check (list string)) "abrupt shift fires" [ "action_drift" ]
    (rules_of fired);
  Alcotest.(check bool) "kl value above threshold" true
    ((List.hd fired).H.a_value > H.default_config.H.drift_kl)

let test_kl_basics () =
  Alcotest.(check (float 1e-9)) "identical histograms" 0.0
    (H.kl [| 10; 10 |] [| 10; 10 |]);
  Alcotest.(check bool) "divergent > 0" true (H.kl [| 100; 0 |] [| 0; 100 |] > 0.0);
  Alcotest.(check bool) "length mismatch zero-pads, stays finite" true
    (Float.is_finite (H.kl [| 5 |] [| 1; 2; 3 |]))

let test_max_alerts_cap () =
  let t, _ =
    engine ~config:{ H.default_config with H.max_alerts = 3 } ()
  in
  (* five incidents: break, recover, break... — retention caps at 3,
     newest kept *)
  for i = 1 to 5 do
    ignore (H.check t (sample ~step:(i * 2) ~loss:Float.nan ()));
    ignore (H.check t (sample ~step:((i * 2) + 1) ()))
  done;
  let retained = H.alerts t in
  Alcotest.(check int) "capped at 3" 3 (List.length retained);
  Alcotest.(check int) "newest retained" 10
    (List.fold_left (fun m (a : H.alert) -> max m a.H.a_step) 0 retained)

let test_alert_json_roundtrip () =
  let roundtrip (a : H.alert) =
    match H.alert_of_json (H.alert_to_json a) with
    | None -> Alcotest.fail "alert did not round-trip"
    | Some b ->
      Alcotest.(check string) "rule" a.H.a_rule b.H.a_rule;
      Alcotest.(check int) "step" a.H.a_step b.H.a_step;
      Alcotest.(check string) "severity" a.H.a_severity b.H.a_severity;
      Alcotest.(check string) "message" a.H.a_message b.H.a_message;
      if Float.is_nan a.H.a_value then
        Alcotest.(check bool) "nan value survives" true (Float.is_nan b.H.a_value)
      else Alcotest.(check (float 0.0)) "value" a.H.a_value b.H.a_value
  in
  roundtrip
    { H.a_rule = "q_explosion"; a_step = 400; a_severity = "error";
      a_message = "q_max 2e7 beyond 1e6"; a_value = 2e7 };
  (* the value the nan_loss rule exists to report: Json.Float would
     serialize it as null, the schema encodes it as "nan" *)
  roundtrip
    { H.a_rule = "nan_loss"; a_step = 200; a_severity = "error";
      a_message = "non-finite td_loss"; a_value = Float.nan };
  roundtrip
    { H.a_rule = "nan_loss"; a_step = 200; a_severity = "error";
      a_message = "inf"; a_value = Float.neg_infinity };
  Alcotest.(check bool) "garbage is None, not an exception" true
    (H.alert_of_json (Obs.Json.Str "nope") = None
     && H.alert_of_json (Obs.Json.Obj [ ("kind", Obs.Json.Str "alert") ]) = None)

(* --- attribution: unit ------------------------------------------------------- *)

let test_attrib_accumulates () =
  let t = Rl.Attrib.create ~n_actions:4 ~max_pos:5 () in
  Rl.Attrib.observe t ~action:2 ~pos:0 ~reward:1.5 ~r_binsize:0.5 ~r_throughput:0.2;
  Rl.Attrib.observe t ~action:2 ~pos:3 ~reward:(-0.5) ~r_binsize:0.25 ~r_throughput:(-0.15);
  Rl.Attrib.observe t ~action:0 ~pos:99 ~reward:2.0 ~r_binsize:0.0 ~r_throughput:0.4;
  Alcotest.(check int) "steps" 3 (Rl.Attrib.steps t);
  Alcotest.(check int) "count" 2 (Rl.Attrib.count t 2);
  Alcotest.(check (float 1e-12)) "reward total" 1.0 (Rl.Attrib.total_reward t 2);
  Alcotest.(check (float 1e-12)) "binsize total" 0.75 (Rl.Attrib.total_binsize t 2);
  Alcotest.(check (float 1e-12)) "mean" 0.5 (Rl.Attrib.mean_reward t 2);
  (* out-of-range positions clamp into the last bucket *)
  Alcotest.(check int) "pos clamped" 1 (Rl.Attrib.positions t 0).(4);
  Alcotest.(check (option int)) "top position" (Some 4) (Rl.Attrib.top_position t 0);
  Alcotest.(check (option int)) "unused action" None (Rl.Attrib.top_position t 1)

let test_attrib_json_roundtrip () =
  let t =
    Rl.Attrib.create ~labels:(fun a -> Printf.sprintf "p%d" a) ~n_actions:3
      ~max_pos:4 ()
  in
  Rl.Attrib.observe t ~action:1 ~pos:2 ~reward:0.1 ~r_binsize:0.30000000000000004
    ~r_throughput:(-1.25e-3);
  Rl.Attrib.observe t ~action:0 ~pos:0 ~reward:7.0 ~r_binsize:0.0 ~r_throughput:1.4;
  let doc = Rl.Attrib.to_json t in
  (* a serialize → parse → deserialize cycle through the %.17g printer
     must reproduce the table exactly *)
  match Rl.Attrib.of_json (Obs.Json.of_string (Obs.Json.to_string doc)) with
  | None -> Alcotest.fail "attrib did not round-trip"
  | Some t' ->
    Alcotest.(check bool) "exact equality after round-trip" true
      (Rl.Attrib.equal t t')

let test_attrib_of_json_robust () =
  let bad =
    [ Obs.Json.Str "x";
      Obs.Json.Obj [ ("kind", Obs.Json.Str "attrib") ];
      (* wrong actions arity vs n_actions *)
      Obs.Json.Obj
        [ ("kind", Obs.Json.Str "attrib");
          ("n_actions", Obs.Json.Int 2);
          ("max_pos", Obs.Json.Int 3);
          ("steps", Obs.Json.Int 0);
          ("actions", Obs.Json.Arr []) ] ]
  in
  List.iter
    (fun doc ->
      Alcotest.(check bool) "malformed doc is None" true
        (Rl.Attrib.of_json doc = None))
    bad

(* --- attribution: the bounded reader and the renderers ------------------------ *)

(* attrib.json declaring max_pos 4,000,000 over two actions whose
   position arrays hold one entry each: the reader must reject it
   without allocating the 64 MB of position cells the header declares *)
let test_attrib_of_json_bounded () =
  let entry a =
    Obs.Json.Obj
      [ ("action", Obs.Json.Int a); ("passes", Obs.Json.Str "");
        ("count", Obs.Json.Int 1); ("reward_total", Obs.Json.Float 1.0);
        ("reward_mean", Obs.Json.Float 1.0);
        ("r_binsize_total", Obs.Json.Float 0.5);
        ("r_throughput_total", Obs.Json.Float 0.5);
        ("positions", Obs.Json.Arr [ Obs.Json.Int 1 ]) ]
  in
  let text =
    Obs.Json.to_string
      (Obs.Json.Obj
         [ ("kind", Obs.Json.Str "attrib"); ("n_actions", Obs.Json.Int 2);
           ("max_pos", Obs.Json.Int 4_000_000); ("steps", Obs.Json.Int 2);
           ("actions", Obs.Json.Arr [ entry 0; entry 1 ]) ])
  in
  let read, bytes =
    Testutil.allocated (fun () -> Rl.Attrib.of_json (Obs.Json.of_string text))
  in
  Alcotest.(check bool) "invalid, as before" true (read = None);
  if bytes >= 16e6 then Alcotest.failf "reading allocated %.0f bytes" bytes

(* four actions (action 1 never taken), labels as attrib.json stores them *)
let attrib_fixture extra =
  let t =
    Rl.Attrib.create ~labels:(fun a -> Printf.sprintf "pass%d,dce" a)
      ~n_actions:4 ~max_pos:3 ()
  in
  List.iter
    (fun (action, pos, reward) ->
      Rl.Attrib.observe t ~action ~pos ~reward ~r_binsize:(reward /. 4.0)
        ~r_throughput:(reward /. 8.0))
    ([ (2, 0, 1.5); (2, 1, 0.5); (0, 2, -1.0); (3, 1, 3.0) ] @ extra);
  Option.get (Rl.Attrib.of_json (Rl.Attrib.to_json t))

let test_attrib_render_golden () =
  let base = attrib_fixture [] in
  let cand = attrib_fixture [ (0, 0, 4.0); (1, 5, -0.25) ] in
  Alcotest.(check string) "runs show attribution table"
    {|
per-action reward attribution (4 steps):
== reward attribution (attrib.json) ==
| action | count | reward |  mean | binsize | throughput | top pos | passes    |
|--------|-------|--------|-------|---------|------------|---------|-----------|
|      3 |     1 |  3.000 | 3.000 |   0.750 |      0.375 |       1 | pass3,dce |
|      2 |     2 |  2.000 | 1.000 |   0.500 |      0.250 |       0 | pass2,dce |
  (1 more actions with selections not shown)
|}
    (Rl.Attrib.render ~top:2 base);
  Alcotest.(check string) "runs compare attribution shift"
    {|== per-action reward attribution (base vs candidate) ==
| action | count b/c | reward base | reward cand |  shift |
|--------|-----------|-------------|-------------|--------|
|      0 |       1/2 |      -1.000 |       3.000 | +4.000 |
|      1 |       0/1 |       0.000 |      -0.250 | -0.250 |
|      2 |       2/2 |       2.000 |       2.000 | +0.000 |
|      3 |       1/1 |       3.000 |       3.000 | +0.000 |
|}
    (Rl.Attrib.render_shift ~base ~cand);
  Alcotest.(check string) "one side without data"
    {|attribution: no data on at least one side (pre-attribution run or unreadable attrib.json)
|}
    (Obs.Fold.shift (module Rl.Attrib) ~base:None ~cand:(Some cand))

let gen_reward =
  QCheck2.Gen.(frequency [ (9, float_range (-1e3) 1e3); (1, return Float.nan) ])

(* a streamed table (random observations, any position: clamped) and
   its attrib.json under random labels *)
let gen_attrib =
  QCheck2.Gen.(
    let* n_actions = int_range 1 5 and* max_pos = int_range 1 4 in
    let+ steps =
      list_size (int_range 0 30)
        (triple (int_bound (n_actions - 1)) (int_range (-1) 6)
           (pair gen_reward gen_reward))
    and+ labels =
      array_size (return n_actions) (string_size ~gen:printable (int_range 0 8))
    in
    let t = Rl.Attrib.create ~labels:(Array.get labels) ~n_actions ~max_pos () in
    List.iter
      (fun (action, pos, (reward, r_binsize)) ->
        Rl.Attrib.observe t ~action ~pos ~reward ~r_binsize
          ~r_throughput:(reward -. r_binsize))
      steps;
    (t, Rl.Attrib.to_json t))

let prop_attrib_reader =
  QCheck2.Test.make ~count:300
    ~print:(fun ((_, doc), seed) ->
        Printf.sprintf "%s, seed %d" (Obs.Json.to_string doc) seed)
    ~name:"attrib.json reads back equal, and is total under one mutation"
    QCheck2.Gen.(pair gen_attrib int)
    (fun ((t, doc), seed) ->
      (match Rl.Attrib.of_json (Testutil.reread doc) with
       | Some t' ->
         (* the labels too: the document writes back byte for byte *)
         Rl.Attrib.equal t t'
         && Obs.Json.to_string (Rl.Attrib.to_json t') = Obs.Json.to_string doc
       | None -> false)
      && Testutil.total_under_mutation Rl.Attrib.of_json doc seed)

let gen_alert =
  QCheck2.Gen.(
    let+ a_rule = oneofl H.rules
    and+ a_step = int_range 0 1_000_000
    and+ a_severity = oneofl [ "error"; "warn" ]
    and+ a_message = string_size ~gen:printable (int_range 0 30)
    and+ a_value =
      frequency
        [ (6, float);
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]) ]
    in
    { H.a_rule; a_step; a_severity; a_message; a_value })

let prop_alert_reader =
  QCheck2.Test.make ~count:300
    ~print:(fun (a, seed) ->
        Printf.sprintf "%s, seed %d" (Obs.Json.to_string (H.alert_to_json a)) seed)
    ~name:"alert records read back equal, and are total under one mutation"
    QCheck2.Gen.(pair gen_alert int)
    (fun (a, seed) ->
      let doc = H.alert_to_json a in
      (match H.alert_of_json (Testutil.reread doc) with
       | Some b -> compare a b = 0 (* compare: nan equals nan *)
       | None -> false)
      && Testutil.total_under_mutation H.alert_of_json doc seed)

(* --- attribution: streaming = recompute (the determinism property) ----------- *)

let prop_streaming_eq_recompute =
  Testutil.prop_folds_eq_recompute ~only:Rl.Attrib.name
    ~name:"streaming attribution = ledger recompute" ()

let suite =
  [ Alcotest.test_case "healthy run is silent" `Quick test_healthy_run_silent;
    Alcotest.test_case "nan_loss fires once per incident" `Quick
      test_nan_loss_edge_trigger;
    Alcotest.test_case "reward collapse vs trailing best" `Quick
      test_reward_collapse;
    Alcotest.test_case "q explosion" `Quick test_q_explosion;
    Alcotest.test_case "stalled episode under fake clock" `Quick
      test_stalled_episode_fake_clock;
    Alcotest.test_case "replay staleness" `Quick test_replay_stale;
    Alcotest.test_case "action-distribution drift" `Quick test_action_drift;
    Alcotest.test_case "kl divergence basics" `Quick test_kl_basics;
    Alcotest.test_case "retained alerts cap" `Quick test_max_alerts_cap;
    Alcotest.test_case "alert json round-trip (incl. nan)" `Quick
      test_alert_json_roundtrip;
    Alcotest.test_case "attrib accumulates per action" `Quick
      test_attrib_accumulates;
    Alcotest.test_case "attrib json round-trip is exact" `Quick
      test_attrib_json_roundtrip;
    Alcotest.test_case "attrib reader rejects malformed docs" `Quick
      test_attrib_of_json_robust;
    Alcotest.test_case "attrib reader allocates only what the doc holds"
      `Quick test_attrib_of_json_bounded;
    Alcotest.test_case "attrib renderers golden" `Quick test_attrib_render_golden;
    QCheck_alcotest.to_alcotest prop_attrib_reader;
    QCheck_alcotest.to_alcotest prop_alert_reader;
    QCheck_alcotest.to_alcotest prop_streaming_eq_recompute ]
