(* Tests for the observability layer (Posetrl_obs): metric semantics,
   span nesting and self-time under a fake clock, and the JSONL sink →
   report aggregator round trip. *)

module Obs = Posetrl_obs
module M = Obs.Metrics
module Span = Obs.Span
module Event = Obs.Event

let check_float = Alcotest.(check (float 1e-9))

(* --- metrics ---------------------------------------------------------------- *)

let test_counter () =
  let r = M.create () in
  let c = M.counter ~r "posetrl.test.hits" in
  M.inc c;
  M.inc ~by:2.5 c;
  (match M.value ~r "posetrl.test.hits" with
   | Some v -> check_float "total" 3.5 v
   | None -> Alcotest.fail "counter not registered");
  (* a second lookup hits the same cell *)
  M.inc (M.counter ~r "posetrl.test.hits");
  check_float "shared cell" 4.5 (Option.get (M.value ~r "posetrl.test.hits"))

let test_labels () =
  let r = M.create () in
  M.inc (M.counter ~r ~labels:[ ("space", "odg") ] "posetrl.test.runs");
  M.inc ~by:5.0 (M.counter ~r ~labels:[ ("space", "manual") ] "posetrl.test.runs");
  check_float "odg series" 1.0
    (Option.get (M.value ~r ~labels:[ ("space", "odg") ] "posetrl.test.runs"));
  check_float "manual series" 5.0
    (Option.get (M.value ~r ~labels:[ ("space", "manual") ] "posetrl.test.runs"));
  (* label order does not create a new series *)
  let c =
    M.counter ~r ~labels:[ ("b", "2"); ("a", "1") ] "posetrl.test.multi"
  in
  M.inc c;
  check_float "label order normalized" 1.0
    (Option.get (M.value ~r ~labels:[ ("a", "1"); ("b", "2") ] "posetrl.test.multi"))

let test_gauge () =
  let r = M.create () in
  let g = M.gauge ~r "posetrl.test.eps" in
  M.set g 1.0;
  M.set g 0.25;
  check_float "last write wins" 0.25 (Option.get (M.value ~r "posetrl.test.eps"))

let test_histogram () =
  let r = M.create () in
  let h = M.histogram ~r ~buckets:[| 1.0; 2.0; 5.0 |] "posetrl.test.lat" in
  M.observe h 0.5;
  M.observe h 1.5;
  M.observe h 10.0;
  (* histogram is not readable as a scalar *)
  Alcotest.(check (option (float 0.0))) "no scalar value" None
    (M.value ~r "posetrl.test.lat");
  match M.snapshot ~r () with
  | [ row ] ->
    Alcotest.(check string) "kind" "histogram" row.M.row_kind;
    Alcotest.(check int) "count" 3 row.M.row_count;
    check_float "mean" 4.0 row.M.row_value
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

(* quantile summary at the edges: no data, one observation, overflow *)
let hist_detail r name =
  match
    List.find_opt (fun row -> row.M.row_name = name) (M.snapshot ~r ())
  with
  | Some row -> row.M.row_detail
  | None -> Alcotest.failf "no row for %s" name

let test_histogram_empty () =
  let r = M.create () in
  ignore (M.histogram ~r ~buckets:[| 1.0; 2.0 |] "posetrl.test.empty");
  Alcotest.(check string) "no quantiles without data" "p50<=- p95<=- sum=0"
    (hist_detail r "posetrl.test.empty");
  (match M.snapshot ~r () with
   | [ row ] ->
     Alcotest.(check int) "count 0" 0 row.M.row_count;
     check_float "mean 0 by convention" 0.0 row.M.row_value
   | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows))

let test_histogram_single_observation () =
  let r = M.create () in
  let h = M.histogram ~r ~buckets:[| 1.0; 2.0; 5.0 |] "posetrl.test.one" in
  M.observe h 1.5;
  (* every quantile of a single sample is its covering bucket bound *)
  Alcotest.(check string) "both quantiles in the 2.0 bucket"
    "p50<=2 p95<=2 sum=1.5"
    (hist_detail r "posetrl.test.one")

let test_histogram_overflow_bucket () =
  let r = M.create () in
  let h = M.histogram ~r ~buckets:[| 1.0; 2.0 |] "posetrl.test.over" in
  M.observe h 0.5;
  M.observe h 100.0;
  M.observe h 200.0;
  (* 2 of 3 samples exceed every bound: p95 lands in the implicit +inf
     bucket, p50 on the last finite bound's successor *)
  Alcotest.(check string) "overflow renders +inf" "p50<=+inf p95<=+inf sum=300.5"
    (hist_detail r "posetrl.test.over");
  M.observe h 0.6;
  M.observe h 0.7;
  Alcotest.(check string) "median back in range once most samples fit"
    "p50<=1 p95<=+inf sum=301.8"
    (hist_detail r "posetrl.test.over")

let test_kind_clash () =
  let r = M.create () in
  ignore (M.counter ~r "posetrl.test.k");
  Alcotest.(check bool) "kind clash raises" true
    (try ignore (M.gauge ~r "posetrl.test.k"); false
     with Invalid_argument _ -> true)

let test_snapshot_sorted () =
  let r = M.create () in
  ignore (M.counter ~r "posetrl.z");
  ignore (M.counter ~r "posetrl.a");
  ignore (M.gauge ~r "posetrl.m");
  let names = List.map (fun row -> row.M.row_name) (M.snapshot ~r ()) in
  Alcotest.(check (list string)) "sorted by name"
    [ "posetrl.a"; "posetrl.m"; "posetrl.z" ] names

(* --- spans ------------------------------------------------------------------- *)

let with_memory_sink f =
  let sink, events = Obs.Sink.memory () in
  Span.with_sink sink (fun () -> f events)

let test_span_disabled () =
  (* no sink: result passthrough, nothing recorded anywhere *)
  Alcotest.(check bool) "disabled" false (Span.enabled ());
  let r = Span.with_ "posetrl.test.noop" (fun _ -> 42) in
  Alcotest.(check int) "result" 42 r

let test_span_nesting () =
  Obs.Clock.with_fake (fun advance ->
      with_memory_sink (fun events ->
          Span.with_ "outer" (fun _ ->
              advance 1.0;
              Span.with_ "inner" (fun _ -> advance 2.0);
              advance 3.0);
          match events () with
          | [ inner; outer ] ->
            (* children complete (and are emitted) before parents *)
            Alcotest.(check string) "inner name" "inner" inner.Event.name;
            Alcotest.(check int) "inner depth" 1 inner.Event.depth;
            check_float "inner dur" 2.0 inner.Event.dur;
            check_float "inner self" 2.0 inner.Event.self;
            Alcotest.(check string) "outer name" "outer" outer.Event.name;
            Alcotest.(check int) "outer depth" 0 outer.Event.depth;
            check_float "outer dur" 6.0 outer.Event.dur;
            check_float "outer self (dur - child)" 4.0 outer.Event.self;
            check_float "inner starts 1s in" 1.0 inner.Event.t_start
          | es -> Alcotest.failf "expected 2 events, got %d" (List.length es)))

let test_span_attrs_and_exceptions () =
  Obs.Clock.with_fake (fun advance ->
      with_memory_sink (fun events ->
          (try
             Span.with_ "failing" ~attrs:[ ("k", Event.S "v") ] (fun sp ->
                 advance 1.0;
                 Span.set_attr sp "extra" (Event.I 7);
                 failwith "boom")
           with Failure _ -> ());
          (* the span still emitted, stack unwound, tracing still works *)
          Span.with_ "after" (fun _ -> advance 0.5);
          match events () with
          | [ failing; after ] ->
            Alcotest.(check string) "name" "failing" failing.Event.name;
            check_float "dur" 1.0 failing.Event.dur;
            Alcotest.(check (option string)) "seed attr" (Some "v")
              (Event.attr_string failing "k");
            Alcotest.(check (option int)) "set_attr" (Some 7)
              (Event.attr_int failing "extra");
            Alcotest.(check bool) "error recorded" true
              (Option.is_some (Event.attr_string failing "error"));
            Alcotest.(check int) "stack unwound" 0 after.Event.depth
          | es -> Alcotest.failf "expected 2 events, got %d" (List.length es)))

(* --- JSONL sink → report aggregator ------------------------------------------ *)

let emit_fixture advance =
  (* two env steps with nested pass spans, distinct actions *)
  List.iter
    (fun (action, pass, d_insns, reward) ->
      Span.with_ "posetrl.env.step"
        ~attrs:[ ("action", Event.I action); ("passes", Event.S pass) ]
        (fun sp ->
          Span.with_ "posetrl.pass.run"
            ~attrs:[ ("pass", Event.S pass); ("d_insns", Event.I d_insns) ]
            (fun _ -> advance 1.0);
          advance 0.5;
          Span.set_attr sp "reward" (Event.F reward);
          Span.set_attr sp "d_size" (Event.F (8.0 *. float_of_int d_insns))))
    [ (3, "simplifycfg", 4, 1.25); (3, "simplifycfg", 2, 0.75); (7, "licm", -1, -0.5) ]

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "posetrl_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let golden =
        Obs.Clock.with_fake (fun advance ->
            let mem, events = Obs.Sink.memory () in
            Span.install mem;
            Fun.protect
              ~finally:(fun () -> Span.remove mem)
              (fun () ->
                Span.with_sink (Obs.Sink.jsonl path) (fun () ->
                    emit_fixture advance));
            events ())
      in
      let parsed, dropped = Obs.Report.read_trace path in
      Alcotest.(check int) "event count" (List.length golden) (List.length parsed);
      Alcotest.(check int) "nothing dropped" 0 dropped;
      (* byte-exact structural round trip against the in-memory golden *)
      Alcotest.(check bool) "events round-trip" true (parsed = golden);
      (* a killed run tears its last line: the reader skips and counts
         it, and every complete event still reads back *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "{\"name\":\"posetrl.env.st";
      close_out oc;
      let parsed, dropped = Obs.Report.read_trace path in
      Alcotest.(check int) "torn line dropped" 1 dropped;
      Alcotest.(check bool) "events before the torn line" true (parsed = golden);
      (* a JSON line that is not an event is skipped and counted too *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "\n{\"kind\":\"tick\",\"step\":200}\n";
      close_out oc;
      let parsed, dropped = Obs.Report.read_trace path in
      Alcotest.(check int) "non-event line dropped" 2 dropped;
      Alcotest.(check bool) "events unchanged" true (parsed = golden))

let test_report_aggregation () =
  let path = Filename.temp_file "posetrl_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Clock.with_fake (fun advance ->
          Span.with_sink (Obs.Sink.jsonl path) (fun () -> emit_fixture advance));
      let events, _ = Obs.Report.read_trace path in
      (* hotspots: env.step total = 3 * 1.5, self = 3 * 0.5; pass.run
         (self 3.0) ranks first by self time *)
      (match Obs.Prof.hotspots (Obs.Prof.of_events events) with
       | [ pass; step ] ->
         Alcotest.(check string) "step span" "posetrl.env.step" step.Obs.Prof.e_name;
         Alcotest.(check int) "step count" 3 step.Obs.Prof.e_count;
         check_float "step total" 4.5 step.Obs.Prof.e_total;
         check_float "step self" 1.5 step.Obs.Prof.e_self;
         check_float "pass total" 3.0 pass.Obs.Prof.e_total
       | rows -> Alcotest.failf "expected 2 hotspot rows, got %d" (List.length rows));
      (* pass table groups by pass attr and sums insn deltas *)
      (match Obs.Report.passes events with
       | [ scfg; licm ] ->
         Alcotest.(check string) "pass" "simplifycfg" scfg.Obs.Report.pr_pass;
         Alcotest.(check int) "runs" 2 scfg.Obs.Report.pr_count;
         Alcotest.(check int) "d_insns summed" 6 scfg.Obs.Report.pr_d_insns;
         Alcotest.(check int) "licm d_insns" (-1) licm.Obs.Report.pr_d_insns
       | rows -> Alcotest.failf "expected 2 pass rows, got %d" (List.length rows));
      (* action table groups env.step by action index *)
      (match Obs.Report.actions events with
       | [ a3; a7 ] ->
         Alcotest.(check int) "action" 3 a3.Obs.Report.ar_action;
         Alcotest.(check int) "steps" 2 a3.Obs.Report.ar_count;
         check_float "d_size summed" 48.0 a3.Obs.Report.ar_d_size;
         check_float "mean reward" 1.0 a3.Obs.Report.ar_mean_reward;
         check_float "negative delta" (-8.0) a7.Obs.Report.ar_d_size
       | rows -> Alcotest.failf "expected 2 action rows, got %d" (List.length rows));
      (* the rendered report carries the hotspot, pass and action tables
         with the fixture's span/pass/action rows *)
      let rendered = Obs.Report.render events in
      let contains needle =
        let nl = String.length needle and hl = String.length rendered in
        let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
        Alcotest.(check bool) (Printf.sprintf "render mentions %S" needle) true (go 0)
      in
      List.iter contains
        [ "hotspots"; "per-pass cumulative time"; "per-action";
          "posetrl.env.step"; "posetrl.pass.run"; "simplifycfg"; "licm" ])

let test_report_render_empty () =
  (* an empty trace still renders (headers only), and the aggregators
     agree it holds nothing *)
  Alcotest.(check int) "no actions" 0 (List.length (Obs.Report.actions []));
  Alcotest.(check bool) "render total on empty" true
    (String.length (Obs.Report.render []) > 0)

let test_json_values () =
  (* attr value kinds survive the JSON round trip exactly *)
  let e =
    { Event.name = "posetrl.test.kinds";
      attrs =
        [ ("s", Event.S "a \"quoted\"\nline");
          ("i", Event.I (-42));
          ("f", Event.F 0.1) ];
      t_start = 1.5;
      dur = 0.25;
      self = 0.125;
      depth = 2;
      tid = 0 }
  in
  let e' = Event.of_json (Obs.Json.of_string (Obs.Json.to_string (Event.to_json e))) in
  Alcotest.(check bool) "event equal after round trip" true (e = e')

(* malformed bodies are Parse_error, never a stdlib exception: serve
   catches only Parse_error around untrusted JSON *)
let test_json_malformed () =
  List.iter
    (fun body ->
      Alcotest.(check bool) (body ^ " is a Parse_error") true
        (match Obs.Json.of_string body with
         | _ -> false
         | exception Obs.Json.Parse_error _ -> true))
    [ "garbage"; "[1.2.3]"; "[-]"; "[\"\\uZZZZ\"]"; "[1e]"; "\"\\u00" ];
  (* well-formed numbers and escapes keep their values *)
  Alcotest.(check string) "valid document unchanged"
    "[1.5,-2,300.0,\"A\",-0.5]"
    (Obs.Json.to_string (Obs.Json.of_string "[1.5, -2, 3e2, \"\\u0041\", -5e-1]"))

let suite =
  [ Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "labeled series" `Quick test_labels;
    Alcotest.test_case "gauge semantics" `Quick test_gauge;
    Alcotest.test_case "histogram buckets" `Quick test_histogram;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram single obs" `Quick test_histogram_single_observation;
    Alcotest.test_case "histogram overflow" `Quick test_histogram_overflow_bucket;
    Alcotest.test_case "metric kind clash" `Quick test_kind_clash;
    Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
    Alcotest.test_case "span disabled passthrough" `Quick test_span_disabled;
    Alcotest.test_case "span nesting + self time" `Quick test_span_nesting;
    Alcotest.test_case "span attrs + exception" `Quick test_span_attrs_and_exceptions;
    Alcotest.test_case "jsonl golden round trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "report aggregation" `Quick test_report_aggregation;
    Alcotest.test_case "report empty trace" `Quick test_report_render_empty;
    Alcotest.test_case "json value kinds" `Quick test_json_values;
    Alcotest.test_case "json malformed is Parse_error" `Quick test_json_malformed ]
