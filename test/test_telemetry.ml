(* Tests for the live-telemetry layer: Prometheus exposition (Expo),
   the HTTP server (Httpd) request/response plumbing and route table,
   the Chrome trace-event export, and the [posetrl watch] dashboard
   renderer. Socket behaviour is covered end-to-end on a loopback
   ephemeral port; everything else is pure. *)

module Obs = Posetrl_obs
module Json = Obs.Json
module Metrics = Obs.Metrics
module Expo = Obs.Expo
module Httpd = Obs.Httpd
module Runlog = Obs.Runlog
module Run = Obs.Run

let check_float = Alcotest.(check (float 1e-9))

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_temp_dir (f : string -> 'a) : 'a =
  let dir = Filename.temp_file "posetrl_telemetry" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- Expo: name/label/value formatting ---------------------------------------- *)

let test_sanitize_name () =
  Alcotest.(check string) "dots" "posetrl_train_mean_reward"
    (Expo.sanitize_name "posetrl.train.mean-reward");
  Alcotest.(check string) "kept verbatim" "already_fine:name"
    (Expo.sanitize_name "already_fine:name");
  Alcotest.(check string) "leading digit prefixed" "_9lives"
    (Expo.sanitize_name "9lives")

let test_escape_label_value () =
  Alcotest.(check string) "backslash quote newline" "a\\\\b\\\"c\\nd"
    (Expo.escape_label_value "a\\b\"c\nd");
  Alcotest.(check string) "plain untouched" "x86-64"
    (Expo.escape_label_value "x86-64")

let test_format_value () =
  Alcotest.(check string) "integral without point" "3" (Expo.format_value 3.0);
  Alcotest.(check string) "fraction" "0.25" (Expo.format_value 0.25);
  Alcotest.(check string) "+Inf" "+Inf" (Expo.format_value infinity);
  Alcotest.(check string) "-Inf" "-Inf" (Expo.format_value neg_infinity);
  Alcotest.(check string) "NaN" "NaN" (Expo.format_value Float.nan)

(* --- Expo: golden scrape -------------------------------------------------------
   Byte-exact exposition of a counter, a gauge and a labeled histogram:
   the contract a Prometheus scraper actually parses. *)

let test_scrape_golden () =
  let r = Metrics.create () in
  let c = Metrics.counter ~r "posetrl.train.steps" in
  Metrics.inc c; Metrics.inc ~by:2.0 c;
  Metrics.set (Metrics.gauge ~r "posetrl.train.epsilon") 0.25;
  let h =
    Metrics.histogram ~r ~labels:[ ("space", "odg") ]
      ~buckets:[| 0.1; 1.0 |] "posetrl.odg.walk_len"
  in
  Metrics.observe h 0.05; Metrics.observe h 0.5; Metrics.observe h 5.0;
  Metrics.inc (Metrics.counter ~r ~labels:[ ("rule", "nan_loss") ] "posetrl.alerts.total");
  Metrics.set
    (Metrics.gauge ~r ~labels:[ ("action", "3") ] "posetrl.attrib.reward_total")
    12.5;
  (* the coverage gauges are published by a real table's [sample], not
     set by hand: a 3-node chain, both edges visited, a 50/50 action
     split — entropy exactly 1 bit, coverage exactly 100% *)
  let cov =
    Obs.Coverage.create ~registry:r
      { Obs.Coverage.nodes = [| "a"; "b"; "c" |];
        Obs.Coverage.edges = [| (0, 1); (1, 2) |];
        Obs.Coverage.action_paths = [| [| 0; 1 |]; [| 2 |] |] }
  in
  Obs.Coverage.observe cov ~action:0 ~pos:0 ~reward:0.0 ~r_binsize:0.0
    ~r_throughput:0.0;
  Obs.Coverage.observe cov ~action:1 ~pos:1 ~reward:0.0 ~r_binsize:0.0
    ~r_throughput:0.0;
  Obs.Coverage.sample cov ~step:2;
  (* the serve daemon's family: counter, labeled counter, histogram *)
  let hits = Metrics.counter ~r "posetrl.serve.cache_hits_total" in
  Metrics.inc hits; Metrics.inc hits;
  let lat =
    Metrics.histogram ~r ~buckets:[| 0.01; 0.1 |] "posetrl.serve.latency_seconds"
  in
  Metrics.observe lat 0.005; Metrics.observe lat 0.25;
  Metrics.inc ~by:3.0
    (Metrics.counter ~r ~labels:[ ("route", "optimize") ]
       "posetrl.serve.requests_total");
  let expected =
    String.concat ""
      [ "# HELP posetrl_alerts_total posetrl.alerts.total\n";
        "# TYPE posetrl_alerts_total counter\n";
        "posetrl_alerts_total{rule=\"nan_loss\"} 1\n";
        "# HELP posetrl_attrib_reward_total posetrl.attrib.reward_total\n";
        "# TYPE posetrl_attrib_reward_total gauge\n";
        "posetrl_attrib_reward_total{action=\"3\"} 12.5\n";
        "# HELP posetrl_coverage_edge_pct posetrl.coverage.edge_pct\n";
        "# TYPE posetrl_coverage_edge_pct gauge\n";
        "posetrl_coverage_edge_pct 100\n";
        "# HELP posetrl_coverage_edges_visited posetrl.coverage.edges_visited\n";
        "# TYPE posetrl_coverage_edges_visited gauge\n";
        "posetrl_coverage_edges_visited 2\n";
        "# HELP posetrl_coverage_entropy_bits posetrl.coverage.entropy_bits\n";
        "# TYPE posetrl_coverage_entropy_bits gauge\n";
        "posetrl_coverage_entropy_bits 1\n";
        "# HELP posetrl_coverage_nodes_visited posetrl.coverage.nodes_visited\n";
        "# TYPE posetrl_coverage_nodes_visited gauge\n";
        "posetrl_coverage_nodes_visited 3\n";
        "# HELP posetrl_odg_walk_len posetrl.odg.walk_len\n";
        "# TYPE posetrl_odg_walk_len histogram\n";
        "posetrl_odg_walk_len_bucket{space=\"odg\",le=\"0.1\"} 1\n";
        "posetrl_odg_walk_len_bucket{space=\"odg\",le=\"1\"} 2\n";
        "posetrl_odg_walk_len_bucket{space=\"odg\",le=\"+Inf\"} 3\n";
        "posetrl_odg_walk_len_sum{space=\"odg\"} 5.55\n";
        "posetrl_odg_walk_len_count{space=\"odg\"} 3\n";
        "# HELP posetrl_serve_cache_hits_total posetrl.serve.cache_hits_total\n";
        "# TYPE posetrl_serve_cache_hits_total counter\n";
        "posetrl_serve_cache_hits_total 2\n";
        "# HELP posetrl_serve_latency_seconds posetrl.serve.latency_seconds\n";
        "# TYPE posetrl_serve_latency_seconds histogram\n";
        "posetrl_serve_latency_seconds_bucket{le=\"0.01\"} 1\n";
        "posetrl_serve_latency_seconds_bucket{le=\"0.1\"} 1\n";
        "posetrl_serve_latency_seconds_bucket{le=\"+Inf\"} 2\n";
        "posetrl_serve_latency_seconds_sum 0.255\n";
        "posetrl_serve_latency_seconds_count 2\n";
        "# HELP posetrl_serve_requests_total posetrl.serve.requests_total\n";
        "# TYPE posetrl_serve_requests_total counter\n";
        "posetrl_serve_requests_total{route=\"optimize\"} 3\n";
        "# HELP posetrl_train_epsilon posetrl.train.epsilon\n";
        "# TYPE posetrl_train_epsilon gauge\n";
        "posetrl_train_epsilon 0.25\n";
        "# HELP posetrl_train_steps posetrl.train.steps\n";
        "# TYPE posetrl_train_steps counter\n";
        "posetrl_train_steps 3\n" ]
  in
  Alcotest.(check string) "golden exposition" expected (Expo.scrape ~r ())

let test_metrics_sum_accessor () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~r ~buckets:[| 1.0 |] "posetrl.test.h" in
  Metrics.observe h 0.5; Metrics.observe h 2.0;
  Metrics.inc (Metrics.counter ~r "posetrl.test.c");
  (* sum is exact for histograms and None elsewhere; value is the
     mirror image (histograms have no single scalar reading) *)
  check_float "histogram sum" 2.5 (Option.get (Metrics.sum ~r "posetrl.test.h"));
  Alcotest.(check (option (float 0.0))) "sum of a counter" None
    (Metrics.sum ~r "posetrl.test.c");
  Alcotest.(check (option (float 0.0))) "value of a histogram" None
    (Metrics.value ~r "posetrl.test.h");
  (* the snapshot row carries the mean as row_value, the sum as row_sum *)
  match
    List.find_opt
      (fun row -> row.Metrics.row_name = "posetrl.test.h")
      (Metrics.snapshot ~r ())
  with
  | None -> Alcotest.fail "histogram row missing from snapshot"
  | Some row ->
    check_float "row_value is the mean" 1.25 row.Metrics.row_value;
    check_float "row_sum is the sum" 2.5 row.Metrics.row_sum;
    Alcotest.(check int) "row_count" 2 row.Metrics.row_count;
    Alcotest.(check bool) "buckets end at +Inf" true
      (match List.rev row.Metrics.row_buckets with
       | (b, _) :: _ -> b = infinity
       | [] -> false)

(* --- Httpd: request/response plumbing ------------------------------------------ *)

let test_parse_request () =
  (match Httpd.parse_request "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" with
   | Ok req ->
     Alcotest.(check string) "method" "GET" req.Httpd.meth;
     Alcotest.(check string) "path" "/metrics" req.Httpd.path;
     Alcotest.(check string) "no body" "" req.Httpd.body
   | Error _ -> Alcotest.fail "GET should parse");
  (match Httpd.parse_request "GET /metrics?format=text HTTP/1.0\r\n" with
   | Ok req -> Alcotest.(check string) "query dropped" "/metrics" req.Httpd.path
   | Error _ -> Alcotest.fail "query string should parse");
  (match
     Httpd.parse_request
       "POST /optimize HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello-extra"
   with
   | Ok req ->
     Alcotest.(check string) "POST parses" "POST" req.Httpd.meth;
     Alcotest.(check string) "body cut at Content-Length" "hello" req.Httpd.body
   | Error _ -> Alcotest.fail "POST with a declared body should parse");
  match Httpd.parse_request "complete garbage" with
  | Error resp -> Alcotest.(check int) "garbage is 400" 400 resp.Httpd.status
  | Ok _ -> Alcotest.fail "garbage must be rejected"

(* Hardened POST parsing (DESIGN.md §14): missing/invalid/torn declared
   lengths are 400s, an oversized declaration is a 413, unknown methods
   stay 405 — all as responses, never as exceptions. *)
let test_parse_request_hardening () =
  let err raw =
    match Httpd.parse_request ~max_body:64 raw with
    | Error resp -> resp.Httpd.status
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" raw)
  in
  Alcotest.(check int) "POST without Content-Length" 400
    (err "POST /optimize HTTP/1.1\r\n\r\nbody");
  Alcotest.(check int) "non-numeric Content-Length" 400
    (err "POST /optimize HTTP/1.1\r\nContent-Length: two\r\n\r\nxx");
  Alcotest.(check int) "negative Content-Length" 400
    (err "POST /optimize HTTP/1.1\r\nContent-Length: -5\r\n\r\nxx");
  Alcotest.(check int) "torn body is 400"
    400
    (err "POST /optimize HTTP/1.1\r\nContent-Length: 40\r\n\r\nonly this");
  Alcotest.(check int) "oversized declaration is 413" 413
    (err "POST /optimize HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
  Alcotest.(check int) "PUT is 405" 405 (err "PUT /x HTTP/1.1\r\n\r\n");
  Alcotest.(check int) "DELETE is 405" 405 (err "DELETE /x HTTP/1.1\r\n\r\n");
  (* headers are looked up case-insensitively *)
  match
    Httpd.parse_request "POST /x HTTP/1.1\r\ncontent-length: 2\r\n\r\nok"
  with
  | Ok req -> Alcotest.(check string) "lowercase header" "ok" req.Httpd.body
  | Error _ -> Alcotest.fail "lowercase content-length should parse"

let test_render_response () =
  let wire = Httpd.render_response (Httpd.response "hello") in
  Alcotest.(check bool) "status line" true
    (String.starts_with ~prefix:"HTTP/1.1 200 OK\r\n" wire);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no keep-alive" true (contains wire "Connection: close\r\n");
  Alcotest.(check bool) "content length" true (contains wire "Content-Length: 5\r\n");
  Alcotest.(check bool) "body last" true (String.ends_with ~suffix:"\r\n\r\nhello" wire)

let test_telemetry_routes () =
  with_temp_dir (fun tmp ->
      (* two runs the /runs routes must not reach: [tmp] itself, the
         parent of the runs root, and [tmp/elsewhere], outside it *)
      Run.finish (Run.create ~dir:tmp ~name:"parent" ~meta:[] ());
      Run.finish
        (Run.create ~dir:(Filename.concat tmp "elsewhere") ~name:"elsewhere"
           ~meta:[] ());
      let root = Filename.concat tmp "runs" in
      let dir = Filename.concat root "r1" in
      let run = Run.create ~dir ~name:"r1" ~meta:[ ("kind", Json.Str "train") ] () in
      Run.progress run
        (Runlog.tick_record ~step:1 ~episode:0 ~epsilon:1.0 ~mean_reward:0.5
           ~mean_size_gain:0.0 ~r_binsize:0.0 ~r_throughput:0.0 ~loss:0.1 ());
      Run.finish run;
      let r = Metrics.create () in
      Metrics.set (Metrics.gauge ~r "posetrl.train.reward") 1.5;
      let handler =
        Httpd.telemetry_handler ~registry:r ~runs_root:root
          ~health:(fun () -> Json.Obj [ ("status", Json.Str "running") ])
          ()
      in
      let get path = handler { Httpd.meth = "GET"; path; body = "" } in
      let metrics = get "/metrics" in
      Alcotest.(check int) "metrics 200" 200 metrics.Httpd.status;
      Alcotest.(check bool) "exposition body" true
        (String.starts_with ~prefix:"# HELP posetrl_train_reward"
           metrics.Httpd.body);
      let health = get "/healthz" in
      Alcotest.(check int) "healthz 200" 200 health.Httpd.status;
      Alcotest.(check (option string)) "healthz json" (Some "running")
        (Runlog.str "status" (Json.of_string health.Httpd.body));
      (match Json.of_string (get "/runs").Httpd.body with
       | Json.Arr [ one ] ->
         Alcotest.(check (option string)) "runs lists r1" (Some "r1")
           (Runlog.str "id" one)
       | _ -> Alcotest.fail "/runs should list exactly one run");
      (match Json.of_string (get "/runs/r1/progress").Httpd.body with
       | doc ->
         Alcotest.(check (option string)) "progress id" (Some "r1")
           (Runlog.str "id" doc);
         (match Runlog.field "records" doc with
          | Some (Json.Arr [ tick ]) ->
            Alcotest.(check (option (float 0.0))) "tick round trip" (Some 1.0)
              (Runlog.num "step" tick)
          | _ -> Alcotest.fail "expected one progress record"));
      Alcotest.(check int) "unknown run 404" 404
        (get "/runs/nope/progress").Httpd.status;
      Alcotest.(check int) "the root's parent 404" 404
        (get "/runs/../progress").Httpd.status;
      (* a run directory relative to the daemon's working directory *)
      let cwd = Sys.getcwd () in
      Sys.chdir tmp;
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
          Alcotest.(check int) "a run outside the root 404" 404
            (get "/runs/elsewhere/progress").Httpd.status);
      Alcotest.(check int) "unknown route 404" 404 (get "/nope").Httpd.status;
      (* no alerts thunk wired: /alerts still answers, with [] *)
      Alcotest.(check string) "alerts default empty" "[]\n"
        (get "/alerts").Httpd.body)

let test_alerts_route () =
  let fired = ref [] in
  let handler =
    Httpd.telemetry_handler
      ~docs:[ ("alerts", fun () -> Some (Json.Arr !fired)) ]
      ~health:(fun () -> Json.Obj [])
      ()
  in
  let get () = handler { Httpd.meth = "GET"; path = "/alerts"; body = "" } in
  Alcotest.(check string) "empty before any alert" "[]\n" (get ()).Httpd.body;
  fired :=
    [ Obs.Health.alert_to_json
        { Obs.Health.a_rule = "nan_loss"; a_step = 200; a_severity = "error";
          a_message = "boom"; a_value = Float.nan } ];
  let resp = get () in
  Alcotest.(check int) "alerts 200" 200 resp.Httpd.status;
  match Json.of_string resp.Httpd.body with
  | Json.Arr [ a ] ->
    Alcotest.(check (option string)) "rule served" (Some "nan_loss")
      (Runlog.str "rule" a);
    (* the non-finite value crossed the wire as its string encoding *)
    Alcotest.(check (option string)) "nan encoded" (Some "nan")
      (Runlog.str "value" a)
  | _ -> Alcotest.fail "/alerts should serve the fired alert"

let test_coverage_route () =
  (* no route wired: the route answers 404, not a crash or empty body *)
  let bare = Httpd.telemetry_handler ~health:(fun () -> Json.Obj []) () in
  Alcotest.(check int) "no thunk wired is 404" 404
    (bare { Httpd.meth = "GET"; path = "/coverage"; body = "" }).Httpd.status;
  let doc = ref None in
  let handler =
    Httpd.telemetry_handler
      ~docs:[ ("coverage", fun () -> !doc) ]
      ~health:(fun () -> Json.Obj [])
      ()
  in
  let get () = handler { Httpd.meth = "GET"; path = "/coverage"; body = "" } in
  Alcotest.(check int) "thunk says None: still 404" 404 (get ()).Httpd.status;
  doc :=
    Some
      (Json.Obj
         [ ("kind", Json.Str "coverage"); ("edge_pct", Json.Float 42.5) ]);
  let resp = get () in
  Alcotest.(check int) "coverage 200" 200 resp.Httpd.status;
  let served = Json.of_string resp.Httpd.body in
  Alcotest.(check (option string)) "kind served" (Some "coverage")
    (Runlog.str "kind" served);
  Alcotest.(check (option (float 0.0))) "live value served" (Some 42.5)
    (Runlog.num "edge_pct" served)

(* --- Httpd: live socket -------------------------------------------------------- *)

let test_live_socket () =
  let handler req =
    if req.Httpd.path = "/healthz" then
      Httpd.json_response (Json.Obj [ ("status", Json.Str "running") ])
    else Httpd.response ~status:404 "nope"
  in
  let server = Httpd.create ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Httpd.close server)
    (fun () ->
      Alcotest.(check bool) "ephemeral port assigned" true (Httpd.port server > 0);
      (* no pending connection: pump returns immediately *)
      Httpd.pump server handler;
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect sock
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Httpd.port server));
          let req = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" in
          ignore (Unix.write_substring sock req 0 (String.length req));
          Httpd.pump server handler;
          let buf = Bytes.create 8192 in
          let n = ref 0 and eof = ref false in
          while not !eof do
            match Unix.read sock buf !n (Bytes.length buf - !n) with
            | 0 -> eof := true
            | k -> n := !n + k
          done;
          let raw = Bytes.sub_string buf 0 !n in
          Alcotest.(check bool) "HTTP 200 over the wire" true
            (String.starts_with ~prefix:"HTTP/1.1 200" raw);
          Alcotest.(check bool) "json body served" true
            (String.ends_with ~suffix:"{\"status\":\"running\"}\n" raw)))

(* --- Chrome trace export -------------------------------------------------------- *)

let mk_event ?(attrs = []) ?(depth = 0) ?(tid = 0) name ~t ~dur =
  { Obs.Event.name; attrs; t_start = t; dur; self = dur; depth; tid }

let test_chrome_roundtrip () =
  let events =
    [ mk_event "posetrl.pass.run" ~t:0.002 ~dur:0.001 ~depth:1
        ~attrs:[ ("pass", Obs.Event.S "dce") ];
      mk_event "posetrl.train.episode" ~t:0.001 ~dur:0.004 ]
  in
  match Json.of_string (Obs.Chrome.to_string events) with
  | Json.Arr [ meta; first; second ] ->
    (* thread_name metadata first, then X events sorted by start time *)
    Alcotest.(check (option string)) "thread metadata" (Some "M")
      (Runlog.str "ph" meta);
    Alcotest.(check (option string)) "main track named" (Some "main")
      (Option.bind (Runlog.field "args" meta) (Runlog.str "name"));
    Alcotest.(check (option string)) "outer first" (Some "posetrl.train.episode")
      (Runlog.str "name" first);
    Alcotest.(check (option string)) "phase X" (Some "X")
      (Runlog.str "ph" first);
    check_float "ts in us" 1000.0 (Option.get (Runlog.num "ts" first));
    check_float "dur in us" 4000.0 (Option.get (Runlog.num "dur" first));
    Alcotest.(check (option (float 0.0))) "track = emitting domain" (Some 0.0)
      (Runlog.num "tid" second);
    Alcotest.(check (option string)) "attrs land in args" (Some "dce")
      (Option.bind (Runlog.field "args" second) (Runlog.str "pass"));
    Alcotest.(check (option (float 0.0))) "depth in args" (Some 1.0)
      (Option.bind (Runlog.field "args" second) (Runlog.num "depth"))
  | _ -> Alcotest.fail "expected metadata + two trace events"

let test_chrome_worker_tracks () =
  (* events from two domains get distinct labeled tracks *)
  let events =
    [ mk_event "posetrl.pool.task" ~t:0.001 ~dur:0.002 ~tid:3;
      mk_event "posetrl.eval.batch" ~t:0.0 ~dur:0.004 ]
  in
  match Json.of_string (Obs.Chrome.to_string events) with
  | Json.Arr [ m0; m3; _batch; task ] ->
    Alcotest.(check (option string)) "main label" (Some "main")
      (Option.bind (Runlog.field "args" m0) (Runlog.str "name"));
    Alcotest.(check (option string)) "worker label" (Some "domain-3")
      (Option.bind (Runlog.field "args" m3) (Runlog.str "name"));
    Alcotest.(check (option (float 0.0))) "task on worker track" (Some 3.0)
      (Runlog.num "tid" task)
  | _ -> Alcotest.fail "expected two metadata + two trace events"

let test_chrome_write_is_valid_json () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "trace.chrome.json" in
      Obs.Chrome.write ~path [ mk_event "e" ~t:0.0 ~dur:0.5 ];
      match Runlog.read_json_file path with
      | Json.Arr [ _meta; _event ] -> ()
      | _ -> Alcotest.fail "written file should be metadata + one event")

(* --- watch dashboard ------------------------------------------------------------ *)

let test_action_histogram () =
  let ep actions =
    Runlog.episode_record ~actions ~episode:0 ~step:1 ~reward:0.0 ~r_binsize:0.0
      ~r_throughput:0.0 ~size_gain_pct:0.0 ~thru_gain_pct:0.0 ~epsilon:1.0
      ~loss:0.0 ()
  in
  let tick =
    Runlog.tick_record ~step:1 ~episode:0 ~epsilon:1.0 ~mean_reward:0.0
      ~mean_size_gain:0.0 ~r_binsize:0.0 ~r_throughput:0.0 ~loss:0.0 ()
  in
  (* ticks don't contribute; counts sort descending, ties by action id *)
  Alcotest.(check (list (pair int int))) "fold + sort"
    [ (2, 3); (0, 1); (5, 1) ]
    (Obs.Dashboard.action_histogram [ tick; ep [ 2; 0; 2 ]; ep [ 5; 2 ] ]);
  Alcotest.(check (list (pair int int))) "empty" []
    (Obs.Dashboard.action_histogram [ tick ])

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_dashboard_render () =
  let manifest =
    Json.Obj [ ("kind", Json.Str "train"); ("status", Json.Str "running") ]
  in
  let records =
    [ Runlog.tick_record ~step:200 ~episode:13 ~epsilon:0.9 ~mean_reward:4.5
        ~mean_size_gain:1.0 ~r_binsize:0.1 ~r_throughput:0.2 ~loss:0.05 ();
      Runlog.episode_record ~actions:[ 1; 1; 3 ] ~episode:13 ~step:195
        ~reward:6.0 ~r_binsize:0.5 ~r_throughput:0.25 ~size_gain_pct:8.0
        ~thru_gain_pct:1.0 ~epsilon:0.9 ~loss:0.04 () ]
  in
  let frame =
    Obs.Dashboard.render ~id:"r7" ~manifest ~records ~dropped:1 ()
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "frame has %S" needle) true
        (contains frame needle))
    [ "run r7  [train, running]";
      "step 200";
      "eps 0.900";
      "(1 torn progress line skipped)";
      "reward";
      "epsilon";
      "loss";
      "action selections";
      "action 1        2";
      "action 3        1" ];
  (* empty ledger: a placeholder, not an exception or a blank screen *)
  let empty = Obs.Dashboard.render ~id:"r8" ~manifest ~records:[] ~dropped:0 () in
  Alcotest.(check bool) "placeholder on empty" true
    (contains empty "(no progress records yet)")

let test_dashboard_alerts_row () =
  let manifest =
    Json.Obj [ ("kind", Json.Str "train"); ("status", Json.Str "running") ]
  in
  let render alerts =
    Obs.Dashboard.render ?alerts:(Some alerts) ~id:"r9" ~manifest ~records:[]
      ~dropped:0 ()
  in
  (* pre-watchdog run (PR 2–6 ledgers): an explicit placeholder, never a
     blank or garbled row *)
  let old_run = render None in
  Alcotest.(check bool) "placeholder for pre-watchdog runs" true
    (contains old_run "alerts (not recorded by this run)");
  Alcotest.(check bool) "no red escape in placeholder" false
    (contains old_run "\027[31m");
  (* healthy run: alerts file present and empty *)
  Alcotest.(check bool) "healthy run says none" true
    (contains (render (Some [])) "alerts none");
  (* fired alerts render as red rows, newest kept under the cap *)
  let alert step =
    { Obs.Health.a_rule = "reward_collapse"; a_step = step;
      a_severity = "warn"; a_message = "collapse"; a_value = 1.0 }
  in
  let one = render (Some [ alert 400 ]) in
  Alcotest.(check bool) "count row" true (contains one "1 fired");
  Alcotest.(check bool) "red escape present" true (contains one "\027[31m");
  Alcotest.(check bool) "rule named" true (contains one "reward_collapse");
  let many = render (Some (List.init 8 (fun i -> alert (i * 100)))) in
  Alcotest.(check bool) "cap note" true (contains many "(last 5 shown)");
  Alcotest.(check bool) "newest retained" true (contains many "step 700");
  Alcotest.(check bool) "oldest dropped" false (contains many "step 0  ")

let test_dashboard_coverage_row () =
  let manifest =
    Json.Obj [ ("kind", Json.Str "train"); ("status", Json.Str "running") ]
  in
  let render coverage =
    Obs.Dashboard.render ?coverage:(Some coverage) ~id:"r10" ~manifest
      ~records:[] ~dropped:0 ()
  in
  (* pre-coverage run: an explicit placeholder, like the alerts row *)
  Alcotest.(check bool) "placeholder for pre-coverage runs" true
    (contains (render None) "coverage (not recorded by this run)");
  (* a real table renders its edge / entropy / node summary *)
  let cov =
    Obs.Coverage.create
      { Obs.Coverage.nodes = [| "a"; "b"; "c" |];
        Obs.Coverage.edges = [| (0, 1); (1, 2) |];
        Obs.Coverage.action_paths = [| [| 0; 1 |]; [| 2 |] |] }
  in
  Obs.Coverage.observe cov ~action:0 ~pos:0 ~reward:0.0 ~r_binsize:0.0
    ~r_throughput:0.0;
  let frame = render (Some cov) in
  Alcotest.(check bool) "edge fraction rendered" true
    (contains frame "coverage edges 1/2 (50.0%)");
  Alcotest.(check bool) "entropy rendered" true (contains frame "0.00 bits");
  Alcotest.(check bool) "node fraction rendered" true
    (contains frame "nodes 2/3")

(* episode records with their per-step reward split, as the trainer
   writes them *)
let episode ~episode ~reward actions =
  Runlog.episode_record ~actions
    ~step_rewards:(List.mapi (fun i a -> (float_of_int (a - i), 0.5, 0.25)) actions)
    ~episode ~step:(10 * episode) ~reward ~r_binsize:0.0 ~r_throughput:0.0
    ~size_gain_pct:0.0 ~thru_gain_pct:0.0 ~epsilon:1.0 ~loss:0.0 ()

let test_dashboard_explain_golden () =
  let records =
    [ episode ~episode:1 ~reward:2.5 [ 0; 0; 0; 0 ];
      Runlog.tick_record ~step:20 ~episode:2 ~epsilon:0.9 ~mean_reward:1.0
        ~mean_size_gain:0.0 ~r_binsize:0.0 ~r_throughput:0.0 ~loss:0.0 ();
      episode ~episode:2 ~reward:(-1.0) [ 0; 0; 0; 1 ];
      episode ~episode:3 ~reward:7.25 (List.init 10 (fun _ -> 2));
      episode ~episode:4 ~reward:0.0 [ 2 ] ]
  in
  Alcotest.(check string) "top schedules"
    {|
top 2 schedules by episode reward:
  #1  episode 3  reward    7.250  seq 2->2->2->2->2->2->2->2->2->2
        pos 0  action 2   r    2.000  (binsize    0.500  throughput    0.250)
        pos 1  action 2   r    1.000  (binsize    0.500  throughput    0.250)
        pos 2  action 2   r    0.000  (binsize    0.500  throughput    0.250)
        pos 3  action 2   r   -1.000  (binsize    0.500  throughput    0.250)
        pos 4  action 2   r   -2.000  (binsize    0.500  throughput    0.250)
        pos 5  action 2   r   -3.000  (binsize    0.500  throughput    0.250)
        pos 6  action 2   r   -4.000  (binsize    0.500  throughput    0.250)
        pos 7  action 2   r   -5.000  (binsize    0.500  throughput    0.250)
        pos 8  action 2   r   -6.000  (binsize    0.500  throughput    0.250)
        pos 9  action 2   r   -7.000  (binsize    0.500  throughput    0.250)
  #2  episode 1  reward    2.500  seq 0->0->0->0
        pos 0  action 0   r    0.000  (binsize    0.500  throughput    0.250)
        pos 1  action 0   r   -1.000  (binsize    0.500  throughput    0.250)
        pos 2  action 0   r   -2.000  (binsize    0.500  throughput    0.250)
        pos 3  action 0   r   -3.000  (binsize    0.500  throughput    0.250)
|}
    (Obs.Dashboard.schedules ~k:2 records);
  Alcotest.(check string) "drift timeline"
    {|
action-distribution drift (KL vs previous window):
  episodes    1-1     KL 0.0705
  episodes    2-2     KL 1.2500  << drift
  episodes    3-3     KL 0.3263
|}
    (Obs.Dashboard.drift ~n_actions:4 records);
  Alcotest.(check string) "one window: no timeline" ""
    (Obs.Dashboard.drift ~n_actions:4 [ episode ~episode:1 ~reward:1.0 [ 3 ] ])

(* An action id past the run's action space is skipped: it neither
   widens the windows (the timeline stays cheap) nor changes a byte. *)
let test_drift_out_of_range_id () =
  let records crafted =
    List.init 16 (fun e ->
        let actions = [ 1; 0; e mod 3 ] in
        episode ~episode:e ~reward:0.0
          (if e = 0 && crafted then 2_000_000 :: actions else actions))
  in
  let clean = Obs.Dashboard.drift ~n_actions:4 (records false) in
  let before = Gc.allocated_bytes () in
  let crafted = Obs.Dashboard.drift ~n_actions:4 (records true) in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "under 1 MB allocated (%.0f B)" allocated)
    true (allocated < 1e6);
  Alcotest.(check string) "same timeline as without the id" clean crafted

(* --- progress-record diagnostics fields ----------------------------------------- *)

let test_record_diagnostic_fields () =
  let with_q =
    Runlog.tick_record ~q_mean:0.5 ~q_max:2.0 ~step:1 ~episode:0 ~epsilon:1.0
      ~mean_reward:0.0 ~mean_size_gain:0.0 ~r_binsize:0.0 ~r_throughput:0.0
      ~loss:0.0 ()
  in
  check_float "q_mean persisted" 0.5 (Option.get (Runlog.num "q_mean" with_q));
  check_float "q_max persisted" 2.0 (Option.get (Runlog.num "q_max" with_q));
  let without_q =
    Runlog.tick_record ~step:1 ~episode:0 ~epsilon:1.0 ~mean_reward:0.0
      ~mean_size_gain:0.0 ~r_binsize:0.0 ~r_throughput:0.0 ~loss:0.0 ()
  in
  Alcotest.(check (option (float 0.0))) "q fields omitted when absent" None
    (Runlog.num "q_mean" without_q);
  let ep =
    Runlog.episode_record ~actions:[ 4; 2 ] ~episode:0 ~step:15 ~reward:1.0
      ~r_binsize:0.0 ~r_throughput:0.0 ~size_gain_pct:0.0 ~thru_gain_pct:0.0
      ~epsilon:1.0 ~loss:0.0 ()
  in
  match Runlog.field "actions" ep with
  | Some (Json.Arr [ Json.Int 4; Json.Int 2 ]) -> ()
  | _ -> Alcotest.fail "episode actions should persist in order"

let suite =
  [ Alcotest.test_case "sanitize_name" `Quick test_sanitize_name;
    Alcotest.test_case "escape_label_value" `Quick test_escape_label_value;
    Alcotest.test_case "format_value" `Quick test_format_value;
    Alcotest.test_case "scrape golden" `Quick test_scrape_golden;
    Alcotest.test_case "Metrics.sum + row fields" `Quick test_metrics_sum_accessor;
    Alcotest.test_case "parse_request" `Quick test_parse_request;
    Alcotest.test_case "parse_request hardening" `Quick
      test_parse_request_hardening;
    Alcotest.test_case "render_response" `Quick test_render_response;
    Alcotest.test_case "telemetry routes" `Quick test_telemetry_routes;
    Alcotest.test_case "/alerts route" `Quick test_alerts_route;
    Alcotest.test_case "/coverage route" `Quick test_coverage_route;
    Alcotest.test_case "live socket" `Quick test_live_socket;
    Alcotest.test_case "chrome round trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "chrome worker tracks" `Quick test_chrome_worker_tracks;
    Alcotest.test_case "chrome write" `Quick test_chrome_write_is_valid_json;
    Alcotest.test_case "action histogram" `Quick test_action_histogram;
    Alcotest.test_case "dashboard render" `Quick test_dashboard_render;
    Alcotest.test_case "dashboard alerts row" `Quick test_dashboard_alerts_row;
    Alcotest.test_case "explain schedules and drift golden" `Quick
      test_dashboard_explain_golden;
    Alcotest.test_case "drift skips out-of-range action ids" `Quick
      test_drift_out_of_range_id;
    Alcotest.test_case "dashboard coverage row" `Quick
      test_dashboard_coverage_row;
    Alcotest.test_case "record diagnostics" `Quick test_record_diagnostic_fields ]
