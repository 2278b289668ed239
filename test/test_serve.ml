(* Tests for the optimization-as-a-service layer (lib/serve): the
   byte-bounded LRU result cache, admission control over untrusted IR,
   the cached/uncached/batched byte-identity contract against
   [Inference.predict], and the live server loop — routing, cache hits,
   backpressure — over a loopback ephemeral port. *)

module Obs = Posetrl_obs
module Json = Obs.Json
module Runlog = Obs.Runlog
module Httpd = Obs.Httpd
module Cache = Posetrl_serve.Cache
module Engine = Posetrl_serve.Engine
module Server = Posetrl_serve.Server
module C = Posetrl_core
module O = Posetrl_odg
module CG = Posetrl_codegen
module W = Posetrl_workloads
module Rl = Posetrl_rl
open Posetrl_ir

(* --- the LRU result cache ------------------------------------------------------ *)

let test_cache_lru_eviction () =
  let c = Cache.create ~max_bytes:100 () in
  Cache.add c ~key:"a" ~bytes:40 1;
  Cache.add c ~key:"b" ~bytes:40 2;
  Cache.add c ~key:"c" ~bytes:40 3;
  (* a was least-recently-used: evicted to fit c *)
  Alcotest.(check (list string)) "MRU-first order" [ "c"; "b" ] (Cache.keys c);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  Alcotest.(check int) "bytes fit the bound" 80 (Cache.total_bytes c);
  Alcotest.(check (option int)) "a gone" None (Cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c "c")

let test_cache_find_refreshes () =
  let c = Cache.create ~max_bytes:100 () in
  Cache.add c ~key:"a" ~bytes:40 1;
  Cache.add c ~key:"b" ~bytes:40 2;
  ignore (Cache.find c "a");
  (* a is now MRU, so the next eviction takes b *)
  Cache.add c ~key:"c" ~bytes:40 3;
  Alcotest.(check (list string)) "b evicted, a kept" [ "c"; "a" ] (Cache.keys c);
  (* mem neither refreshes order nor counts toward hit/miss *)
  let h = Cache.hits c and m = Cache.misses c in
  ignore (Cache.mem c "a");
  ignore (Cache.mem c "nope");
  Alcotest.(check int) "mem leaves hits" h (Cache.hits c);
  Alcotest.(check int) "mem leaves misses" m (Cache.misses c)

let test_cache_replace_and_oversize () =
  let c = Cache.create ~max_bytes:100 () in
  Cache.add c ~key:"a" ~bytes:40 1;
  Cache.add c ~key:"a" ~bytes:60 2;
  Alcotest.(check int) "replace keeps one entry" 1 (Cache.length c);
  Alcotest.(check int) "replace swaps the bytes" 60 (Cache.total_bytes c);
  Alcotest.(check (option int)) "replace swaps the value" (Some 2)
    (Cache.find c "a");
  (* an entry that can never fit is refused without evicting the rest *)
  Cache.add c ~key:"huge" ~bytes:200 3;
  Alcotest.(check (option int)) "oversize refused" None (Cache.find c "huge");
  Alcotest.(check int) "existing entry survives" 1 (Cache.length c)

let test_cache_hit_miss_counters () =
  let c = Cache.create () in
  Cache.add c ~key:"a" ~bytes:1 0;
  ignore (Cache.find c "a");
  ignore (Cache.find c "a");
  ignore (Cache.find c "nope");
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

(* --- engine: admission + inference identity ------------------------------------ *)

let x86 = CG.Target.x86_64

let mk_agent () =
  let rng = Posetrl_support.Rng.create 0 in
  Rl.Dqn.create rng ~state_dim:C.Environment.state_dim ~hidden:[ 16; 8 ]
    ~n_actions:(O.Action_space.n_actions O.Action_space.odg)

let mk_engine ?cache_bytes ?max_steps () =
  Engine.create ?cache_bytes ?max_steps ~agent:(mk_agent ())
    ~actions:O.Action_space.odg ~target:x86 ()

let suite_programs = lazy (W.Suites.all_programs ())

let program (i : int) : Modul.t =
  let ps = Lazy.force suite_programs in
  snd (List.nth ps (i mod List.length ps))

let test_admit () =
  let e = mk_engine () in
  (match Engine.admit e "complete garbage !!" with
   | Error diag ->
     Alcotest.(check (option string)) "parse error reported"
       (Some "parse error") (Runlog.str "error" diag)
   | Ok _ -> Alcotest.fail "garbage must not be admitted");
  let text = Printer.module_to_string (program 0) in
  match Engine.admit e text, Engine.admit e (text ^ "\n\n") with
  | Ok a, Ok b ->
    Alcotest.(check string) "whitespace variants share a key" a.Engine.key
      b.Engine.key
  | _ -> Alcotest.fail "a suite program must be admitted"

let schedule_of (doc : Json.t) : int list =
  match Runlog.field "schedule" doc with
  | Some (Json.Arr xs) ->
    List.map (function Json.Int i -> i | _ -> -1) xs
  | _ -> Alcotest.fail "result document has no schedule"

(* The serving contract: cached, uncached and batched answers are all
   byte-identical to a plain [Inference.predict] rollout. *)
let prop_cache_identity =
  QCheck2.Test.make ~count:4
    ~print:QCheck2.Print.int
    ~name:"/optimize = cached /optimize = Inference.predict"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let e = mk_engine () in
      let m = program seed in
      let adm =
        match Engine.admit e (Printer.module_to_string m) with
        | Ok adm -> adm
        | Error _ -> QCheck2.Test.fail_report "suite program rejected"
      in
      let cold = Engine.optimize e adm in
      let hot = Engine.optimize e adm in
      if Json.to_string cold <> Json.to_string hot then
        QCheck2.Test.fail_report "cached answer differs from uncached";
      let roll =
        C.Inference.predict ~agent:(mk_agent ()) ~actions:O.Action_space.odg
          ~target:x86 m
      in
      if schedule_of cold <> roll.C.Inference.actions then
        QCheck2.Test.fail_report "schedule differs from Inference.predict";
      (match Runlog.str "optimized_ir" cold with
       | Some ir
         when ir = Printer.module_to_string roll.C.Inference.optimized ->
         ()
       | _ -> QCheck2.Test.fail_report "optimized IR differs");
      true)

let test_batched_rollout_matches_sequential () =
  let e = mk_engine () in
  let ms = [ program 0; program 3; program 7 ] in
  let adms =
    List.map
      (fun m ->
        match Engine.admit e (Printer.module_to_string m) with
        | Ok adm -> adm
        | Error _ -> Alcotest.fail "suite program rejected")
      ms
  in
  let docs = Engine.optimize_many e adms in
  List.iter2
    (fun m doc ->
      let roll =
        C.Inference.predict ~agent:(mk_agent ()) ~actions:O.Action_space.odg
          ~target:x86 m
      in
      Alcotest.(check (list int))
        (Printf.sprintf "batched schedule for %s" m.Modul.name)
        roll.C.Inference.actions (schedule_of doc))
    ms docs;
  (* a duplicate in the batch is deduplicated but still answered *)
  let twice = Engine.optimize_many e [ List.hd adms; List.hd adms ] in
  match twice with
  | [ a; b ] ->
    Alcotest.(check string) "duplicate answered identically"
      (Json.to_string a) (Json.to_string b)
  | _ -> Alcotest.fail "two requests, two answers"

(* --- server: live socket -------------------------------------------------------- *)

(* Open a connection and write the request bytes without reading yet —
   the pump answers once all concurrent clients are connected. *)
let send ~port (raw : string) : Unix.file_descr =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  ignore (Unix.write_substring sock raw 0 (String.length raw));
  sock

let recv (sock : Unix.file_descr) : string =
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 8192 in
      let eof = ref false in
      while not !eof do
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> eof := true
        | n -> Buffer.add_subbytes buf chunk 0 n
      done;
      Buffer.contents buf)

let post ?(path = "/optimize") (body : string) : string =
  Printf.sprintf "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
    path (String.length body) body

let status_of (raw : string) : int = int_of_string (String.sub raw 9 3)

let body_of (raw : string) : string =
  let rec find i =
    if i + 3 >= String.length raw then String.length raw
    else if String.sub raw i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  String.sub raw i (String.length raw - i)

let with_server ?max_body ?queue_cap (f : Server.t -> 'a) : 'a =
  let engine = mk_engine () in
  let srv = Server.create ?max_body ?queue_cap ~port:0 ~engine () in
  Fun.protect ~finally:(fun () -> Server.close srv) (fun () -> f srv)

let test_server_optimize_and_cache () =
  with_server (fun srv ->
      let port = Server.port srv in
      let text = Printer.module_to_string (program 0) in
      let s1 = send ~port (post text) in
      Server.pump srv;
      let r1 = recv s1 in
      Alcotest.(check int) "cold optimize is 200" 200 (status_of r1);
      let doc = Json.of_string (body_of r1) in
      Alcotest.(check (option string)) "result kind" (Some "optimize-result")
        (Runlog.str "kind" doc);
      (match Runlog.str "optimized_ir" doc with
       | Some ir -> ignore (Parser.parse_module ir)
       | None -> Alcotest.fail "optimized IR missing");
      Alcotest.(check bool) "non-empty schedule" true (schedule_of doc <> []);
      (* second POST: byte-identical bytes, counted as a cache hit *)
      let s2 = send ~port (post text) in
      Server.pump srv;
      let r2 = recv s2 in
      Alcotest.(check string) "hit is byte-identical" r1 r2;
      let stats = Server.stats_json srv in
      Alcotest.(check (option (float 0.0))) "one cache hit" (Some 1.0)
        (Runlog.num "cache_hits" stats);
      Alcotest.(check (option (float 0.0))) "stats count requests" (Some 2.0)
        (Runlog.num "requests" stats))

let test_server_backpressure () =
  with_server ~queue_cap:1 (fun srv ->
      let port = Server.port srv in
      let text = Printer.module_to_string (program 1) in
      (* two concurrent misses against a queue of one: exactly one gets
         served, the other is told to come back *)
      let s1 = send ~port (post text) in
      let s2 = send ~port (post text) in
      Server.pump srv;
      let rs = [ recv s1; recv s2 ] in
      let codes = List.sort compare (List.map status_of rs) in
      Alcotest.(check (list int)) "one 200, one 429" [ 200; 429 ] codes;
      let busy = List.find (fun r -> status_of r = 429) rs in
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "Retry-After advertised" true
        (contains busy "Retry-After:");
      (* the rejected client retries once the queue drained: now a hit *)
      let s3 = send ~port (post text) in
      Server.pump srv;
      Alcotest.(check int) "retry succeeds" 200 (status_of (recv s3)))

let test_server_batch_route () =
  with_server (fun srv ->
      let port = Server.port srv in
      let good = Printer.module_to_string (program 2) in
      let body = Json.to_string (Json.Arr [ Json.Str good; Json.Str "junk !" ]) in
      let s = send ~port (post ~path:"/optimize/batch" body) in
      Server.pump srv;
      let raw = recv s in
      Alcotest.(check int) "batch is 200" 200 (status_of raw);
      match Runlog.field "results" (Json.of_string (body_of raw)) with
      | Some (Json.Arr [ ok; bad ]) ->
        Alcotest.(check (option string)) "first optimized"
          (Some "optimize-result") (Runlog.str "kind" ok);
        Alcotest.(check (option string)) "second rejected with diagnostics"
          (Some "parse error") (Runlog.str "error" bad)
      | _ -> Alcotest.fail "batch must answer per-item results")

let test_server_admission_and_limits () =
  with_server ~max_body:512 (fun srv ->
      let port = Server.port srv in
      (* malformed IR: a 400 carrying the diagnostics document *)
      let s1 = send ~port (post "module broken\nfunc @f() {") in
      Server.pump srv;
      let r1 = recv s1 in
      Alcotest.(check int) "malformed IR is 400" 400 (status_of r1);
      let diag = Json.of_string (body_of r1) in
      Alcotest.(check bool) "diagnostics present" true
        (Runlog.field "diagnostics" diag <> None);
      (* literals the stdlib conversions reject: each one a 400, and the
         daemon keeps answering *)
      List.iter
        (fun (path, body) ->
          let s = send ~port (post ~path body) in
          Server.pump srv;
          Alcotest.(check int) (path ^ " " ^ body ^ " is 400") 400
            (status_of (recv s)))
        [ ("/optimize/batch", "garbage");
          ("/optimize/batch", "[1.2.3]");
          ("/optimize/batch", "[-]");
          ("/optimize/batch", "[\"\\uZZZZ\"]");
          ("/optimize",
           "module m\nfunc @main(): i64 {\nentry:\n  ret i64 \
            99999999999999999999999\n}\n");
          (* well-formed text, but integer arithmetic on a pointer *)
          ("/optimize",
           "module m\nfunc @main(): i64 {\nentry:\n  %0 = alloca i64 x 1\n\
            %1 = mul ptr %0, 16\n  %2 = load i64, %1\n  ret i64 %2\n}\n") ];
      let s = send ~port "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" in
      Server.pump srv;
      Alcotest.(check int) "healthz still answers" 200 (status_of (recv s));
      (* a body over the bound: 413 before any parsing happens *)
      let s2 = send ~port (post (String.make 2048 'x')) in
      Server.pump srv;
      Alcotest.(check int) "oversized body is 413" 413 (status_of (recv s2));
      (* GET /serve: the live stats document *)
      let s3 = send ~port "GET /serve HTTP/1.1\r\nHost: t\r\n\r\n" in
      Server.pump srv;
      let stats = Json.of_string (body_of (recv s3)) in
      Alcotest.(check (option string)) "stats kind" (Some "serve-stats")
        (Runlog.str "kind" stats))

let suite =
  [ Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache find refreshes" `Quick test_cache_find_refreshes;
    Alcotest.test_case "cache replace + oversize" `Quick
      test_cache_replace_and_oversize;
    Alcotest.test_case "cache hit/miss counters" `Quick
      test_cache_hit_miss_counters;
    Alcotest.test_case "admission" `Quick test_admit;
    QCheck_alcotest.to_alcotest prop_cache_identity;
    Alcotest.test_case "batched = sequential rollout" `Slow
      test_batched_rollout_matches_sequential;
    Alcotest.test_case "server optimize + cache hit" `Quick
      test_server_optimize_and_cache;
    Alcotest.test_case "server backpressure" `Quick test_server_backpressure;
    Alcotest.test_case "server batch route" `Quick test_server_batch_route;
    Alcotest.test_case "server admission + limits" `Quick
      test_server_admission_and_limits ]
