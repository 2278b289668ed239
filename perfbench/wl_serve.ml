(* serve: the [serve --opt] daemon, bound on a loopback port and pumped
   in process, answering a seeded request stream from a closed loop of
   two clients (two requests in flight: each wave sends two, pumps once
   and reads both answers before the next wave). Four request classes
   with fixed shares:
   - fresh: a module never sent before — a miss that pays admission, an
     Ssa-sanitized rollout and the result document;
   - raw: a byte-identical repeat of an answered module — a raw-key hit;
   - canon: a whitespace-reformatted repeat — a canonical-key hit that
     pays parse and sanitize but no rollout;
   - bad: a malformed or unsanitary body — an expected 400 with lint
     diagnostics.
   It is the only workload that runs the parser, sanitizer, cache, JSON
   and HTTP layers. An op is one answered request; [--seconds] sets the
   request count (200 per second). *)

open Common
module T = Trace
module W = Posetrl_workloads
module A = Posetrl_analysis
module Engine = Posetrl_serve.Engine
module Server = Posetrl_serve.Server
module Cache = Posetrl_serve.Cache
module Nn = Posetrl_nn
open Posetrl_ir

type klass = Fresh | Raw | Canon | Bad

let klass_name = function Fresh -> "fresh" | Raw -> "raw" | Canon -> "canon" | Bad -> "bad"
let classes = [ Fresh; Raw; Canon; Bad ]

type request = {
  k : klass;
  body : string;
  origin : int;  (* index of the fresh module a request carries; -1 for bad *)
}

let in_flight = 2
let requests_per_second = 200

(* A parseable module whose extra function uses a register before its
   definition: admission's Ssa check must reject it. *)
let unsanitary_fn =
  "\ninternal func @bench_unsanitary(%0: i64): i64 {\nentry:\n\
  \  %2 = add i64 %1, 1\n  %1 = add i64 %0, 1\n  ret i64 %2\n}\n"

type stream = {
  waves : request list list;
  modules : Modul.t array;  (* the fresh modules, by origin *)
}

let fresh_module ~seed i =
  let s = 2_000_000 + (seed * 10_000) + i in
  if i mod 2 = 0 then W.Templates.generate ~seed:s else W.Genprog.generate ~seed:s

(* Shares, exact in every block of 20 requests (shuffled within it):
   15% bad, 25% fresh, 40% raw, 20% canon. Repeats pick among modules
   answered in an earlier wave, so the first wave's repeats become
   fresh requests. *)
let block = Array.concat [ Array.make 3 Bad; Array.make 5 Fresh; Array.make 8 Raw; Array.make 4 Canon ]

let make_stream ~seed ~n ~(lap : unit -> unit) : stream =
  let module R = Posetrl_support.Rng in
  let rng = R.create ((seed * 7919) + 13) in
  let modules = ref [] and texts = Hashtbl.create 512 and n_fresh = ref 0 in
  let answered = ref 0 in
  let fresh () =
    let m = fresh_module ~seed !n_fresh in
    modules := m :: !modules;
    Hashtbl.replace texts !n_fresh (Printer.module_to_string m);
    incr n_fresh;
    { k = Fresh; body = Hashtbl.find texts (!n_fresh - 1); origin = !n_fresh - 1 }
  in
  let deck = ref [] in
  let request () =
    if !deck = [] then begin
      let b = Array.copy block in
      R.shuffle rng b;
      deck := Array.to_list b
    end;
    let k = List.hd !deck in
    deck := List.tl !deck;
    match k with
    | Bad ->
      let text =
        if !n_fresh = 0 then Printer.module_to_string (fresh_module ~seed (-1))
        else Hashtbl.find texts (R.int rng !n_fresh)
      in
      if R.bool rng then
        (* cut mid-module and end on tokens no parse accepts *)
        let cut = 1 + R.int rng (String.length text - 1) in
        { k = Bad; body = String.sub text 0 cut ^ "\n}} @@ !"; origin = -1 }
      else { k = Bad; body = text ^ unsanitary_fn; origin = -1 }
    | Fresh -> fresh ()
    | (Raw | Canon) when !answered = 0 -> fresh ()
    | Raw ->
      let j = R.int rng !answered in
      { k = Raw; body = Hashtbl.find texts j; origin = j }
    | Canon ->
      let j = R.int rng !answered in
      let pad = String.make (1 + R.int rng 3) '\n' in
      { k = Canon; body = pad ^ Hashtbl.find texts j ^ pad; origin = j }
  in
  let waves = ref [] in
  for k = 1 to (n + in_flight - 1) / in_flight do
    if k mod 50 = 0 then lap ();
    let w = ref [] in
    for _ = 1 to in_flight do
      w := request () :: !w
    done;
    waves := List.rev !w :: !waves;
    answered := !n_fresh
  done;
  { waves = List.rev !waves; modules = Array.of_list (List.rev !modules) }

(* --- the real daemon over loopback sockets ----------------------------------- *)

let post body =
  Printf.sprintf "POST /optimize HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body

let send port raw =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  ignore (Unix.write_substring sock raw 0 (String.length raw));
  sock

let recv sock =
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Buffer.create 8192 and chunk = Bytes.create 65536 in
      let eof = ref false in
      while not !eof do
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> eof := true
        | k -> Buffer.add_subbytes buf chunk 0 k
      done;
      Buffer.contents buf)

let split_response (raw : string) : int * string =
  let status = try int_of_string (String.sub raw 9 3) with _ -> 0 in
  let rec find i =
    if i + 3 >= String.length raw then String.length raw
    else if String.sub raw i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  (status, String.sub raw i (String.length raw - i))

(* What the checks need of an answer: its status, the digest of its body
   (repeats must be byte-identical), a fresh answer's schedule and whether
   a 400 carries diagnostics. Bodies are not kept, so the workload's heap
   holds the server's data, not the client's copies of every answer. *)
type answer = {
  status : int;
  digest : Digest.t;
  schedule : int list option;  (* fresh requests *)
  diagnostics : bool;          (* bad requests *)
  latency : float;
  norm_latency : float;
}

let field name (body : string) : Json.t option =
  match Posetrl_obs.Runlog.field name (Json.of_string body) with
  | v -> v
  | exception _ -> None

let schedule_of (body : string) : int list option =
  match field "schedule" body with
  | Some (Json.Arr xs) -> Some (List.map (function Json.Int i -> i | _ -> -1) xs)
  | _ -> None

(* The answer's latency is normalized once the run's probes are in. *)
let summarize (r : request) ~status ~body ~latency : answer =
  { status;
    digest = Digest.string body;
    schedule = (if r.k = Fresh then schedule_of body else None);
    diagnostics = r.k = Bad && field "diagnostics" body <> None;
    latency;
    norm_latency = nan }

(* Waves between speed probes (a probe costs about 1.5 ms, 10 waves
   about 70 ms); probes run between waves, outside every latency. *)
let probe_every = 10

(* Play every wave against the server; returns the answers in request
   order, the summed raw and normalized wall time of the waves, and the
   probe samples (with the heap peak). *)
let play (srv : Server.t) (st : stream) : answer array * float * float * Speed.t =
  let port = Server.port srv in
  let sp = Speed.create () in
  let waves = ref [] in
  List.iteri
    (fun w wave ->
      if w mod probe_every = 0 then Speed.tick sp;
      let t0 = now () in
      let sent = List.map (fun (r : request) -> (now (), send port (post r.body))) wave in
      Server.pump srv;
      let got =
        List.map
          (fun (ts, sock) ->
            let status, body = split_response (recv sock) in
            (status, body, now () -. ts))
          sent
      in
      let d = now () -. t0 in
      (* outside the wave's time: keep what the checks need, drop the body *)
      let got =
        List.map2 (fun r (status, body, latency) -> summarize r ~status ~body ~latency) wave got
      in
      waves := (d, Speed.segment sp, got) :: !waves)
    st.waves;
  Speed.tick sp;
  let waves = List.rev !waves in
  let norm seg d = Speed.normalize sp ~seg d in
  let answers =
    List.concat_map
      (fun (_, seg, got) ->
        List.map (fun a -> { a with norm_latency = norm seg a.latency }) got)
      waves
  in
  ( Array.of_list answers,
    List.fold_left (fun acc (d, _, _) -> acc +. d) 0.0 waves,
    List.fold_left (fun acc (d, seg, _) -> acc +. norm seg d) 0.0 waves,
    sp )

(* --- the engine side re-driven through each layer's public call -------------- *)

type outcome = Raw_hit | Canon_hit | Miss | Rejected

let outcome_class = function Raw_hit -> Raw | Canon_hit -> Canon | Miss -> Fresh | Rejected -> Bad

(* [Engine]'s configuration salt and raw-body key, as it builds them;
   a wrong copy shows up as a raw repeat that misses. *)
let raw_key_of (body : string) : string =
  let salt =
    String.concat "\x00"
      [ target.Posetrl_codegen.Target.name;
        string_of_int (Posetrl_odg.Action_space.n_actions actions);
        string_of_int C.Environment.default_max_steps ]
  in
  Digest.to_hex (Digest.string (String.concat "\x00" [ salt; "raw"; body ]))

let measure_json cx (m : Modul.t) : Json.t =
  let tr = cx.Step.tr in
  let size = T.span tr "codegen.objfile" (fun () -> Posetrl_codegen.Objfile.size target m) in
  let text = T.span tr "codegen.objfile" (fun () -> Posetrl_codegen.Objfile.text_size target m) in
  let thru = T.span tr "mca" (fun () -> Posetrl_mca.Mca.throughput target m) in
  Json.Obj [ ("size_b", Json.Int size); ("text_b", Json.Int text); ("throughput", Json.Float thru) ]

let pct num den = if den = 0.0 then 0.0 else 100.0 *. num /. den

(* [Engine.result_json], call for call. *)
let result_json cx ~(input : Modul.t) ~schedule ~(optimized : Modul.t) : Json.t =
  let tr = cx.Step.tr in
  let size m = float_of_int (T.span tr "codegen.objfile" (fun () -> Posetrl_codegen.Objfile.size target m)) in
  let thru m = T.span tr "mca" (fun () -> Posetrl_mca.Mca.throughput target m) in
  let isize = size input in
  let osize = size optimized in
  let ithru = thru input in
  let othru = thru optimized in
  let input_j = measure_json cx input in
  let optimized_j = measure_json cx optimized in
  let ir = T.span tr "ir.printer" (fun () -> Printer.module_to_string optimized) in
  Json.Obj
    [ ("kind", Json.Str "optimize-result");
      ("module", Json.Str input.Modul.name);
      ("schedule", Json.Arr (List.map (fun a -> Json.Int a) schedule));
      ("passes",
       Json.Arr
         (List.concat_map
            (fun a -> List.map (fun p -> Json.Str p) (Posetrl_odg.Action_space.action actions a))
            schedule));
      ("input", input_j);
      ("optimized", optimized_j);
      ("deltas",
       Json.Obj
         [ ("size_reduction_pct", Json.Float (pct (isize -. osize) isize));
           ("throughput_improvement_pct", Json.Float (pct (othru -. ithru) ithru)) ]);
      ("optimized_ir", Json.Str ir) ]

(* [Engine.rollout_batch]: one forward_batch per episode step over every
   live module. *)
let rollout cx (agent : Rl.Dqn.t) (ms : Modul.t list) : (int list * Modul.t) list =
  let tr = cx.Step.tr in
  let slots =
    Array.of_list
      (List.map
         (fun m ->
           let e, s = Step.reset cx m in
           (e, ref s, ref [], ref false))
         ms)
  in
  let live () =
    List.filter (fun i -> let _, _, _, fin = slots.(i) in not !fin)
      (List.init (Array.length slots) Fun.id)
  in
  let rec loop () =
    match live () with
    | [] -> ()
    | idx ->
      let x = Nn.Matrix.of_rows (Array.of_list (List.map (fun i -> let _, s, _, _ = slots.(i) in !s) idx)) in
      T.count tr "rl.forward.rows" (float_of_int (List.length idx));
      let q = T.span tr "rl.forward" (fun () -> Nn.Mlp.forward_batch agent.Rl.Dqn.online x) in
      List.iteri
        (fun k i ->
          let e, s, taken, fin = slots.(i) in
          let a = Posetrl_support.Vecf.argmax (Nn.Matrix.row q k) in
          taken := a :: !taken;
          let r = Step.step e a in
          s := r.C.Environment.state;
          fin := r.C.Environment.terminal)
        idx;
      loop ()
  in
  loop ();
  Array.to_list (Array.map (fun (e, _, taken, _) -> (List.rev !taken, e.Step.cur)) slots)

(* One wave through the engine side: raw-key lookup, admission (parse,
   sanitize, canonical key), cache, coalesced rollout of the misses,
   result document and serialization. Returns each request's outcome and
   response body. *)
let redrive_wave cx (engine : Engine.t) agent (wave : request list) : (outcome * string) list =
  let tr = cx.Step.tr in
  let cache = Engine.cache engine in
  let to_string doc = T.span tr "obs.json" (fun () -> Json.to_string doc) in
  (* the response body, as [Httpd.json_response] frames it *)
  let answer doc = to_string doc ^ "\n" in
  let lookup () = T.count tr "serve.cache.lookups" 1.0 in
  let hit () = T.count tr "serve.cache.hits" 1.0 in
  let first =
    List.map
      (fun (r : request) ->
        match T.span tr "serve.cache" (fun () -> Engine.find_raw engine r.body) with
        | Some doc -> lookup (); hit (); `Done (Raw_hit, answer doc)
        | None ->
          match T.span tr "ir.parser" (fun () -> Parser.parse_module r.body) with
          | exception Parser.Parse_error msg ->
            `Done
              ( Rejected,
                answer
                  (Json.Obj
                     [ ("error", Json.Str "parse error");
                       ("detail", Json.Str msg);
                       ("diagnostics", Json.Arr []) ]) )
          | m ->
            match T.span tr "analysis.sanitize" (fun () -> A.Sanitize.check_module A.Sanitize.Ssa m) with
            | _ :: _ as errs ->
              `Done
                ( Rejected,
                  answer
                    (Json.Obj
                       [ ("error", Json.Str "rejected by sanitizer");
                         ("sanitizer",
                          Json.Arr (List.map (fun e -> Json.Str (Verifier.error_to_string e)) errs));
                         ("diagnostics", A.Lint.to_json ~name:m.Modul.name (A.Lint.lint_module m)) ]) )
            | [] ->
              let key = T.span tr "ir.printer" (fun () -> Engine.key_of engine m) in
              lookup ();
              match T.span tr "serve.cache" (fun () -> Cache.find cache key) with
              | Some doc -> hit (); `Done (Canon_hit, answer doc)
              | None -> `Miss (key, raw_key_of r.body, m))
      wave
  in
  let misses = List.filter_map (function `Miss x -> Some x | `Done _ -> None) first in
  let docs =
    match misses with
    | [] -> []
    | _ ->
      List.map2
        (fun (key, raw_key, input) (schedule, optimized) ->
          let doc = result_json cx ~input ~schedule ~optimized in
          let bytes = String.length (to_string doc) + String.length key in
          T.span tr "serve.cache" (fun () ->
              Cache.add cache ~key ~bytes doc;
              Cache.add cache ~key:raw_key ~bytes doc);
          answer doc)
        misses
        (rollout cx agent (List.map (fun (_, _, m) -> m) misses))
  in
  let rest = ref docs in
  List.map
    (function
      | `Done d -> d
      | `Miss _ ->
        let d = List.hd !rest in
        rest := List.tl !rest;
        (Miss, d))
    first

(* Replay the stream on a fresh engine; returns outcomes and bodies in
   request order. [lap] runs between waves, every [probe_every], as the
   speed probes do in [play]. *)
let redrive (tr : T.t) agent ~(lap : unit -> unit) (st : stream) : (outcome * string) array =
  let cx = Step.create ~sanitize:A.Sanitize.Ssa tr in
  let engine = Engine.create ~agent ~actions ~target () in
  Array.of_list
    (List.concat
       (List.mapi
          (fun w wave ->
            let out = ref [] in
            T.op ~n:(List.length wave) tr (fun () -> out := redrive_wave cx engine agent wave);
            if (w + 1) mod probe_every = 0 then lap ();
            !out)
          st.waves))

(* --- the workload ----------------------------------------------------------- *)

type setup = { agent : Rl.Dqn.t; stream : stream; srv : Server.t }

let setup ~seed ~seconds ~lap : setup =
  let agent = fixed_agent ~lap in
  lap ();
  let stream = make_stream ~seed ~n:(requests_per_second * seconds) ~lap in
  lap ();
  let engine = Engine.create ~agent ~actions ~target () in
  { agent; stream; srv = Server.create ~port:0 ~engine () }

let setup_reps = 5

let run ~seed ~seconds ~trace : result =
  let s, setup_metrics =
    timed_setup ~dispose:(fun x -> Server.close x.srv) ~reps:setup_reps (setup ~seed ~seconds)
  in
  let requests = Array.of_list (List.concat s.stream.waves) in
  let answers, busy, norm_busy, play_speed =
    Fun.protect ~finally:(fun () -> Server.close s.srv) (fun () -> play s.srv s.stream)
  in
  let n = Array.length requests in
  let c = checks () in
  let bad = Array.make n false in
  let wrong i fmt = Printf.ksprintf (fun msg -> bad.(i) <- true; fail c "request %d (%s): %s" i (klass_name requests.(i).k) msg) fmt in
  (* outputs: statuses, schedules against Inference.predict, repeats
     byte-identical to the first answer *)
  let first = Hashtbl.create 256 in
  Array.iteri
    (fun i (r : request) ->
      let a = answers.(i) in
      if a.status <> 200 && a.status <> 400 then wrong i "status %d" a.status
      else
        match r.k with
        | Bad ->
          if a.status <> 400 then wrong i "expected 400, got %d" a.status
          else if not a.diagnostics then wrong i "400 without diagnostics"
        | Fresh ->
          if a.status <> 200 then wrong i "expected 200, got %d" a.status
          else begin
            Hashtbl.replace first r.origin a.digest;
            let expect =
              (C.Inference.predict ~agent:s.agent ~actions ~target s.stream.modules.(r.origin))
                .C.Inference.actions
            in
            if a.schedule <> Some expect then wrong i "schedule differs from Inference.predict"
          end
        | Raw | Canon ->
          if a.status <> 200 then wrong i "expected 200, got %d" a.status
          else if Hashtbl.find_opt first r.origin <> Some a.digest then
            wrong i "repeat differs from the first answer")
    requests;
  let layer_metrics =
    if not trace then []
    else begin
      let check_redrive label (out : (outcome * string) array) =
        Array.iteri
          (fun i (o, body) ->
            if outcome_class o <> requests.(i).k then
              wrong i "%s re-drive took the %s path" label (klass_name (outcome_class o))
            else if Digest.string body <> answers.(i).digest then wrong i "%s re-drive answer differs" label)
          out
      in
      (* the same engine-side work untraced: the daemon's time beyond it
         is the HTTP layer's (serve.wire) *)
      let plain, _, plain_norm_s =
        Speed.timed_laps (fun lap -> redrive (T.create ~enabled:false) s.agent ~lap s.stream)
      in
      check_redrive "untraced" plain;
      let tr = T.create ~enabled:true in
      let traced, raw_s, norm_s = Speed.timed_laps (fun lap -> redrive tr s.agent ~lap s.stream) in
      check_redrive "traced" traced;
      T.write_jsonl tr (Printf.sprintf "perfbench/out/trace-serve-seed%d.jsonl" seed);
      let wire_s = norm_busy -. plain_norm_s in
      Step.layer_metrics tr ~untraced_op_s:(plain_norm_s *. raw_s /. norm_s)
      @ [ m "serve.wire.us_per_op" "us" (wire_s *. 1e6 /. float_of_int n);
          m "serve.wire.share" "ratio" (wire_s /. norm_busy);
          m "serve.cache.hit_frac" "ratio" (T.ratio tr "serve.cache.hits" "serve.cache.lookups") ]
    end
  in
  let failed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bad in
  (* (raw, normalized) latencies of the requests in classes [ks] *)
  let lat_of ks =
    let xs = ref [] in
    Array.iteri (fun i a -> if List.mem requests.(i).k ks then xs := a :: !xs) answers;
    ( Array.of_list (List.map (fun a -> a.latency) !xs),
      Array.of_list (List.map (fun a -> a.norm_latency) !xs) )
  in
  let lat_metrics ?prefix ks =
    let raw, norm = lat_of ks in
    latency_metrics ?prefix ~raw norm
  in
  let class_row k =
    let statuses = Hashtbl.create 4 in
    Array.iteri
      (fun i a ->
        if requests.(i).k = k then
          Hashtbl.replace statuses a.status (1 + Option.value ~default:0 (Hashtbl.find_opt statuses a.status)))
      answers;
    Json.Obj
      ([ ("class", Json.Str (klass_name k)) ]
       @ List.map (fun x -> (x.name, Json.Float x.value)) (lat_metrics [ k ])
       @ [ ("status",
            Json.Obj
              (List.sort compare
                 (Hashtbl.fold (fun st k acc -> (string_of_int st, Json.Int k) :: acc) statuses []))) ])
  in
  { attempted = n;
    failed;
    metrics =
      setup_metrics
      @ throughput_metrics ~ops:n ~raw_s:busy ~norm_s:norm_busy
      @ lat_metrics classes
      @ lat_metrics ~prefix:"miss_" [ Fresh ]
      @ lat_metrics ~prefix:"hit_" [ Raw; Canon ]
      @ heap_metrics [ play_speed ]
      @ [ m "fail_frac" "ratio" (float_of_int failed /. float_of_int n) ]
      @ layer_metrics;
    rows = [ ("classes", Json.Arr (List.map class_row classes)) ];
    notes =
      [ ("agent_weights_digest", Json.Str (weights_digest s.agent));
        ("requests", Json.Int n);
        ("in_flight", Json.Int in_flight);
        ("fresh_modules", Json.Int (Array.length s.stream.modules)) ];
    failures = List.rev c.msgs }
