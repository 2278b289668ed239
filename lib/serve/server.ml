(* The serve daemon's request loop: routes POST /optimize and
   /optimize/batch into the engine, with a bounded per-pump admission
   queue (backpressure = 429 + Retry-After), immediate answers for
   cache hits, and one coalesced batched rollout for everything that
   missed. GET routes fall through to the standard telemetry handler
   (plus /serve, the live stats document the dashboard row reads).

   Single-threaded like the Httpd underneath: [pump] accepts every
   pending connection first, answers the cheap ones (GETs, rejects,
   cache hits), and only then runs inference — so a burst of concurrent
   clients shares one forward_batch per episode step instead of paying
   n sequential rollouts. *)

module Obs = Posetrl_obs
module Httpd = Obs.Httpd

let m_requests_opt =
  Obs.Metrics.counter ~labels:[ ("route", "optimize") ]
    "posetrl.serve.requests_total"

let m_requests_batch =
  Obs.Metrics.counter ~labels:[ ("route", "optimize_batch") ]
    "posetrl.serve.requests_total"

let m_requests_other =
  Obs.Metrics.counter ~labels:[ ("route", "other") ]
    "posetrl.serve.requests_total"

let m_rejected_queue =
  Obs.Metrics.counter ~labels:[ ("reason", "queue_full") ]
    "posetrl.serve.rejected_total"

let m_rejected_admission =
  Obs.Metrics.counter ~labels:[ ("reason", "admission") ]
    "posetrl.serve.rejected_total"

let m_queue_depth = Obs.Metrics.gauge "posetrl.serve.queue_depth"
let m_latency = Obs.Metrics.histogram "posetrl.serve.latency_seconds"

(* one batch item: admitted, or the ready-to-embed rejection document *)
type item = (Engine.admitted, Obs.Json.t) result

type job =
  | Single of Engine.admitted
  | Batch of item list

type pending = { client : Httpd.client; t0 : float; job : job }

type t = {
  httpd : Httpd.t;
  engine : Engine.t;
  telemetry : Httpd.handler;
  queue_cap : int;
  mutable requests : int;
  mutable optimize_requests : int;
  mutable rejected : int;
  mutable last_queue_depth : int;
  (* rolling latency window for the p50/p99 the stats document reports;
     the full-fidelity distribution lives in the posetrl.serve.latency
     histogram on /metrics *)
  lat : float array;
  mutable lat_n : int;
}

let default_queue_cap = 64
let lat_window = 4096

let create ?(max_body = Httpd.default_max_body)
    ?(queue_cap = default_queue_cap) ?(telemetry : Httpd.handler option)
    ~(port : int) ~(engine : Engine.t) () : t =
  let telemetry =
    match telemetry with
    | Some h -> h
    | None ->
      Httpd.telemetry_handler
        ~health:(fun () ->
          Obs.Json.Obj [ ("status", Obs.Json.Str "running") ])
        ()
  in
  { httpd = Httpd.create ~backlog:64 ~max_body ~port ();
    engine;
    telemetry;
    queue_cap = max 1 queue_cap;
    requests = 0;
    optimize_requests = 0;
    rejected = 0;
    last_queue_depth = 0;
    lat = Array.make lat_window 0.0;
    lat_n = 0 }

let port (t : t) = Httpd.port t.httpd
let close (t : t) = Httpd.close t.httpd
let requests (t : t) = t.requests

(* --- stats ----------------------------------------------------------------- *)

let record_latency (t : t) (dt : float) : unit =
  t.lat.(t.lat_n mod lat_window) <- dt;
  t.lat_n <- t.lat_n + 1;
  Obs.Metrics.observe m_latency dt

let latency_percentiles (t : t) : float * float =
  let n = min t.lat_n lat_window in
  if n = 0 then (0.0, 0.0)
  else begin
    let xs = Array.sub t.lat 0 n in
    Array.sort compare xs;
    (Posetrl_support.Stats.nearest_rank xs 0.50,
     Posetrl_support.Stats.nearest_rank xs 0.99)
  end

let stats_json (t : t) : Obs.Json.t =
  let cache = Engine.cache t.engine in
  let hits = Cache.hits cache and misses = Cache.misses cache in
  let hit_pct =
    if hits + misses = 0 then 0.0
    else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
  in
  let p50, p99 = latency_percentiles t in
  Obs.Json.Obj
    [ ("kind", Obs.Json.Str "serve-stats");
      ("requests", Obs.Json.Int t.requests);
      ("optimize_requests", Obs.Json.Int t.optimize_requests);
      ("rejected", Obs.Json.Int t.rejected);
      ("queue_depth", Obs.Json.Int t.last_queue_depth);
      ("queue_cap", Obs.Json.Int t.queue_cap);
      ("cache_hits", Obs.Json.Int hits);
      ("cache_misses", Obs.Json.Int misses);
      ("cache_hit_pct", Obs.Json.Float hit_pct);
      ("cache_entries", Obs.Json.Int (Cache.length cache));
      ("cache_bytes", Obs.Json.Int (Cache.total_bytes cache));
      ("cache_evictions", Obs.Json.Int (Cache.evictions cache));
      ("latency_p50_s", Obs.Json.Float p50);
      ("latency_p99_s", Obs.Json.Float p99) ]

(* --- the pump -------------------------------------------------------------- *)

let respond_timed (t : t) (client : Httpd.client) ~(t0 : float)
    ~(route : string) (resp : Httpd.response) : unit =
  Httpd.respond client resp;
  let dt = Obs.Clock.now () -. t0 in
  record_latency t dt;
  Obs.Span.emit
    ~attrs:
      [ ("route", Obs.Event.S route); ("status", Obs.Event.I resp.Httpd.status) ]
    ~name:"posetrl.serve.request" ~t_start:t0 ~dur:dt ()

let too_busy (t : t) : Httpd.response =
  Obs.Metrics.inc m_rejected_queue;
  t.rejected <- t.rejected + 1;
  Httpd.error_response
    ~headers:[ ("Retry-After", "1") ]
    429 "optimization queue full, retry later"

(* Parse an /optimize/batch body: a JSON array of MiniIR texts, or an
   object carrying one under ["modules"]. *)
let batch_texts (body : string) : (string list, string) result =
  match Obs.Json.of_string body with
  | exception Obs.Json.Parse_error msg -> Error ("invalid JSON body: " ^ msg)
  | doc -> (
    let items =
      match doc with Obs.Json.Arr _ -> Some doc | _ -> Obs.Json.member "modules" doc
    in
    match items with
    | Some (Obs.Json.Arr _ as items) ->
      Option.to_result ~none:"every batch entry must be a MiniIR text string"
        Obs.Json.(decode (list string) items)
    | _ -> Error "expected a JSON array of MiniIR texts (or {\"modules\": [...]})")

let items_of_batch (t : t) (texts : string list) : item list =
  List.map
    (fun text ->
      match Engine.admit t.engine text with
      | Ok adm -> Ok adm
      | Error diag ->
        Obs.Metrics.inc m_rejected_admission;
        t.rejected <- t.rejected + 1;
        Error diag)
    texts

(* misses an item list would add to the inference queue (hits are free) *)
let miss_count (t : t) (items : item list) : int =
  List.length
    (List.filter
       (function
         | Ok (adm : Engine.admitted) ->
           not (Cache.mem (Engine.cache t.engine) adm.Engine.key)
         | Error _ -> false)
       items)

let pump (t : t) : unit =
  let queue : pending list ref = ref [] in
  let queued_misses = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Httpd.accept t.httpd with
    | None -> continue_ := false
    | Some (client, parsed) ->
      let t0 = Obs.Clock.now () in
      t.requests <- t.requests + 1;
      (match parsed with
       | Error resp ->
         Obs.Metrics.inc m_requests_other;
         respond_timed t client ~t0 ~route:"invalid" resp
       | Ok req when req.Httpd.meth = "GET" ->
         Obs.Metrics.inc m_requests_other;
         let resp =
           if req.Httpd.path = "/serve" then Httpd.json_response (stats_json t)
           else
             try t.telemetry req
             with e -> Httpd.error_response 500 (Printexc.to_string e)
         in
         respond_timed t client ~t0 ~route:"telemetry" resp
       | Ok req when req.Httpd.path = "/optimize" ->
         Obs.Metrics.inc m_requests_opt;
         t.optimize_requests <- t.optimize_requests + 1;
         (match Engine.find_raw t.engine req.Httpd.body with
          | Some doc ->
            (* byte-identical repeat: answered without re-admission *)
            respond_timed t client ~t0 ~route:"optimize"
              (Httpd.json_response doc)
          | None ->
         match Engine.admit t.engine req.Httpd.body with
          | Error diag ->
            Obs.Metrics.inc m_rejected_admission;
            t.rejected <- t.rejected + 1;
            respond_timed t client ~t0 ~route:"optimize"
              (Httpd.json_response ~status:400 diag)
          | Ok adm ->
            if Cache.mem (Engine.cache t.engine) adm.Engine.key then
              (* hit: answer now, never occupies a queue slot *)
              respond_timed t client ~t0 ~route:"optimize"
                (Httpd.json_response (Engine.optimize t.engine adm))
            else if !queued_misses >= t.queue_cap then
              respond_timed t client ~t0 ~route:"optimize" (too_busy t)
            else begin
              incr queued_misses;
              queue := { client; t0; job = Single adm } :: !queue
            end)
       | Ok req when req.Httpd.path = "/optimize/batch" ->
         Obs.Metrics.inc m_requests_batch;
         t.optimize_requests <- t.optimize_requests + 1;
         (match batch_texts req.Httpd.body with
          | Error msg ->
            Obs.Metrics.inc m_rejected_admission;
            t.rejected <- t.rejected + 1;
            respond_timed t client ~t0 ~route:"optimize_batch"
              (Httpd.error_response 400 msg)
          | Ok texts ->
            let items = items_of_batch t texts in
            let misses = miss_count t items in
            if !queued_misses + misses > t.queue_cap then
              respond_timed t client ~t0 ~route:"optimize_batch" (too_busy t)
            else begin
              queued_misses := !queued_misses + misses;
              queue := { client; t0; job = Batch items } :: !queue
            end)
       | Ok req ->
         Obs.Metrics.inc m_requests_other;
         respond_timed t client ~t0 ~route:"other"
           (Httpd.error_response 404
              (Printf.sprintf "no POST route for %s" req.Httpd.path)))
  done;
  let pending = List.rev !queue in
  t.last_queue_depth <- !queued_misses;
  Obs.Metrics.set m_queue_depth (float_of_int !queued_misses);
  if pending <> [] then begin
    (* one coalesced engine call answers every queued request: the
       admitted items of all jobs, flattened in arrival order *)
    let admitted =
      List.concat_map
        (fun p ->
          match p.job with
          | Single adm -> [ adm ]
          | Batch items ->
            List.filter_map (function Ok adm -> Some adm | Error _ -> None) items)
        pending
    in
    match Engine.optimize_many t.engine admitted with
    | exception e ->
      let resp = Httpd.error_response 500 (Printexc.to_string e) in
      List.iter
        (fun p -> respond_timed t p.client ~t0:p.t0 ~route:"optimize" resp)
        pending
    | docs ->
      let rest = ref docs in
      let next () =
        match !rest with
        | d :: tl ->
          rest := tl;
          d
        | [] -> Obs.Json.Null
      in
      List.iter
        (fun p ->
          match p.job with
          | Single _ ->
            respond_timed t p.client ~t0:p.t0 ~route:"optimize"
              (Httpd.json_response (next ()))
          | Batch items ->
            let results =
              List.map
                (function Ok _ -> next () | Error diag -> diag)
                items
            in
            respond_timed t p.client ~t0:p.t0 ~route:"optimize_batch"
              (Httpd.json_response
                 (Obs.Json.Obj
                    [ ("kind", Obs.Json.Str "optimize-batch-result");
                      ("results", Obs.Json.Arr results) ])))
        pending
  end;
  (* depth is a between-pumps gauge: everything queued was answered *)
  Obs.Metrics.set m_queue_depth 0.0
