(* The optimization engine behind `posetrl serve`: admission
   control (parse + sanitize untrusted IR), the IR-digest result cache,
   and the answer to a batch of requests. Concurrent cache misses share
   one [Inference.predict_batch], the lockstep greedy rollout: per
   episode step one gemm scores every module, and each rollout equals
   the one the module would get on its own — the cache-identity qcheck
   property in test/test_serve.ml pins the served documents to
   [Inference.predict]. *)

open Posetrl_ir
module C = Posetrl_core
module O = Posetrl_odg
module CG = Posetrl_codegen
module Mca = Posetrl_mca.Mca
module Rl = Posetrl_rl
module A = Posetrl_analysis
module Obs = Posetrl_obs

let m_hits = Obs.Metrics.counter "posetrl.serve.cache_hits_total"
let m_misses = Obs.Metrics.counter "posetrl.serve.cache_misses_total"
let m_cache_bytes = Obs.Metrics.gauge "posetrl.serve.cache_bytes"
let m_cache_entries = Obs.Metrics.gauge "posetrl.serve.cache_entries"

let m_batch_size =
  Obs.Metrics.histogram
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]
    "posetrl.serve.batch_size"

type t = {
  agent : Rl.Dqn.t;
  actions : O.Action_space.t;
  target : CG.Target.t;
  max_steps : int;
  sanitize : A.Sanitize.level;
  cache : Obs.Json.t Cache.t;
}

let create ?(max_steps = C.Environment.default_max_steps)
    ?(cache_bytes = Cache.default_max_bytes)
    ?(sanitize = A.Sanitize.Ssa) ~(agent : Rl.Dqn.t)
    ~(actions : O.Action_space.t) ~(target : CG.Target.t) () : t =
  { agent;
    actions;
    target;
    max_steps;
    sanitize;
    cache = Cache.create ~max_bytes:cache_bytes () }

let cache (t : t) = t.cache

(* --- admission ------------------------------------------------------------- *)

type admitted = { key : string; raw_key : string; m : Modul.t }

let config_salt (t : t) : string =
  String.concat "\x00"
    [ t.target.CG.Target.name;
      string_of_int (O.Action_space.n_actions t.actions);
      string_of_int t.max_steps ]

(* The cache key: digest of the canonically printed module (so
   whitespace variants of the same IR hit the same entry), salted with
   the serving configuration that shapes the answer. The agent itself
   is fixed for the engine's lifetime — the cache never outlives it. *)
let key_of (t : t) (m : Modul.t) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ config_salt t; Printer.module_to_string m ]))

(* Results are also indexed under the digest of the raw request bytes:
   a byte-identical repeat is answered without parsing or sanitizing at
   all (the same bytes already passed admission under this config), so
   the hot path costs a digest and a serialization, not a re-parse. *)
let raw_key_of (t : t) (body : string) : string =
  Digest.to_hex
    (Digest.string (String.concat "\x00" [ config_salt t; "raw"; body ]))

let find_raw (t : t) (body : string) : Obs.Json.t option =
  let rk = raw_key_of t body in
  if Cache.mem t.cache rk then begin
    match Cache.find t.cache rk with
    | Some doc ->
      Obs.Metrics.inc m_hits;
      Some doc
    | None -> None
  end
  else None

let lint_diagnostics (m : Modul.t) : Obs.Json.t =
  A.Lint.to_json ~name:m.Modul.name (A.Lint.lint_module m)

(* Parse + sanitize untrusted input IR; rejects come back as the JSON
   body of a 400, carrying the lint report so the client learns *why*
   its module was refused, not just that it was. *)
let admit (t : t) (body : string) : (admitted, Obs.Json.t) result =
  match Parser.parse_module body with
  | exception Parser.Parse_error msg ->
    Error
      (Obs.Json.Obj
         [ ("error", Obs.Json.Str "parse error");
           ("detail", Obs.Json.Str msg);
           ("diagnostics", Obs.Json.Arr []) ])
  | m ->
    (match A.Sanitize.check_module t.sanitize m with
     | [] -> Ok { key = key_of t m; raw_key = raw_key_of t body; m }
     | errs ->
       Error
         (Obs.Json.Obj
            [ ("error", Obs.Json.Str "rejected by sanitizer");
              ("sanitizer",
               Obs.Json.Arr
                 (List.map
                    (fun e -> Obs.Json.Str (Verifier.error_to_string e))
                    errs));
              ("diagnostics", lint_diagnostics m) ]))

(* --- result documents ------------------------------------------------------ *)

(* The size and throughput objects of a result document: one
   [Mca.measure] per module. *)
let measure_json (x : Mca.measurement) : Obs.Json.t =
  Obs.Json.Obj
    [ ("size_b", Obs.Json.Int x.Mca.size);
      ("text_b", Obs.Json.Int x.Mca.text);
      ("throughput", Obs.Json.Float x.Mca.throughput) ]

let pct num den = if den = 0.0 then 0.0 else 100.0 *. num /. den

let result_json (t : t) ~(input : Modul.t) ~(schedule : int list)
    ~(optimized : Modul.t) : Obs.Json.t =
  let i = Mca.measure t.target input and o = Mca.measure t.target optimized in
  let isize = float_of_int i.Mca.size and osize = float_of_int o.Mca.size in
  Obs.Json.Obj
    [ ("kind", Obs.Json.Str "optimize-result");
      ("module", Obs.Json.Str input.Modul.name);
      ("schedule", Obs.Json.Arr (List.map (fun a -> Obs.Json.Int a) schedule));
      ("passes",
       Obs.Json.Arr
         (List.concat_map
            (fun a ->
              List.map
                (fun p -> Obs.Json.Str p)
                (O.Action_space.action t.actions a))
            schedule));
      ("input", measure_json i);
      ("optimized", measure_json o);
      ("deltas",
       Obs.Json.Obj
         [ ("size_reduction_pct", Obs.Json.Float (pct (isize -. osize) isize));
           ("throughput_improvement_pct",
            Obs.Json.Float (pct (o.Mca.throughput -. i.Mca.throughput) i.Mca.throughput)) ]);
      ("optimized_ir", Obs.Json.Str (Printer.module_to_string optimized)) ]

(* --- the cached entry point ------------------------------------------------ *)

let publish_cache_gauges (t : t) : unit =
  Obs.Metrics.set m_cache_bytes (float_of_int (Cache.total_bytes t.cache));
  Obs.Metrics.set m_cache_entries (float_of_int (Cache.length t.cache))

(* Answer a batch of admitted requests: cache hits are free, the misses
   (deduplicated — a batch can carry the same module twice) share one
   [Inference.predict_batch], and every fresh result is inserted under
   its key. Results come back in request order. *)
let optimize_many (t : t) (adms : admitted list) : Obs.Json.t list =
  let n = List.length adms in
  let results : Obs.Json.t option array = Array.make n None in
  let pending : (string, Modul.t) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iteri
    (fun i adm ->
      match Cache.find t.cache adm.key with
      | Some doc ->
        Obs.Metrics.inc m_hits;
        results.(i) <- Some doc
      | None ->
        Obs.Metrics.inc m_misses;
        if not (Hashtbl.mem pending adm.key) then begin
          Hashtbl.add pending adm.key adm.m;
          order := adm.key :: !order
        end)
    adms;
  let keys = List.rev !order in
  let computed : (string, Obs.Json.t * int) Hashtbl.t = Hashtbl.create 8 in
  (match keys with
   | [] -> ()
   | _ ->
     let inputs = List.map (Hashtbl.find pending) keys in
     let batch = List.length inputs in
     let outs =
       Obs.Span.with_ "posetrl.serve.batch"
         ~attrs:[ ("modules", Obs.Event.I batch) ]
         (fun _ ->
           Obs.Metrics.observe m_batch_size (float_of_int batch);
           C.Inference.predict_batch ~max_steps:t.max_steps ~sanitize:t.sanitize
             ~agent:t.agent ~actions:t.actions ~target:t.target inputs)
     in
     List.iter2
       (fun key (r : C.Inference.rollout) ->
         let input = Hashtbl.find pending key in
         let doc =
           result_json t ~input ~schedule:r.C.Inference.actions
             ~optimized:r.C.Inference.optimized
         in
         let bytes =
           String.length (Obs.Json.to_string doc) + String.length key
         in
         Cache.add t.cache ~key ~bytes doc;
         Hashtbl.replace computed key (doc, bytes))
       keys outs);
  let answers =
    List.mapi
      (fun i adm ->
        match results.(i) with
        | Some doc -> doc
        | None ->
          let doc, bytes = Hashtbl.find computed adm.key in
          (* index the fresh result under the raw digest too, so a
             byte-identical repeat skips admission entirely *)
          Cache.add t.cache ~key:adm.raw_key ~bytes doc;
          doc)
      adms
  in
  publish_cache_gauges t;
  answers

let optimize (t : t) (adm : admitted) : Obs.Json.t =
  match optimize_many t [ adm ] with
  | [ doc ] -> doc
  | _ -> assert false
