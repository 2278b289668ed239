(* Run-ledger persistence format: JSON document files (manifest.json,
   eval.json), JSONL streams (progress.jsonl), and the progress-record
   schema shared by the trainer CLI, the bench harness and the tests.

   Document writes go through a tmp-file + rename so a crash mid-write
   never leaves a torn manifest; JSONL reads skip unparseable lines so a
   stream truncated by a killed process is still usable up to the last
   flush. *)

(* --- JSON file IO -------------------------------------------------------- *)

(* A directory that another process (or a parallel CI job) creates
   between the existence check and the mkdir is fine. *)
let rec mkdir_p (dir : string) : unit =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_json_file (path : string) (j : Json.t) : unit =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string j);
      output_char oc '\n');
  Sys.rename tmp path

let read_json_file (path : string) : Json.t =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      Json.of_string (String.trim (really_input_string ic n)))

(* Parse a JSONL stream, dropping lines that fail to parse (a crash can
   tear the last line) or that [convert] rejects. Each line is converted
   as it is read, so no line's JSON tree outlives it. Returns the records
   plus the dropped-line count so callers can surface data loss instead
   of hiding it. *)
let read_jsonl (convert : Json.t -> 'a option) (path : string) :
    'a list * int =
  let ic = open_in path in
  let records = ref [] in
  let dropped = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match convert (Json.of_string line) with
             | Some r -> records := r :: !records
             | None -> incr dropped
             | exception Json.Parse_error _ -> incr dropped
         done
       with End_of_file -> ());
      (List.rev !records, !dropped))

let append_jsonl_line (oc : out_channel) (j : Json.t) : unit =
  output_string oc (Json.to_string j);
  output_char oc '\n'

(* --- field accessors ------------------------------------------------------ *)

let str (key : string) (j : Json.t) : string option =
  match Json.member key j with Some (Json.Str s) -> Some s | _ -> None

let field (key : string) (j : Json.t) : Json.t option = Json.member key j

(* nested lookup: [path_num ["result"; "final_mean_reward"] manifest] *)
let path_num (keys : string list) (j : Json.t) : float option =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) keys with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let num (key : string) (j : Json.t) : float option = path_num [ key ] j

(* --- progress-record schema ----------------------------------------------- *)

(* Two record kinds share progress.jsonl, discriminated by "kind":
   "tick" — the trainer's periodic windowed means (every 200 steps);
   "episode" — one record per finished episode with the full reward
   decomposition (unweighted Eqn-2/3 component sums). *)

let tick_record ?q_mean ?q_max ?gc_minor ?gc_major ?gc_heap_mb ?gc_alloc_mb_s
    ~(step : int) ~(episode : int)
    ~(epsilon : float) ~(mean_reward : float) ~(mean_size_gain : float)
    ~(r_binsize : float) ~(r_throughput : float) ~(loss : float) () : Json.t =
  let opt_f k = function Some v -> [ (k, Json.Float v) ] | None -> [] in
  let opt_i k = function Some v -> [ (k, Json.Int v) ] | None -> [] in
  Json.Obj
    ([ ("kind", Json.Str "tick");
       ("step", Json.Int step);
       ("episode", Json.Int episode);
       ("epsilon", Json.Float epsilon);
       ("mean_reward", Json.Float mean_reward);
       ("mean_size_gain", Json.Float mean_size_gain);
       ("r_binsize", Json.Float r_binsize);
       ("r_throughput", Json.Float r_throughput);
       ("loss", Json.Float loss) ]
     @ opt_f "q_mean" q_mean
     @ opt_f "q_max" q_max
     @ opt_i "gc_minor" gc_minor
     @ opt_i "gc_major" gc_major
     @ opt_f "gc_heap_mb" gc_heap_mb
     @ opt_f "gc_alloc_mb_s" gc_alloc_mb_s)

let episode_record ?(actions = []) ?step_rewards ~(episode : int) ~(step : int)
    ~(reward : float) ~(r_binsize : float) ~(r_throughput : float)
    ~(size_gain_pct : float) ~(thru_gain_pct : float) ~(epsilon : float)
    ~(loss : float) () : Json.t =
  let steps_field =
    (* per-step reward triples aligned with [actions]; %.17g floats
       round-trip exactly, so attribution recomputed from the ledger
       matches the streaming table float for float *)
    match step_rewards with
    | None -> []
    | Some triples ->
      [ ("steps",
         Json.Arr
           (List.map
              (fun (r, rb, rt) ->
                Json.Obj
                  [ ("r", Json.Float r);
                    ("rb", Json.Float rb);
                    ("rt", Json.Float rt) ])
              triples)) ]
  in
  Json.Obj
    ([ ("kind", Json.Str "episode");
       ("episode", Json.Int episode);
       ("step", Json.Int step);
       ("reward", Json.Float reward);
       ("r_binsize", Json.Float r_binsize);
       ("r_throughput", Json.Float r_throughput);
       ("size_gain_pct", Json.Float size_gain_pct);
       ("thru_gain_pct", Json.Float thru_gain_pct);
       ("epsilon", Json.Float epsilon);
       ("loss", Json.Float loss);
       ("actions", Json.Arr (List.map (fun a -> Json.Int a) actions)) ]
     @ steps_field)

(* The sub-sequence ids an "episode" record's "actions" array holds, in
   order; entries that are not non-negative ints are dropped. *)
let episode_actions (record : Json.t) : int list =
  match field "actions" record with
  | Some (Json.Arr l) ->
    List.filter_map (function Json.Int a when a >= 0 -> Some a | _ -> None) l
  | _ -> []

(* Extract an (x, y) series from progress records of one kind; records
   missing either field are skipped. *)
let series ~(kind : string) ~(x : string) ~(y : string)
    (records : Json.t list) : (float * float) list =
  List.filter_map
    (fun r ->
      if str "kind" r = Some kind then
        match num x r, num y r with
        | Some xv, Some yv -> Some (xv, yv)
        | _ -> None
      else None)
    records
