(* Step-stream folds: one step record and one signature for every table
   folded from the environment-step stream (see fold.mli). *)

type step = {
  action : int;
  pos : int;
  reward : float;
  r_binsize : float;
  r_throughput : float;
  state : float array option;
}

module type S = sig
  type t

  val name : string
  val file : string
  val stream : string
  val missing : string
  val n_actions : t -> int
  val steps : t -> int
  val observe_step : t -> step -> unit
  val sample : t -> step:int -> unit
  val to_json : t -> Json.t
  val of_json : Json.t -> t option
  val equal : t -> t -> bool
  val fresh : t -> t
  val render : top:int -> t -> string
  val render_shift : base:t -> cand:t -> string
  val summary : t -> string * (string * Json.t) list
end

type t = Fold : (module S with type t = 'a) * 'a -> t

let observe (folds : t list) (s : step) : unit =
  List.iter (fun (Fold ((module F), x)) -> F.observe_step x s) folds

let sample (folds : t list) ~(step : int) : unit =
  List.iter (fun (Fold ((module F), x)) -> F.sample x ~step) folds

let route (Fold ((module F), x)) =
  (Filename.remove_extension F.file, fun () -> Some (F.to_json x))

let write (run : Run.t) (Fold ((module F), x)) =
  Run.write run (Run.Fold F.file) (F.to_json x)

let summary (Fold ((module F), x)) = F.summary x

let read (type a) (module F : S with type t = a) (info : Run.info) : a option =
  Option.bind (Run.read info (Run.Fold F.file)) F.of_json

(* One "episode" record's steps, without states: its actions zipped
   with the per-step "steps" reward triples [Runlog.episode_record]
   writes. Records from pre-attribution ledgers have no "steps" field
   and yield []. *)
let episode_steps (record : Json.t) : step list =
  match Runlog.field "steps" record with
  | Some (Json.Arr steps) ->
    let actions = Runlog.episode_actions record in
    if List.length actions <> List.length steps then []
    else
      List.mapi
        (fun pos (action, s) ->
          let f k = Option.value ~default:0.0 (Runlog.num k s) in
          { action; pos; reward = f "r"; r_binsize = f "rb"; r_throughput = f "rt";
            state = None })
        (List.combine actions steps)
  | _ -> []

(* The step stream a ledger's records describe, in trainer order: each
   episode's steps re-indexed to global steps (the record's "step" is
   its last), with every tick at step S sampled after the steps with
   index <= S and before the first later one. Episode records land in
   the file after any tick emitted mid-episode, which is why the ticks
   are merged by index rather than taken in file order. *)
let replay ~(n_actions : int) ~(observe : step -> unit)
    ~(sample : step:int -> unit) (records : Json.t list) : unit =
  let ticks =
    ref
      (List.filter_map
         (fun r ->
           if Runlog.str "kind" r = Some "tick" then
             Option.map int_of_float (Runlog.num "step" r)
           else None)
         records)
  in
  let rec sample_before g =
    match !ticks with
    | s :: rest when s < g ->
      ticks := rest;
      sample ~step:s;
      sample_before g
    | _ -> ()
  in
  List.iter
    (fun r ->
      if Runlog.str "kind" r = Some "episode" then begin
        let steps = episode_steps r in
        let last = Option.fold ~none:0 ~some:int_of_float (Runlog.num "step" r) in
        let first = last - List.length steps + 1 in
        List.iter
          (fun s ->
            sample_before (first + s.pos);
            if s.action < n_actions then observe s)
          steps
      end)
    records;
  List.iter (fun s -> sample ~step:s) !ticks

let recompute (type a) (module F : S with type t = a) (x : a)
    (records : Json.t list) : a =
  let t = F.fresh x in
  replay ~n_actions:(F.n_actions x) ~observe:(F.observe_step t)
    ~sample:(F.sample t) records;
  t

(* CI greps the "matches the ... stream exactly" line. *)
let section ~(top : int) (info : Run.info) (records : Json.t list)
    (module F : S) : string =
  match Option.map F.of_json (Run.read info (Run.Fold F.file)) with
  | None ->
    Printf.sprintf "%s: no data (run predates the %s layer, or %s is unreadable)\n"
      F.name F.name F.file
  | Some None -> Printf.sprintf "%s: %s is structurally invalid — no data\n" F.name F.file
  | Some (Some x) ->
    let again = recompute (module F) x records in
    F.render ~top x
    ^
    if F.steps again = 0 && F.steps x > 0 then
      Printf.sprintf "%s check: episode records carry no %s; recompute skipped\n"
        F.name F.missing
    else if F.equal x again then
      Printf.sprintf "%s check: table matches the %s stream exactly (%d steps)\n"
        F.name F.stream (F.steps x)
    else
      Printf.sprintf "%s check: DIVERGENCE between %s and the episode stream\n"
        F.name F.file

let shift (type a) (module F : S with type t = a) ~(base : a option)
    ~(cand : a option) : string =
  match base, cand with
  | Some base, Some cand -> F.render_shift ~base ~cand
  | _ ->
    Printf.sprintf "%s: no data on at least one side (pre-%s run or unreadable %s)\n"
      F.name F.name F.file
