(* Trace report: JSONL in, the hotspot table plus per-pass and
   per-action tables out. Span aggregation is Prof's; this module adds
   the two attribute-keyed folds. *)

open Posetrl_support

type pass_row = {
  pr_pass : string;
  pr_count : int;
  pr_cum : float;
  pr_self : float;
  pr_d_insns : int;
}

type action_row = {
  ar_action : int;
  ar_passes : string;
  ar_count : int;
  ar_cum : float;
  ar_d_size : float;
  ar_mean_reward : float;
}

(* Lines that are not JSON or not an event are skipped and counted
   alike: a killed run tears its last line. *)
let read_trace (path : string) : Event.t list * int =
  Runlog.read_jsonl (Json.decode Event.of_json) path

(* fold rows into a table keyed by [key], then sort by cum desc *)
let group_fold (type k) (key : Event.t -> k option)
    (events : Event.t list) : (k * Event.t list) list =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun e ->
      match key e with
      | None -> ()
      | Some k ->
        (match Hashtbl.find_opt tbl k with
         | Some l -> l := e :: !l
         | None ->
           Hashtbl.add tbl k (ref [ e ]);
           order := k :: !order))
    events;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let by_cum_desc cum a b = compare (cum b) (cum a)

let passes (events : Event.t list) : pass_row list =
  group_fold (fun e -> Event.attr_string e "pass") events
  |> List.map (fun (pass, es) ->
         { pr_pass = pass;
           pr_count = List.length es;
           pr_cum = List.fold_left (fun a e -> a +. e.Event.dur) 0.0 es;
           pr_self = List.fold_left (fun a e -> a +. e.Event.self) 0.0 es;
           pr_d_insns =
             List.fold_left
               (fun a e -> a + Option.value ~default:0 (Event.attr_int e "d_insns"))
               0 es })
  |> List.sort (by_cum_desc (fun r -> r.pr_cum))

let actions (events : Event.t list) : action_row list =
  group_fold
    (fun e ->
      if e.Event.name = "posetrl.env.step" then Event.attr_int e "action"
      else None)
    events
  |> List.map (fun (action, es) ->
         let n = List.length es in
         { ar_action = action;
           ar_passes =
             (match List.find_map (fun e -> Event.attr_string e "passes") es with
              | Some p -> p
              | None -> "");
           ar_count = n;
           ar_cum = List.fold_left (fun a e -> a +. e.Event.dur) 0.0 es;
           ar_d_size =
             List.fold_left
               (fun a e -> a +. Option.value ~default:0.0 (Event.attr_float e "d_size"))
               0.0 es;
           ar_mean_reward =
             List.fold_left
               (fun a e -> a +. Option.value ~default:0.0 (Event.attr_float e "reward"))
               0.0 es
             /. float_of_int (max 1 n) })
  |> List.sort (by_cum_desc (fun r -> r.ar_cum))

let secs s = Printf.sprintf "%.6f" s

let render ?(top_k = 20) (events : Event.t list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Prof.render ~top:top_k (Prof.of_events events));
  (match passes events with
   | [] -> ()
   | ps ->
     let t =
       Table.create ~title:"per-pass cumulative time and size delta"
         ~headers:[ "pass"; "runs"; "cum s"; "self s"; "sum d_insns" ]
         ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
         ()
     in
     List.iter
       (fun r ->
         Table.add_row t
           [ r.pr_pass; string_of_int r.pr_count; secs r.pr_cum;
             secs r.pr_self; string_of_int r.pr_d_insns ])
       ps;
     Buffer.add_char buf '\n';
     Buffer.add_string buf (Table.render t));
  (match actions events with
   | [] -> ()
   | rs ->
     let t =
       Table.create ~title:"per-action (env.step) time, size delta, reward"
         ~headers:[ "action"; "sub-sequence"; "steps"; "cum s"; "sum d_size B"; "mean reward" ]
         ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
         ()
     in
     List.iter
       (fun r ->
         Table.add_row t
           [ string_of_int r.ar_action; r.ar_passes; string_of_int r.ar_count;
             secs r.ar_cum; Printf.sprintf "%.0f" r.ar_d_size;
             Printf.sprintf "%.3f" r.ar_mean_reward ])
       rs;
     Buffer.add_char buf '\n';
     Buffer.add_string buf (Table.render t));
  Buffer.contents buf
