(* In-memory span recorder for the traced runs.

   Spans are recorded here, in the benchmark, around calls into the
   library's public functions; the library itself is not instrumented.
   An op span (one train step, one evaluated program, one serve wave)
   is the root; layer spans inside it are its children, and the op's
   own self time is what no layer claimed ([core.unattributed]).

   Two kinds of span are kept out of the op's time entirely:
   - [side]: reference work the benchmark adds (one extra lowering of
     every function), timed under its layer but not part of the op;
   - [untimed]: bookkeeping for the traffic ratios (digests, structural
     compares), neither timed nor part of the op.

   A disabled recorder runs every wrapped call directly, so the same
   re-drive code measures its own untraced cost. *)

let now = Unix.gettimeofday

type layer = { mutable calls : int; mutable self_s : float }

type frame = {
  name : string;
  t0 : float;
  mutable child_s : float;   (* time of child spans, net of exclusions *)
  mutable excluded_s : float (* side/untimed time inside this span *)
}

type event = { e_name : string; e_op : int; e_start : float; e_dur : float }

type t = {
  enabled : bool;
  layers : (string, layer) Hashtbl.t;
  mutable order : string list;   (* layer names, first-seen order *)
  mutable stack : frame list;
  mutable ops : int;
  mutable op_s : float;          (* summed net op time *)
  mutable events : event list;   (* newest first *)
  counters : (string, float) Hashtbl.t;
}

let create ~enabled =
  { enabled;
    layers = Hashtbl.create 32;
    order = [];
    stack = [];
    ops = 0;
    op_s = 0.0;
    events = [];
    counters = Hashtbl.create 16 }

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
    let l = { calls = 0; self_s = 0.0 } in
    Hashtbl.replace t.layers name l;
    t.order <- name :: t.order;
    l

let op_name = "core.op"

(* Close [fr]: charge its self time to its layer and its net duration to
   the parent, either as child time or (for [side] spans) as excluded
   time. Returns the net duration. *)
let close t (fr : frame) ~(side : bool) : float =
  let t1 = now () in
  t.stack <- List.tl t.stack;
  let dur = t1 -. fr.t0 -. fr.excluded_s in
  let l = layer t fr.name in
  l.calls <- l.calls + 1;
  l.self_s <- l.self_s +. (dur -. fr.child_s);
  (match t.stack with
   | p :: _ ->
     if side then p.excluded_s <- p.excluded_s +. (t1 -. fr.t0)
     else p.child_s <- p.child_s +. dur
   | [] -> ());
  t.events <-
    { e_name = fr.name; e_op = t.ops; e_start = fr.t0; e_dur = dur } :: t.events;
  dur

let push t name =
  let fr = { name; t0 = now (); child_s = 0.0; excluded_s = 0.0 } in
  t.stack <- fr :: t.stack;
  fr

let span_gen ~side t name f =
  if not t.enabled then f ()
  else begin
    let fr = push t name in
    match f () with
    | v ->
      ignore (close t fr ~side);
      v
    | exception e ->
      ignore (close t fr ~side);
      raise e
  end

(* A layer call inside an op. *)
let span t name f = span_gen ~side:false t name f

(* Reference work timed under [name] but excluded from the op's time. *)
let side t name f = span_gen ~side:true t name f

(* Bookkeeping: runs only when tracing, and its time is removed from
   every enclosing span. *)
let untimed t f =
  if t.enabled then begin
    let t0 = now () in
    f ();
    match t.stack with
    | p :: _ -> p.excluded_s <- p.excluded_s +. (now () -. t0)
    | [] -> ()
  end

(* An op span covering [n] ops (a serve wave answers several requests
   with shared work); its net duration is summed into the op time. *)
let op ?(n = 1) t f =
  if not t.enabled then f ()
  else begin
    let fr = push t op_name in
    (match f () with
     | () -> ()
     | exception e ->
       ignore (close t fr ~side:false);
       raise e);
    t.op_s <- t.op_s +. close t fr ~side:false
  end;
  t.ops <- t.ops + n

let count t name v =
  if t.enabled then
    Hashtbl.replace t.counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counters name))

let counter t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counters name)

let ratio t num den =
  let d = counter t den in
  if d = 0.0 then 0.0 else counter t num /. d

let ops t = t.ops
let op_seconds t = t.op_s

(* Layers in first-seen order, op span excluded: (name, calls, self s). *)
let layer_totals t : (string * int * float) list =
  List.filter_map
    (fun name ->
      if name = op_name then None
      else
        let l = Hashtbl.find t.layers name in
        Some (name, l.calls, l.self_s))
    (List.rev t.order)

let unattributed_s t =
  match Hashtbl.find_opt t.layers op_name with Some l -> l.self_s | None -> 0.0

(* Spans as JSON lines: name, op index, start relative to the first
   span, and net duration, in microseconds. *)
let write_jsonl t (path : string) : unit =
  let evs = List.rev t.events in
  let base = match evs with e :: _ -> e.e_start | [] -> 0.0 in
  let oc = open_out path in
  List.iter
    (fun e ->
      Printf.fprintf oc "{\"name\":%S,\"op\":%d,\"start_us\":%.1f,\"dur_us\":%.3f}\n"
        e.e_name e.e_op ((e.e_start -. base) *. 1e6) (e.e_dur *. 1e6))
    evs;
  close_out oc
