(* The trace event: one record per completed span. Events carry their
   own self-time (duration minus direct children), computed at runtime
   by the span layer, so offline aggregation never has to reconstruct
   the nesting tree. [tid] is the emitting domain's id (0 on the main
   domain), which lets the profiler and the Chrome export keep
   per-domain stacks apart without interval heuristics.

   JSONL schema (one object per line, see DESIGN.md "Observability"):
     {"name":..., "t":..., "dur":..., "self":..., "depth":..., "tid":...,
      "attrs":{...}}
   Traces written before the tid field read back with tid 0. *)

type value =
  | S of string
  | I of int
  | F of float

type t = {
  name : string;                      (* posetrl.<area>.<name> *)
  attrs : (string * value) list;
  t_start : float;                    (* seconds on the obs clock *)
  dur : float;                        (* wall duration, seconds *)
  self : float;                       (* dur minus direct children *)
  depth : int;                        (* nesting depth at emit time *)
  tid : int;                          (* emitting domain id (0 = main) *)
}

let value_to_json = function
  | S s -> Json.Str s
  | I i -> Json.Int i
  | F f -> Json.Float f

(* A nested attr value is not an event attr: the line is skipped. *)
let value_of_json = function
  | Json.Str s -> S s
  | Json.Int i -> I i
  | Json.Float f -> F f
  | Json.Bool b -> S (string_of_bool b)
  | Json.Null -> S "null"
  | Json.Arr _ | Json.Obj _ -> raise Json.Decode

let to_json (e : t) : Json.t =
  Json.Obj
    [ ("name", Json.Str e.name);
      ("t", Json.Float e.t_start);
      ("dur", Json.Float e.dur);
      ("self", Json.Float e.self);
      ("depth", Json.Int e.depth);
      ("tid", Json.Int e.tid);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) e.attrs)) ]

(* @raise Json.Decode on a line that is not an event *)
let of_json (j : Json.t) : t =
  let open Json in
  { name = string (field "name" j);
    attrs =
      (match member "attrs" j with
       | Some (Obj kvs) -> List.map (fun (k, v) -> (k, value_of_json v)) kvs
       | _ -> []);
    t_start = float (field "t" j);
    dur = float (field "dur" j);
    self = float (field "self" j);
    depth = int (field "depth" j);
    tid = Option.fold ~none:0 ~some:int (member "tid" j) }

(* attr accessors used by the report aggregator *)

let attr (e : t) (key : string) : value option = List.assoc_opt key e.attrs

let attr_string (e : t) (key : string) : string option =
  match attr e key with Some (S s) -> Some s | _ -> None

let attr_int (e : t) (key : string) : int option =
  match attr e key with
  | Some (I i) -> Some i
  | Some (F f) -> Some (int_of_float f)
  | _ -> None

let attr_float (e : t) (key : string) : float option =
  match attr e key with
  | Some (F f) -> Some f
  | Some (I i) -> Some (float_of_int i)
  | _ -> None
