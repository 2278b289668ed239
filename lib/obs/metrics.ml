(* Metrics registry. Series are keyed by (name, sorted labels); handles
   are mutable cells so updating a metric on a hot path stays a handful
   of instructions, not a hashtable probe. *)

open Posetrl_support

type histogram = {
  bounds : float array;          (* ascending upper bounds *)
  counts : int array;            (* length = bounds + 1 (overflow) *)
  mutable h_sum : float;
  mutable h_count : int;
  h_lock : Mutex.t;              (* guards counts/h_sum/h_count *)
}

type counter = float Atomic.t
type gauge = float Atomic.t

type cell =
  | Counter of counter
  | Gauge of gauge
  | Hist of histogram

type key = string * (string * string) list

(* The registry hashtable is guarded by a mutex so series registration
   and snapshots stay safe when worker domains look up labeled handles
   lazily (a racing [Hashtbl.add] can corrupt the table structurally).

   Handle updates are domain-safe too (the racy-update caveat PR 4
   documented is gone): counters and gauges are [float Atomic.t] — [inc]
   is a CAS retry loop, [set] a plain atomic store — and histogram rows
   carry their own mutex so bucket count, sum and count move together.
   The histogram lock is per-row and [observe] sites run at tick/task
   frequency, so contention is nil; the counter CAS costs a few ns over
   a plain add (benched in the "obs" bench section). *)
type t = { cells : (key, cell) Hashtbl.t; lock : Mutex.t }

let create () = { cells = Hashtbl.create 64; lock = Mutex.create () }
let global = create ()

let locked (r : t) (f : unit -> 'a) : 'a =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

let norm_labels labels = List.sort compare labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let lookup (r : t) (name : string) (labels : (string * string) list)
    (make : unit -> cell) : cell =
  let key = (name, norm_labels labels) in
  locked r (fun () ->
      match Hashtbl.find_opt r.cells key with
      | Some c -> c
      | None ->
        let c = make () in
        Hashtbl.add r.cells key c;
        c)

let counter ?(r = global) ?(labels = []) name : counter =
  match lookup r name labels (fun () -> Counter (Atomic.make 0.0)) with
  | Counter c -> c
  | c ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %s already registered as a %s" name
         (kind_name c))

(* CAS retry loop: [compare_and_set] on a [float Atomic.t] compares the
   boxed value physically, and [Atomic.get] hands back that same box, so
   the loop is correct — it only retries when another domain swapped the
   cell between the read and the CAS. *)
let inc ?(by = 1.0) (c : counter) =
  let rec go () =
    let old = Atomic.get c in
    if not (Atomic.compare_and_set c old (old +. by)) then go ()
  in
  go ()

let gauge ?(r = global) ?(labels = []) name : gauge =
  match lookup r name labels (fun () -> Gauge (Atomic.make 0.0)) with
  | Gauge g -> g
  | c ->
    invalid_arg
      (Printf.sprintf "Metrics.gauge: %s already registered as a %s" name
         (kind_name c))

let set (g : gauge) v = Atomic.set g v

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let histogram ?(r = global) ?(labels = []) ?(buckets = default_buckets) name :
    histogram =
  let make () =
    if Array.length buckets = 0 then
      invalid_arg "Metrics.histogram: empty bucket list";
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Metrics.histogram: buckets must be strictly ascending")
      buckets;
    Hist
      { bounds = Array.copy buckets;
        counts = Array.make (Array.length buckets + 1) 0;
        h_sum = 0.0;
        h_count = 0;
        h_lock = Mutex.create () }
  in
  match lookup r name labels make with
  | Hist h -> h
  | c ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %s already registered as a %s" name
         (kind_name c))

let observe (h : histogram) (v : float) =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do incr i done;
  Mutex.lock h.h_lock;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  Mutex.unlock h.h_lock

let value ?(r = global) ?(labels = []) name : float option =
  match locked r (fun () -> Hashtbl.find_opt r.cells (name, norm_labels labels)) with
  | Some (Counter c) -> Some (Atomic.get c)
  | Some (Gauge g) -> Some (Atomic.get g)
  | _ -> None

let sum ?(r = global) ?(labels = []) name : float option =
  match locked r (fun () -> Hashtbl.find_opt r.cells (name, norm_labels labels)) with
  | Some (Hist h) ->
    Mutex.lock h.h_lock;
    let s = h.h_sum in
    Mutex.unlock h.h_lock;
    Some s
  | _ -> None

(* --- snapshots ---------------------------------------------------------- *)

type row = {
  row_name : string;
  row_labels : (string * string) list;
  row_kind : string;
  row_value : float;
  row_count : int;
  row_sum : float;
  row_buckets : (float * int) list;
  row_detail : string;
}

(* Smallest bucket upper bound covering quantile [q] of the samples. *)
let quantile_bound (h : histogram) (q : float) : string =
  if h.h_count = 0 then "-"
  else begin
    let target = int_of_float (ceil (q *. float_of_int h.h_count)) in
    let acc = ref 0 and result = ref None in
    Array.iteri
      (fun i c ->
        acc := !acc + c;
        if Option.is_none !result && !acc >= target then
          result :=
            Some
              (if i < Array.length h.bounds then
                 Printf.sprintf "%g" h.bounds.(i)
               else "+inf"))
      h.counts;
    match !result with Some s -> s | None -> "+inf"
  end

let row_of_cell ((name, labels) : key) (c : cell) : row =
  match c with
  | Counter v ->
    let v = Atomic.get v in
    { row_name = name; row_labels = labels; row_kind = "counter";
      row_value = v; row_count = 1; row_sum = v; row_buckets = [];
      row_detail = "" }
  | Gauge v ->
    let v = Atomic.get v in
    { row_name = name; row_labels = labels; row_kind = "gauge";
      row_value = v; row_count = 1; row_sum = v; row_buckets = [];
      row_detail = "" }
  | Hist h ->
    (* snapshot the row under its lock so buckets, sum and count agree *)
    Mutex.lock h.h_lock;
    let counts = Array.copy h.counts and h_sum = h.h_sum and h_count = h.h_count in
    Mutex.unlock h.h_lock;
    let frozen =
      { h with counts; h_sum; h_count; h_lock = Mutex.create () }
    in
    let mean = if h_count = 0 then 0.0 else h_sum /. float_of_int h_count in
    let buckets =
      List.init
        (Array.length counts)
        (fun i ->
          ( (if i < Array.length h.bounds then h.bounds.(i) else infinity),
            counts.(i) ))
    in
    { row_name = name;
      row_labels = labels;
      row_kind = "histogram";
      row_value = mean;
      row_count = h_count;
      row_sum = h_sum;
      row_buckets = buckets;
      row_detail =
        Printf.sprintf "p50<=%s p95<=%s sum=%g" (quantile_bound frozen 0.5)
          (quantile_bound frozen 0.95) h_sum }

let snapshot ?(r = global) () : row list =
  locked r (fun () -> Hashtbl.fold (fun k c acc -> row_of_cell k c :: acc) r.cells [])
  |> List.sort (fun a b ->
         compare (a.row_name, a.row_labels) (b.row_name, b.row_labels))

let labels_to_string labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let render ?(title = "metrics") (rows : row list) : string =
  let t =
    Table.create ~title
      ~headers:[ "metric"; "labels"; "kind"; "value"; "n"; "detail" ]
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Right; Table.Right; Table.Left ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.row_name;
          labels_to_string r.row_labels;
          r.row_kind;
          Printf.sprintf "%g" r.row_value;
          (if r.row_kind = "histogram" then string_of_int r.row_count else "-");
          r.row_detail ])
    rows;
  Table.render t
