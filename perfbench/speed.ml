(* Machine-speed normalization.

   The shared machines this benchmark runs on change speed by tens of
   percent over seconds (neighbours on the same cores), in both wall and
   CPU time. A fixed, allocation-free probe — a 4096-element dot product
   (the calib-dot-4k kernel) 100 times, then one pass summing a 4 MiB
   float array; about 1.5 ms, taken as the median of three — is timed
   between ops, and each op's wall time is divided by the probe's
   slowdown (probe time / [reference_s]) averaged over the probes around
   it. Timings so normalized read as the same op on a machine where the
   probe takes [reference_s]; raw wall timings are reported beside them.
   Of the probes tried on the learner and on whole evaluations, this mix
   tracked both best (it about halves the spread of their wall times
   over 0.6 s windows). It must stay allocation-free: allocation would
   run major-GC slices whose cost depends on the program's heap.

   The probe is benchmark code: a change to the program cannot move it. *)

let now = Unix.gettimeofday

(* Probe time at the reference speed. *)
let reference_s = 0.0015

let u = Array.init 4096 (fun i -> float_of_int i *. 1e-3)
let v = Array.init 4096 (fun i -> float_of_int (i mod 7))
let big = Array.init (1 lsl 19) float_of_int

(* The calib-dot-4k kernel: one 4096-element dot product. *)
let dot_4k () =
  let acc = ref 0.0 in
  for i = 0 to 4095 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  ignore (Sys.opaque_identity !acc)

let probe_s () : float =
  let t0 = now () in
  for _ = 1 to 100 do
    dot_4k ()
  done;
  let acc = ref 0.0 in
  for i = 0 to Array.length big - 1 do
    acc := !acc +. big.(i)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* A run's probe samples. Work timed after the [k]-th sample belongs to
   segment [k] and is normalized by the mean slowdown of samples [k] and
   [k + 1], so a run ticks before its first and after its last timed
   piece of work.

   Each sample also reads the major heap's size, so [heap_words] is the
   largest heap seen at the run's samples: the peak of the work between
   them, not of whatever ran before the run. *)
type t = {
  mutable factors : float list; (* newest first *)
  mutable n : int;
  mutable heap_words : int;
}

let create () = { factors = []; n = 0; heap_words = 0 }

(* One sample: the median of three probes, as a single probe is noisy. *)
let tick t =
  let a = probe_s () and b = probe_s () and c = probe_s () in
  let mid = Float.max (Float.min a b) (Float.min (Float.max a b) c) in
  t.factors <- (mid /. reference_s) :: t.factors;
  t.n <- t.n + 1;
  t.heap_words <- max t.heap_words (Gc.quick_stat ()).Gc.heap_words

let segment t = t.n - 1

(* Normalize (duration, segment) pairs. *)
let normalize_all t (pairs : (float * int) array) : float array =
  let fs = Array.of_list (List.rev t.factors) in
  let factor seg =
    if seg + 1 < Array.length fs then (fs.(seg) +. fs.(seg + 1)) /. 2.0 else fs.(seg)
  in
  Array.map (fun (d, seg) -> d /. factor seg) pairs

let normalize t ~(seg : int) (d : float) : float = (normalize_all t [| (d, seg) |]).(0)

(* Run [f lap], where each call of [lap] ends a piece of the work and
   probes before the next, so a long run is normalized piece by piece:
   its result, raw and normalized wall time (probe time excluded). *)
let timed_laps (f : (unit -> unit) -> 'a) : 'a * float * float =
  let t = create () in
  let pieces = ref [] in
  tick t;
  let t0 = ref (now ()) in
  let lap () =
    pieces := (now () -. !t0, segment t) :: !pieces;
    tick t;
    t0 := now ()
  in
  let v = f lap in
  lap ();
  let pieces = Array.of_list !pieces in
  ( v,
    Array.fold_left (fun acc (d, _) -> acc +. d) 0.0 pieces,
    Array.fold_left ( +. ) 0.0 (normalize_all t pieces) )
