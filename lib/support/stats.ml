(* Summary statistics over float lists; used by the evaluation harness to
   produce the min/avg/max columns of the paper's tables. *)

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let minimum = function
  | [] -> nan
  | x :: rest -> List.fold_left Float.min x rest

let maximum = function
  | [] -> nan
  | x :: rest -> List.fold_left Float.max x rest

let variance l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean l in
    let n = float_of_int (List.length l) in
    List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l /. (n -. 1.0)

let stddev l = sqrt (variance l)

(* Geometric mean of strictly positive values. *)
let geomean l =
  match l with
  | [] -> nan
  | _ ->
    let logs = List.map (fun x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value";
        log x) l
    in
    exp (mean logs)

let median l =
  match l with
  | [] -> nan
  | _ ->
    let arr = Array.of_list l in
    Array.sort compare arr;
    let n = Array.length arr in
    if n mod 2 = 1 then arr.(n / 2)
    else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

(* Nearest-rank quantile: the element at the clamped index
   ceil(q * n) - 1 of an ascending array. *)
let nearest_rank (sorted : float array) (q : float) : float =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Unicode block-character sparkline of a series, downsampled to [width]
   columns by bucket-averaging. Non-finite samples are dropped; a flat
   series renders at mid-height so it stays visible. *)
let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                      "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ?(width = 60) (l : float list) : string =
  let xs = List.filter Float.is_finite l in
  match xs with
  | [] -> ""
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let cols = min width n in
    (* bucket i covers samples [i*n/cols, (i+1)*n/cols) *)
    let bucket i =
      let lo = i * n / cols and hi = max (i * n / cols + 1) ((i + 1) * n / cols) in
      let sum = ref 0.0 in
      for j = lo to hi - 1 do sum := !sum +. arr.(j) done;
      !sum /. float_of_int (hi - lo)
    in
    let vals = Array.init cols bucket in
    let lo = Array.fold_left Float.min vals.(0) vals in
    let hi = Array.fold_left Float.max vals.(0) vals in
    let b = Buffer.create (cols * 3) in
    Array.iter
      (fun v ->
        let level =
          if hi -. lo <= 0.0 then 3
          else
            let t = (v -. lo) /. (hi -. lo) in
            min 7 (max 0 (int_of_float (t *. 7.999)))
        in
        Buffer.add_string b spark_levels.(level))
      vals;
    Buffer.contents b

(* Percentage change of [v] relative to [base]: positive = reduction. *)
let pct_reduction ~base v =
  if base = 0.0 then 0.0 else 100.0 *. (base -. v) /. base

(* Percentage improvement (higher-is-better metric). *)
let pct_improvement ~base v =
  if base = 0.0 then 0.0 else 100.0 *. (v -. base) /. base
