(* Tests for Posetrl_support: rng, vectors, stats, tables. *)

open Posetrl_support

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.next_int64 a) (Rng.next_int64 b) then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let a = Rng.next_int64 child and b = Rng.next_int64 parent in
  Alcotest.(check bool) "split streams differ" true (not (Int64.equal a b))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_normal_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.normal rng) in
  let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples
    /. float_of_int n
  in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_vecf_dot () =
  check_float "dot" 32.0 (Vecf.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |])

let test_vecf_axpy () =
  let a = [| 1.0; 1.0 |] in
  Vecf.axpy ~k:2.0 a [| 3.0; 4.0 |];
  check_float "axpy[0]" 7.0 a.(0);
  check_float "axpy[1]" 9.0 a.(1)

let test_vecf_norm_normalize () =
  let v = [| 3.0; 4.0 |] in
  check_float "norm2" 5.0 (Vecf.norm2 v);
  let u = Vecf.normalize v in
  check_float "unit norm" 1.0 (Vecf.norm2 u)

let test_vecf_cosine () =
  check_float "parallel" 1.0 (Vecf.cosine [| 1.0; 2.0 |] [| 2.0; 4.0 |]);
  check_float "orthogonal" 0.0 (Vecf.cosine [| 1.0; 0.0 |] [| 0.0; 1.0 |])

let test_vecf_argmax () =
  Alcotest.(check int) "argmax" 2 (Vecf.argmax [| 1.0; 0.5; 7.0; 3.0 |])

let test_vecf_mismatch () =
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Vecf.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vecf.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_stats_basic () =
  let l = [ 1.0; 2.0; 3.0; 4.0 ] in
  check_float "mean" 2.5 (Stats.mean l);
  check_float "min" 1.0 (Stats.minimum l);
  check_float "max" 4.0 (Stats.maximum l);
  check_float "median" 2.5 (Stats.median l)

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ])

let test_stats_pct () =
  check_float "reduction" 25.0 (Stats.pct_reduction ~base:100.0 75.0);
  check_float "improvement" 20.0 (Stats.pct_improvement ~base:100.0 120.0)

let test_stats_stddev () =
  check_float "stddev" (sqrt 2.5) (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

(* element i of the array is i + 1, so each expected value reads as
   the 1-based rank ceil(q * n), clamped to [1, n] *)
let test_stats_nearest_rank () =
  let ranked n = Array.init n (fun i -> float_of_int (i + 1)) in
  List.iter
    (fun (n, q, want) ->
      check_float (Printf.sprintf "n=%d q=%g" n q) want
        (Stats.nearest_rank (ranked n) q))
    [ (1, 0.0, 1.0); (1, 0.5, 1.0); (1, 0.99, 1.0); (1, 1.0, 1.0);
      (2, 0.0, 1.0); (2, 0.5, 1.0); (2, 0.99, 2.0); (2, 1.0, 2.0);
      (200, 0.0, 1.0); (200, 0.5, 100.0); (200, 0.99, 198.0); (200, 1.0, 200.0) ];
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.nearest_rank [||] 0.5))

let test_table_render () =
  let t =
    Table.create ~title:"t" ~headers:[ "a"; "bb" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "long"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 6 = "== t =");
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "contains row" true (contains ~needle:"long" s)

let test_table_bad_row () =
  let t = Table.create ~title:"t" ~headers:[ "a" ] () in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let suite =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng normal moments" `Quick test_rng_normal_moments;
    Alcotest.test_case "vecf dot" `Quick test_vecf_dot;
    Alcotest.test_case "vecf axpy" `Quick test_vecf_axpy;
    Alcotest.test_case "vecf norm/normalize" `Quick test_vecf_norm_normalize;
    Alcotest.test_case "vecf cosine" `Quick test_vecf_cosine;
    Alcotest.test_case "vecf argmax" `Quick test_vecf_argmax;
    Alcotest.test_case "vecf mismatch" `Quick test_vecf_mismatch;
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats pct" `Quick test_stats_pct;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats nearest rank" `Quick test_stats_nearest_rank;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table bad row" `Quick test_table_bad_row ]
