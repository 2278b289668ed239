(* Tests for the neural-network substrate: the gemm kernels (bit for bit
   against naive reference loops), layers (gradient check against finite
   differences), MLP training, Adam. *)

open Posetrl_support
open Posetrl_nn

let check_float = Alcotest.(check (float 1e-6))

(* a 1 x d matrix over [v]'s storage: the shape of a single state *)
let one_row v = { Matrix.rows = 1; cols = Array.length v; data = v }

let same_bits (x : float array) (y : float array) =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       x y

(* --- reference loops --------------------------------------------------------

   One output element at a time, the arithmetic the kernels must
   reproduce bit for bit: each element starts from 0.0 (or C's own entry
   for the accumulate), adds its terms in ascending inner index, and
   skips a term whose A entry is exactly zero in the product and
   accumulate forms. The per-sample vector loops are the per-sample
   layer path the batched kernels replaced. *)

(* y = M x *)
let ref_matvec (m : Matrix.t) (x : float array) : float array =
  Array.init m.Matrix.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.Matrix.cols - 1 do
        acc := !acc +. (Matrix.get m i j *. x.(j))
      done;
      !acc)

(* y = Mᵀ x *)
let ref_matvec_t (m : Matrix.t) (x : float array) : float array =
  let y = Array.make m.Matrix.cols 0.0 in
  Array.iteri
    (fun i xi ->
      if xi <> 0.0 then
        for j = 0 to m.Matrix.cols - 1 do
          y.(j) <- y.(j) +. (Matrix.get m i j *. xi)
        done)
    x;
  y

(* M <- M + a ⊗ b *)
let ref_outer_add (m : Matrix.t) (a : float array) (b : float array) =
  Array.iteri
    (fun i ai ->
      if ai <> 0.0 then
        for j = 0 to m.Matrix.cols - 1 do
          Matrix.set m i j (Matrix.get m i j +. (ai *. b.(j)))
        done)
    a

(* C = A B *)
let naive_gemm (a : Matrix.t) (b : Matrix.t) : Matrix.t =
  let c = Matrix.create a.Matrix.rows b.Matrix.cols in
  for i = 0 to a.Matrix.rows - 1 do
    for j = 0 to b.Matrix.cols - 1 do
      let acc = ref 0.0 in
      for k = 0 to a.Matrix.cols - 1 do
        let aik = Matrix.get a i k in
        if aik <> 0.0 then acc := !acc +. (aik *. Matrix.get b k j)
      done;
      Matrix.set c i j !acc
    done
  done;
  c

(* C = A Bᵀ *)
let naive_gemm_nt (a : Matrix.t) (b : Matrix.t) : Matrix.t =
  Matrix.init a.Matrix.rows b.Matrix.rows (fun i j ->
      let acc = ref 0.0 in
      for k = 0 to a.Matrix.cols - 1 do
        acc := !acc +. (Matrix.get a i k *. Matrix.get b j k)
      done;
      !acc)

(* C + Aᵀ B, as a fresh matrix *)
let naive_gemm_tn_acc (c : Matrix.t) (a : Matrix.t) (b : Matrix.t) : Matrix.t =
  Matrix.init c.Matrix.rows c.Matrix.cols (fun i j ->
      let acc = ref (Matrix.get c i j) in
      for k = 0 to a.Matrix.rows - 1 do
        let aki = Matrix.get a k i in
        if aki <> 0.0 then acc := !acc +. (aki *. Matrix.get b k j)
      done;
      !acc)

(* per-sample layer forward: (output, pre-activation) *)
let ref_layer_forward (l : Layer.t) (x : float array) =
  let pre = ref_matvec l.Layer.w x in
  Array.iteri (fun i b -> pre.(i) <- pre.(i) +. b) l.Layer.b;
  let out =
    if l.Layer.relu then Array.map (fun v -> if v > 0.0 then v else 0.0) pre
    else Array.copy pre
  in
  (out, pre)

(* per-sample layer backward: accumulates gw/gb, returns dL/dinput *)
let ref_layer_backward (l : Layer.t) ~input ~pre (dout : float array) =
  let dpre =
    if l.Layer.relu then Array.mapi (fun i d -> if pre.(i) > 0.0 then d else 0.0) dout
    else dout
  in
  ref_outer_add l.Layer.gw dpre input;
  Array.iteri (fun i d -> l.Layer.gb.(i) <- l.Layer.gb.(i) +. d) dpre;
  ref_matvec_t l.Layer.w dpre

let ref_forward_cached (net : Mlp.t) (x : float array) =
  let caches = Array.make (Array.length net.Mlp.layers) (x, x) in
  let out = ref x in
  Array.iteri
    (fun k l ->
      let o, pre = ref_layer_forward l !out in
      caches.(k) <- (!out, pre);
      out := o)
    net.Mlp.layers;
  (!out, caches)

let ref_backward (net : Mlp.t) caches (dout : float array) =
  let d = ref dout in
  for k = Array.length net.Mlp.layers - 1 downto 0 do
    let input, pre = caches.(k) in
    d := ref_layer_backward net.Mlp.layers.(k) ~input ~pre !d
  done

(* --- known values: the one-row cases of the kernels -------------------------- *)

let test_matvec () =
  let m = Matrix.init 2 3 (fun i j -> float_of_int ((i * 3) + j + 1)) in
  (* [[1 2 3];[4 5 6]] * [1;1;1] = [6;15] *)
  let x = [| 1.0; 1.0; 1.0 |] in
  List.iter
    (fun (what, y) ->
      check_float (what ^ " y0") 6.0 y.(0);
      check_float (what ^ " y1") 15.0 y.(1))
    [ ("gemm_nt", (Matrix.gemm_nt (one_row x) m).Matrix.data);
      ("reference", ref_matvec m x) ]

let test_matvec_t () =
  let m = Matrix.init 2 3 (fun i j -> float_of_int ((i * 3) + j + 1)) in
  let x = [| 1.0; 1.0 |] in
  List.iter
    (fun (what, y) ->
      check_float (what ^ " col sum 0") 5.0 y.(0);
      check_float (what ^ " col sum 1") 7.0 y.(1);
      check_float (what ^ " col sum 2") 9.0 y.(2))
    [ ("gemm", (Matrix.gemm (one_row x) m).Matrix.data);
      ("reference", ref_matvec_t m x) ]

let test_outer_add () =
  (* one sample: c += 2 * ([1;3] ⊗ [4;5]) *)
  let a = [| 2.0; 6.0 |] and b = [| 4.0; 5.0 |] in
  let c_gemm = Matrix.create 2 2 and c_ref = Matrix.create 2 2 in
  Matrix.gemm_tn_acc c_gemm (one_row a) (one_row b);
  ref_outer_add c_ref a b;
  List.iter
    (fun (what, m) ->
      check_float (what ^ " m00") 8.0 (Matrix.get m 0 0);
      check_float (what ^ " m11") 30.0 (Matrix.get m 1 1))
    [ ("gemm_tn_acc", c_gemm); ("reference", c_ref) ]

let test_layer_forward_relu () =
  let rng = Rng.create 1 in
  let l = Layer.create rng ~in_dim:2 ~out_dim:2 ~relu:true in
  (* force known weights *)
  Matrix.set l.Layer.w 0 0 1.0;
  Matrix.set l.Layer.w 0 1 0.0;
  Matrix.set l.Layer.w 1 0 0.0;
  Matrix.set l.Layer.w 1 1 (-1.0);
  l.Layer.b.(0) <- 0.5;
  l.Layer.b.(1) <- 0.0;
  let out, _ = Layer.forward_batch l (one_row [| 1.0; 2.0 |]) in
  check_float "relu passes positive" 1.5 (Matrix.get out 0 0);
  check_float "relu clamps negative" 0.0 (Matrix.get out 0 1)

(* numerical gradient check of a 2-layer MLP on a scalar loss *)
let test_gradient_check () =
  let rng = Rng.create 13 in
  let net = Mlp.create rng [ 3; 4; 2 ] in
  let x = [| 0.3; -0.8; 0.5 |] in
  let target = 1 in
  let loss_of () =
    let out = Mlp.forward net x in
    let l, _ = Loss.huber ~pred:out.(target) ~target:2.0 () in
    l
  in
  (* analytical gradients *)
  Mlp.zero_grad net;
  let out, caches = Mlp.forward_batch_cached net (one_row x) in
  let _, dpred = Loss.huber ~pred:(Matrix.get out 0 target) ~target:2.0 () in
  let dout = Matrix.create 1 2 in
  Matrix.set dout 0 target dpred;
  Mlp.backward_batch net caches dout;
  (* compare against central differences on a few weights *)
  let eps = 1e-5 in
  let layer = net.Mlp.layers.(0) in
  for idx = 0 to 5 do
    let orig = layer.Layer.w.Matrix.data.(idx) in
    layer.Layer.w.Matrix.data.(idx) <- orig +. eps;
    let lp = loss_of () in
    layer.Layer.w.Matrix.data.(idx) <- orig -. eps;
    let lm = loss_of () in
    layer.Layer.w.Matrix.data.(idx) <- orig;
    let numeric = (lp -. lm) /. (2.0 *. eps) in
    let analytic = layer.Layer.gw.Matrix.data.(idx) in
    Alcotest.(check bool)
      (Printf.sprintf "grad[%d] %.6f vs %.6f" idx analytic numeric)
      true
      (Float.abs (analytic -. numeric) < 1e-3)
  done

(* One minibatch step on a scalar-output net: MSE loss, mean over rows. *)
let mse_step optim net (xs : float array array) (ys : float array) =
  Mlp.zero_grad net;
  let out, caches = Mlp.forward_batch_cached net (Matrix.of_rows xs) in
  let n = float_of_int (Array.length xs) in
  let dout =
    Matrix.init (Array.length xs) 1 (fun i _ ->
        snd (Loss.mse ~pred:(Matrix.get out i 0) ~target:ys.(i) ()) /. n)
  in
  Mlp.backward_batch net caches dout;
  Optim.step optim net

let test_mlp_learns_xor () =
  let rng = Rng.create 5 in
  let net = Mlp.create rng [ 2; 8; 1 ] in
  let optim = Optim.create ~lr:0.02 ~grad_clip:0.0 () in
  let data =
    [| ([| 0.0; 0.0 |], 0.0); ([| 0.0; 1.0 |], 1.0);
       ([| 1.0; 0.0 |], 1.0); ([| 1.0; 1.0 |], 0.0) |]
  in
  for _epoch = 1 to 3000 do
    mse_step optim net (Array.map fst data) (Array.map snd data)
  done;
  Array.iter
    (fun (x, y) ->
      let out = Mlp.forward net x in
      Alcotest.(check bool)
        (Printf.sprintf "xor(%g,%g)=%g got %g" x.(0) x.(1) y out.(0))
        true
        (Float.abs (out.(0) -. y) < 0.25))
    data

let test_adam_decreases_loss () =
  let rng = Rng.create 7 in
  let net = Mlp.create rng [ 4; 8; 1 ] in
  let optim = Optim.create ~lr:0.01 () in
  let inputs = Array.init 16 (fun k -> Array.init 4 (fun j -> float_of_int ((k + j) mod 5) /. 5.0)) in
  let target x = (2.0 *. x.(0)) -. x.(2) +. 0.5 in
  let epoch_loss () =
    Array.fold_left
      (fun acc x ->
        let out = Mlp.forward net x in
        let l, _ = Loss.mse ~pred:out.(0) ~target:(target x) () in
        acc +. l)
      0.0 inputs
  in
  let before = epoch_loss () in
  for _ = 1 to 500 do
    mse_step optim net inputs (Array.map target inputs)
  done;
  let after = epoch_loss () in
  Alcotest.(check bool)
    (Printf.sprintf "loss %.4f -> %.4f" before after)
    true (after < before /. 5.0)

let test_copy_params () =
  let rng = Rng.create 3 in
  let a = Mlp.create rng [ 2; 3; 2 ] in
  let b = Mlp.create rng [ 2; 3; 2 ] in
  Mlp.copy_params ~src:a ~dst:b;
  let x = [| 0.5; -0.5 |] in
  Alcotest.(check bool) "identical outputs" true (Mlp.forward a x = Mlp.forward b x)

let test_param_count () =
  let rng = Rng.create 3 in
  let net = Mlp.create rng [ 300; 128; 64; 34 ] in
  Alcotest.(check int) "param count"
    ((300 * 128) + 128 + (128 * 64) + 64 + (64 * 34) + 34)
    (Mlp.param_count net)

let test_huber_regions () =
  let l1, d1 = Loss.huber ~pred:0.5 ~target:0.0 () in
  check_float "quadratic" 0.125 l1;
  check_float "grad" 0.5 d1;
  let l2, d2 = Loss.huber ~pred:3.0 ~target:0.0 () in
  check_float "linear" 2.5 l2;
  check_float "clipped grad" 1.0 d2

let test_grad_clip () =
  let rng = Rng.create 4 in
  let net = Mlp.create rng [ 2; 2 ] in
  Mlp.zero_grad net;
  (* inject a huge gradient *)
  net.Mlp.layers.(0).Layer.gw.Matrix.data.(0) <- 1e9;
  let optim = Optim.create ~lr:0.1 ~grad_clip:1.0 () in
  let before = net.Mlp.layers.(0).Layer.w.Matrix.data.(0) in
  Optim.step optim net;
  let after = net.Mlp.layers.(0).Layer.w.Matrix.data.(0) in
  Alcotest.(check bool) "clipped step bounded" true (Float.abs (after -. before) < 1.0)

(* --- batched gemm kernels ---------------------------------------------------

   The determinism contract (DESIGN.md §9): the register-blocked kernels
   compute every output element with exactly the reference loop's
   additions, in the same order, so results are equal bit for bit — not
   merely close. Shapes cover every blocking remainder (rows and columns
   1-9 straddle the 2-row, 4- and 8-column blocks) plus the 32 x 300 x
   128 training shape; entries include exact zeros (~30%, as ReLU masks
   leave) and -0.0, so the per-(i,k) zero skip is pinned too. *)

let entry rng =
  let u = Rng.float rng in
  if u < 0.3 then 0.0 else if u < 0.4 then -0.0 else Rng.normal rng

let random_matrix rng rows cols = Matrix.init rows cols (fun _ _ -> entry rng)

(* (m, k, n, seed): C is m x n, the inner dimension is k *)
let gen_shape =
  QCheck2.Gen.(
    pair
      (frequency
         [ (9, triple (int_range 1 9) (int_range 1 20) (int_range 1 9));
           (1, pure (32, 300, 128)) ])
      (int_range 0 10_000)
    |> map (fun ((m, k, n), seed) -> (m, k, n, seed)))

let print_shape (m, k, n, seed) = Printf.sprintf "m=%d k=%d n=%d seed=%d" m k n seed

(* Each kernel, given a stream and a shape, draws its operands and
   returns its result and the naive loop's. *)
let kernels =
  [ ( "gemm",
      fun rng (m, k, n) ->
        let a = random_matrix rng m k and b = random_matrix rng k n in
        ((Matrix.gemm a b).Matrix.data, (naive_gemm a b).Matrix.data) );
    ( "gemm_nt",
      fun rng (m, k, n) ->
        let a = random_matrix rng m k and b = random_matrix rng n k in
        ((Matrix.gemm_nt a b).Matrix.data, (naive_gemm_nt a b).Matrix.data) );
    ( "gemm_tn_acc",
      fun rng (m, k, n) ->
        (* non-zero initial C, zeros and -0.0 included *)
        let c = random_matrix rng m n in
        let a = random_matrix rng k m and b = random_matrix rng k n in
        let c' = Matrix.copy c in
        Matrix.gemm_tn_acc c' a b;
        (c'.Matrix.data, (naive_gemm_tn_acc c a b).Matrix.data) ) ]

let kernel_matches_naive ~name kernel =
  QCheck2.Test.make ~count:60 ~print:print_shape ~name gen_shape
    (fun (m, k, n, seed) ->
      let got, expect = List.assoc kernel kernels (Rng.create seed) (m, k, n) in
      same_bits got expect)

let test_gemm_tn_acc () =
  (* c += a^T b, accumulating sample-major (ascending row of a/b) — the
     weight-gradient kernel. Must equal the per-sample outer-product loop
     bit for bit, including on a non-zero initial c. *)
  let rng = Rng.create 99 in
  let samples = 17 and d_out = 5 and d_in = 9 in
  let a = random_matrix rng samples d_out in
  let b = random_matrix rng samples d_in in
  let c_gemm = random_matrix rng d_out d_in in
  let c_ref = Matrix.copy c_gemm in
  Matrix.gemm_tn_acc c_gemm a b;
  for s = 0 to samples - 1 do
    ref_outer_add c_ref (Matrix.row a s) (Matrix.row b s)
  done;
  Alcotest.(check bool) "gemm_tn_acc = outer-product loop" true
    (same_bits c_gemm.Matrix.data c_ref.Matrix.data)

let test_batch_forward_matches_per_sample () =
  let rng = Rng.create 21 in
  let net = Mlp.create rng [ 6; 11; 4 ] in
  let xs = Array.init 9 (fun _ -> Array.init 6 (fun _ -> Rng.normal rng)) in
  let q = Mlp.forward_batch net (Matrix.of_rows xs) in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d equals the one-row forward" i)
        true
        (same_bits (Matrix.row q i) (Mlp.forward net x));
      Alcotest.(check bool)
        (Printf.sprintf "row %d equals the per-sample reference" i)
        true
        (same_bits (Matrix.row q i) (fst (ref_forward_cached net x))))
    xs

let test_batch_backward_matches_per_sample () =
  let rng = Rng.create 22 in
  let net_b = Mlp.create rng [ 6; 11; 4 ] in
  let net_s = Mlp.create rng [ 6; 11; 4 ] in
  Mlp.copy_params ~src:net_b ~dst:net_s;
  let xs = Array.init 9 (fun _ -> Array.init 6 (fun _ -> Rng.normal rng)) in
  let douts = Array.init 9 (fun _ -> Array.init 4 (fun _ -> Rng.normal rng)) in
  (* batched *)
  Mlp.zero_grad net_b;
  let _, caches = Mlp.forward_batch_cached net_b (Matrix.of_rows xs) in
  Mlp.backward_batch net_b caches (Matrix.of_rows douts);
  (* per-sample reference, samples ascending *)
  Mlp.zero_grad net_s;
  Array.iteri
    (fun i x ->
      let _, caches = ref_forward_cached net_s x in
      ref_backward net_s caches douts.(i))
    xs;
  Array.iteri
    (fun k (lb : Layer.t) ->
      let ls = net_s.Mlp.layers.(k) in
      Alcotest.(check bool)
        (Printf.sprintf "layer %d weight grads exact" k)
        true
        (same_bits lb.Layer.gw.Matrix.data ls.Layer.gw.Matrix.data);
      Alcotest.(check bool)
        (Printf.sprintf "layer %d bias grads exact" k)
        true (same_bits lb.Layer.gb ls.Layer.gb))
    net_b.Mlp.layers

let test_skip_input_grad () =
  (* [Mlp.backward_batch] never computes layer 0's input gradient; every
     parameter gradient must be bit-identical to a full backprop that
     does, at the training shape and with a one-hot dL/dq as the DQN
     loss produces. *)
  let rng = Rng.create 23 in
  let net = Mlp.create rng [ 300; 128; 64; 34 ] in
  let full = Mlp.create rng [ 300; 128; 64; 34 ] in
  Mlp.copy_params ~src:net ~dst:full;
  let x = Matrix.init 32 300 (fun _ _ -> Rng.normal rng) in
  let dout = Matrix.create 32 34 in
  for i = 0 to 31 do
    Matrix.set dout i (Rng.int rng 34) (Rng.normal rng)
  done;
  Mlp.zero_grad net;
  let _, caches = Mlp.forward_batch_cached net x in
  Mlp.backward_batch net caches dout;
  Mlp.zero_grad full;
  let _, caches = Mlp.forward_batch_cached full x in
  let d = ref dout in
  for k = Array.length full.Mlp.layers - 1 downto 0 do
    let l = full.Mlp.layers.(k) in
    d := Matrix.gemm (Layer.backward_batch l caches.(k) !d) l.Layer.w
  done;
  Alcotest.(check (pair int int)) "dL/dstate computed" (32, 300)
    (!d.Matrix.rows, !d.Matrix.cols);
  Array.iteri
    (fun k (l : Layer.t) ->
      let lf = full.Mlp.layers.(k) in
      Alcotest.(check bool)
        (Printf.sprintf "layer %d gw bits" k)
        true
        (same_bits l.Layer.gw.Matrix.data lf.Layer.gw.Matrix.data);
      Alcotest.(check bool)
        (Printf.sprintf "layer %d gb bits" k)
        true (same_bits l.Layer.gb lf.Layer.gb))
    net.Mlp.layers

(* The accumulate kernels and Adam's update index without bounds checks;
   a matrix whose data is shorter than rows * cols must be refused before
   they run, not read past. *)
let test_short_data_rejected () =
  let rng = Rng.create 31 in
  let short (m : Matrix.t) =
    { m with Matrix.data = Array.sub m.Matrix.data 0 (Array.length m.Matrix.data - 1) }
  in
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with
       | _ -> false
       | exception Invalid_argument _ -> true)
  in
  let a = random_matrix rng 3 4 and b = random_matrix rng 4 9 in
  rejects "gemm, short A" (fun () -> Matrix.gemm (short a) b);
  rejects "gemm, short B" (fun () -> Matrix.gemm a (short b));
  let c = random_matrix rng 4 9 and x = random_matrix rng 3 4 and y = random_matrix rng 3 9 in
  rejects "gemm_tn_acc, short C" (fun () -> Matrix.gemm_tn_acc (short c) x y);
  rejects "gemm_tn_acc, short A" (fun () -> Matrix.gemm_tn_acc c (short x) y);
  rejects "gemm_tn_acc, short B" (fun () -> Matrix.gemm_tn_acc c x (short y));
  let net = Mlp.create rng [ 4; 8; 3 ] in
  let with_layer0 f =
    { net with Mlp.layers = Array.mapi (fun k l -> if k = 0 then f l else l) net.Mlp.layers }
  in
  let optim = Optim.create () in
  rejects "Optim.step, short gradient" (fun () ->
      Optim.step optim (with_layer0 (fun l -> { l with Layer.gw = short l.Layer.gw })));
  rejects "Optim.step, short moment" (fun () ->
      Optim.step optim (with_layer0 (fun l -> { l with Layer.vw = short l.Layer.vw })));
  rejects "Optim.step, short weights" (fun () ->
      Optim.step optim (with_layer0 (fun l -> { l with Layer.w = short l.Layer.w })));
  rejects "Optim.step, short bias moment" (fun () ->
      Optim.step optim
        (with_layer0 (fun l -> { l with Layer.mb = Array.sub l.Layer.mb 0 7 })));
  Alcotest.(check int) "a refused step is not counted" 0 optim.Optim.step_count

let suite =
  [ Alcotest.test_case "matvec" `Quick test_matvec;
    Alcotest.test_case "matvec transpose" `Quick test_matvec_t;
    Alcotest.test_case "outer add" `Quick test_outer_add;
    Alcotest.test_case "layer relu" `Quick test_layer_forward_relu;
    Alcotest.test_case "gradient check" `Quick test_gradient_check;
    Alcotest.test_case "mlp learns xor" `Quick test_mlp_learns_xor;
    Alcotest.test_case "adam decreases loss" `Quick test_adam_decreases_loss;
    Alcotest.test_case "copy params" `Quick test_copy_params;
    Alcotest.test_case "param count" `Quick test_param_count;
    Alcotest.test_case "huber regions" `Quick test_huber_regions;
    Alcotest.test_case "grad clip" `Quick test_grad_clip;
    QCheck_alcotest.to_alcotest
      (kernel_matches_naive ~name:"gemm = naive matmul (exact floats)" "gemm");
    QCheck_alcotest.to_alcotest
      (kernel_matches_naive ~name:"gemm_nt = a * b^T (exact floats)" "gemm_nt");
    QCheck_alcotest.to_alcotest
      (kernel_matches_naive ~name:"gemm_tn_acc = c + a^T * b (exact floats)"
         "gemm_tn_acc");
    Alcotest.test_case "gemm_tn_acc accumulates" `Quick test_gemm_tn_acc;
    Alcotest.test_case "batch forward = per-sample" `Quick
      test_batch_forward_matches_per_sample;
    Alcotest.test_case "batch backward = per-sample" `Quick
      test_batch_backward_matches_per_sample;
    Alcotest.test_case "skipped input grad keeps grads" `Quick test_skip_input_grad;
    Alcotest.test_case "short matrix data rejected" `Quick test_short_data_rejected ]
