(* Multi-layer perceptron: the DQN's Q-function approximator. *)

open Posetrl_support

type t = {
  layers : Layer.t array;
  dims : int array; (* in_dim :: hidden... :: out_dim *)
}

(* [create rng [300;128;64;34]] builds ReLU hidden layers and a linear
   output layer. *)
let create (rng : Rng.t) (dims : int list) : t =
  let dims = Array.of_list dims in
  if Array.length dims < 2 then invalid_arg "Mlp.create: need at least 2 dims";
  let n = Array.length dims - 1 in
  let layers =
    Array.init n (fun k ->
        Layer.create rng ~in_dim:dims.(k) ~out_dim:dims.(k + 1) ~relu:(k < n - 1))
  in
  { layers; dims }

(* --- one gemm per layer over the whole batch ------------------------------ *)

type bcaches = Layer.bcache array

let forward_batch_cached (net : t) (x : Matrix.t) : Matrix.t * bcaches =
  let n = Array.length net.layers in
  let caches = Array.make n { Layer.binput = x; Layer.bpre = x } in
  let out = ref x in
  Array.iteri
    (fun k l ->
      let o, c = Layer.forward_batch l !out in
      caches.(k) <- c;
      out := o)
    net.layers;
  (!out, caches)

let forward_batch (net : t) (x : Matrix.t) : Matrix.t =
  fst (forward_batch_cached net x)

(* One state: the one-row case of [forward_batch]. The 1 x d matrix
   shares [x]'s storage (layers never write to their input), and the
   result row is freshly allocated. *)
let forward (net : t) (x : float array) : float array =
  (forward_batch net { Matrix.rows = 1; cols = Array.length x; data = x }).Matrix.data

(* Backpropagate per-row dL/doutput, accumulating parameter gradients
   over the whole batch. Layer 0's input gradient (dL/dstate) has no
   consumer, so it is never computed. *)
let backward_batch (net : t) (caches : bcaches) (dout : Matrix.t) : unit =
  let d = ref dout in
  for k = Array.length net.layers - 1 downto 0 do
    let l = net.layers.(k) in
    let dpre = Layer.backward_batch l caches.(k) !d in
    if k > 0 then d := Matrix.gemm dpre l.Layer.w
  done

let zero_grad (net : t) = Array.iter Layer.zero_grad net.layers

let copy_params ~(src : t) ~(dst : t) =
  Array.iteri (fun k l -> Layer.copy_params ~src:l ~dst:dst.layers.(k)) src.layers

(* parameter count, for reporting *)
let param_count (net : t) : int =
  Array.fold_left
    (fun acc (l : Layer.t) ->
      acc + Array.length l.Layer.w.Matrix.data + Array.length l.Layer.b)
    0 net.layers
