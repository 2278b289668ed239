(* A fully-connected layer with Adam state and optional ReLU. *)

open Posetrl_support

type t = {
  w : Matrix.t;
  b : float array;
  relu : bool;
  (* gradient accumulators *)
  gw : Matrix.t;
  gb : float array;
  (* Adam moments *)
  mw : Matrix.t;
  vw : Matrix.t;
  mb : float array;
  vb : float array;
}

(* He initialization for ReLU layers, Xavier otherwise. *)
let create (rng : Rng.t) ~in_dim ~out_dim ~relu =
  let scale =
    if relu then sqrt (2.0 /. float_of_int in_dim)
    else sqrt (1.0 /. float_of_int in_dim)
  in
  { w = Matrix.init out_dim in_dim (fun _ _ -> Rng.normal rng *. scale);
    b = Array.make out_dim 0.0;
    relu;
    gw = Matrix.create out_dim in_dim;
    gb = Array.make out_dim 0.0;
    mw = Matrix.create out_dim in_dim;
    vw = Matrix.create out_dim in_dim;
    mb = Array.make out_dim 0.0;
    vb = Array.make out_dim 0.0 }

(* One gemm per layer over a whole batch: rows are batch elements (a
   single state is the one-row case). Term order per output element is
   fixed — ascending input index forward, ascending sample index into
   the gradients — so batch size and row blocking never change the
   arithmetic; see DESIGN.md §9. *)

type bcache = {
  binput : Matrix.t; (* batch x in_dim *)
  bpre : Matrix.t;   (* batch x out_dim, pre-activation *)
}

let forward_batch (l : t) (x : Matrix.t) : Matrix.t * bcache =
  if x.Matrix.cols <> l.w.Matrix.cols then
    invalid_arg "Layer.forward_batch: dimension mismatch";
  let pre = Matrix.gemm_nt x l.w in
  let out_dim = l.w.Matrix.rows in
  (* bias add and activation in one closure-free pass: an [Array.map]
     closure would box every element *)
  let pd = pre.Matrix.data in
  let od = Array.make (Array.length pd) 0.0 in
  for i = 0 to pre.Matrix.rows - 1 do
    let base = i * out_dim in
    for j = 0 to out_dim - 1 do
      let v = pd.(base + j) +. l.b.(j) in
      pd.(base + j) <- v;
      if v > 0.0 || not l.relu then od.(base + j) <- v
    done
  done;
  ({ pre with Matrix.data = od }, { binput = x; bpre = pre })

(* Accumulates gradients over the whole batch; returns dL/dpre rows, from
   which the caller takes dL/dinput as [Matrix.gemm dpre w] when it has a
   use for it. *)
let backward_batch (l : t) (c : bcache) (dout : Matrix.t) : Matrix.t =
  let dpre =
    if l.relu then begin
      let dd = dout.Matrix.data and pd = c.bpre.Matrix.data in
      let masked = Array.make (Array.length dd) 0.0 in
      for i = 0 to Array.length dd - 1 do
        if pd.(i) > 0.0 then masked.(i) <- dd.(i)
      done;
      { dout with Matrix.data = masked }
    end
    else dout
  in
  Matrix.gemm_tn_acc l.gw dpre c.binput;
  let out_dim = dpre.Matrix.cols in
  for i = 0 to dpre.Matrix.rows - 1 do
    let base = i * out_dim in
    for j = 0 to out_dim - 1 do
      l.gb.(j) <- l.gb.(j) +. dpre.Matrix.data.(base + j)
    done
  done;
  dpre

let zero_grad (l : t) =
  Matrix.fill_zero l.gw;
  Array.fill l.gb 0 (Array.length l.gb) 0.0

(* Copy parameters from [src] (used for target-network sync). *)
let copy_params ~(src : t) ~(dst : t) =
  Array.blit src.w.Matrix.data 0 dst.w.Matrix.data 0 (Array.length src.w.Matrix.data);
  Array.blit src.b 0 dst.b 0 (Array.length src.b)
