(* Adam optimizer over a network's accumulated gradients. *)

type t = {
  lr : float;
  beta1 : float;
  beta2 : float;
  eps : float;
  grad_clip : float; (* global-norm clip; 0 disables *)
  mutable step_count : int;
}

let create ?(lr = 1e-4) ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8)
    ?(grad_clip = 10.0) () =
  { lr; beta1; beta2; eps; grad_clip; step_count = 0 }

(* Plain loops throughout: a float ref captured by an [Array.iter]
   closure would box every partial sum. *)
let grad_norm (net : Mlp.t) : float =
  let acc = ref 0.0 in
  for k = 0 to Array.length net.Mlp.layers - 1 do
    let l = net.Mlp.layers.(k) in
    let gw = l.Layer.gw.Matrix.data and gb = l.Layer.gb in
    for i = 0 to Array.length gw - 1 do
      acc := !acc +. (gw.(i) *. gw.(i))
    done;
    for i = 0 to Array.length gb - 1 do
      acc := !acc +. (gb.(i) *. gb.(i))
    done
  done;
  sqrt !acc

(* [step]'s update indexes without bounds checks: each layer's gradients
   and moments must have its parameters' lengths. *)
let check_layer (l : Layer.t) =
  List.iter (Matrix.check "Optim.step") [ l.Layer.w; l.Layer.gw; l.Layer.mw; l.Layer.vw ];
  let same p rest =
    if List.exists (fun a -> Array.length a <> Array.length p) rest then
      invalid_arg "Optim.step: a gradient or moment is not its parameter's size"
  in
  same l.Layer.w.Matrix.data
    [ l.Layer.gw.Matrix.data; l.Layer.mw.Matrix.data; l.Layer.vw.Matrix.data ];
  same l.Layer.b [ l.Layer.gb; l.Layer.mb; l.Layer.vb ]

let step (o : t) (net : Mlp.t) : unit =
  Array.iter check_layer net.Mlp.layers;
  o.step_count <- o.step_count + 1;
  let t = float_of_int o.step_count in
  let bc1 = 1.0 -. (o.beta1 ** t) in
  let bc2 = 1.0 -. (o.beta2 ** t) in
  let clip_scale =
    if o.grad_clip > 0.0 then begin
      let n = grad_norm net in
      if n > o.grad_clip then o.grad_clip /. n else 1.0
    end
    else 1.0
  in
  let lr = o.lr and eps = o.eps and b1 = o.beta1 and b2 = o.beta2 in
  let b1c = 1.0 -. b1 and b2c = 1.0 -. b2 in
  (* parameters [p], gradients [g], moments [m]/[v] *)
  let update p g m v =
    for i = 0 to Array.length p - 1 do
      let gi = Array.unsafe_get g i *. clip_scale in
      Array.unsafe_set m i ((b1 *. Array.unsafe_get m i) +. (b1c *. gi));
      Array.unsafe_set v i ((b2 *. Array.unsafe_get v i) +. (b2c *. gi *. gi));
      let mhat = Array.unsafe_get m i /. bc1 and vhat = Array.unsafe_get v i /. bc2 in
      Array.unsafe_set p i (Array.unsafe_get p i -. (lr *. mhat /. (sqrt vhat +. eps)))
    done
  in
  Array.iter
    (fun (l : Layer.t) ->
      update l.Layer.w.Matrix.data l.Layer.gw.Matrix.data l.Layer.mw.Matrix.data
        l.Layer.vw.Matrix.data;
      update l.Layer.b l.Layer.gb l.Layer.mb l.Layer.vb)
    net.Mlp.layers
