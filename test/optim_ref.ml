(* Reference Adam step: Posetrl_nn.Optim.step as it was before its update
   loop moved into lib/nn/kernels.c, kept verbatim. It leaves the
   gradients as they were. test_nn.ml checks that Optim.step writes the
   same parameter and moment bits, and reads the gradients back as 0.0. *)

open Posetrl_nn
open Optim

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
