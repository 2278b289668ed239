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

let step (o : t) (net : Mlp.t) : unit =
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
      let gi = g.(i) *. clip_scale in
      m.(i) <- (b1 *. m.(i)) +. (b1c *. gi);
      v.(i) <- (b2 *. v.(i)) +. (b2c *. gi *. gi);
      let mhat = m.(i) /. bc1 and vhat = v.(i) /. bc2 in
      p.(i) <- p.(i) -. (lr *. mhat /. (sqrt vhat +. eps))
    done
  in
  Array.iter
    (fun (l : Layer.t) ->
      update l.Layer.w.Matrix.data l.Layer.gw.Matrix.data l.Layer.mw.Matrix.data
        l.Layer.vw.Matrix.data;
      update l.Layer.b l.Layer.gb l.Layer.mb l.Layer.vb)
    net.Mlp.layers
