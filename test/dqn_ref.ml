(* Reference learner: Posetrl_rl.Dqn.td_targets and train_batch as they
   were before the learner computed each distinct row once, kept
   verbatim. Every batch runs the online net over all of its states, and
   the target net (and, for double DQN, the online net) over all of its
   live next states; nothing is shared or remembered. test_rl.ml checks
   that the learner and this reference train to the same loss and weight
   bits. *)

open Posetrl_support
open Posetrl_nn
open Posetrl_rl
open Dqn
module Obs = Posetrl_obs

let m_batches = Obs.Metrics.counter "posetrl.dqn.train_batches"

(* TD targets for a whole batch: gather the non-terminal next states
   into one matrix and run the target (and, for double DQN, the online)
   network once — two gemm sweeps replace 2n matvec chains. *)
let td_targets (t : t) (batch : Replay.transition array) : float array =
  let targets = Array.map (fun tr -> tr.Replay.reward) batch in
  let live = ref [] in
  Array.iteri
    (fun i tr ->
      match tr.Replay.next_state with
      | Some s' -> live := (i, s') :: !live
      | None -> ())
    batch;
  (match List.rev !live with
   | [] -> ()
   | live ->
     let idx = Array.of_list (List.map fst live) in
     let s' = Matrix.of_rows (Array.of_list (List.map snd live)) in
     let q_tgt = Mlp.forward_batch t.target s' in
     let futures =
       if t.double then begin
         let q_onl = Mlp.forward_batch t.online s' in
         Array.init (Array.length idx) (fun k ->
             let a' = Vecf.argmax (Matrix.row q_onl k) in
             Matrix.get q_tgt k a')
       end
       else
         Array.init (Array.length idx) (fun k -> Vecf.max_elt (Matrix.row q_tgt k))
     in
     Array.iteri
       (fun k i -> targets.(i) <- targets.(i) +. (t.gamma *. futures.(k)))
       idx);
  targets

(* One gradient step over a sampled batch; returns mean Huber loss.
   True minibatch: one batched forward/backward (a handful of gemms)
   instead of n per-sample matvec chains. *)
let train_batch (t : t) (batch : Replay.transition array) : float =
  let n = Array.length batch in
  if n = 0 then 0.0
  else
    Obs.Span.with_ "posetrl.dqn.train_batch"
      ~attrs:[ ("batch", Obs.Event.I n) ]
      (fun sp ->
        Obs.Metrics.inc m_batches;
        Mlp.zero_grad t.online;
        let targets = td_targets t batch in
        let x = Matrix.of_rows (Array.map (fun tr -> tr.Replay.state) batch) in
        let q, caches = Mlp.forward_batch_cached t.online x in
        let total = ref 0.0 in
        let dout = Matrix.create n t.n_actions in
        Array.iteri
          (fun i tr ->
            let a = tr.Replay.action in
            let loss, dpred =
              Loss.huber ~pred:(Matrix.get q i a) ~target:targets.(i) ()
            in
            total := !total +. loss;
            Matrix.set dout i a (dpred /. float_of_int n))
          batch;
        Mlp.backward_batch t.online caches dout;
        Optim.step t.optim t.online;
        t.train_steps <- t.train_steps + 1;
        let mean = !total /. float_of_int n in
        Obs.Span.set_attr sp "loss" (Obs.Event.F mean);
        mean)
