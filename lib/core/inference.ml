(* Greedy policy rollout: given a trained agent and unoptimized modules,
   predict each one's action sequence and optimized module (paper Table
   VI shows such predicted sequences). This is the one greedy rollout:
   eval, the serve engine and the trainer's best-snapshot probe all go
   through [predict_batch]. *)

open Posetrl_ir
module Rl = Posetrl_rl

type rollout = {
  actions : int list;
  optimized : Modul.t;
  reward : float;
}

(* Roll every module out in lockstep: at each episode step one
   [Dqn.greedy_actions] gemm scores all the modules' states. Every
   environment has the same episode length, so all rows turn terminal
   on the same step and the batch never shrinks. *)
let predict_batch ?(max_steps = Environment.default_max_steps)
    ?(sanitize = Posetrl_analysis.Sanitize.Off) ~(agent : Rl.Dqn.t) ~(actions : Posetrl_odg.Action_space.t)
    ~(target : Posetrl_codegen.Target.t) (ms : Modul.t list) : rollout list =
  let ms = Array.of_list ms in
  let n = Array.length ms in
  let envs =
    Array.map
      (fun _ -> Environment.create ~max_steps ~sanitize ~target ~actions ())
      ms
  in
  let states = Array.mapi (fun i m -> Environment.reset envs.(i) m) ms in
  let taken = Array.make n [] in
  let reward = Array.make n 0.0 in
  let terminal = ref (n = 0) in
  while not !terminal do
    Array.iteri
      (fun i a ->
        taken.(i) <- a :: taken.(i);
        let res = Environment.step envs.(i) a in
        reward.(i) <- reward.(i) +. res.Environment.reward;
        states.(i) <- res.Environment.state;
        terminal := res.Environment.terminal)
      (Rl.Dqn.greedy_actions agent states)
  done;
  List.init n (fun i ->
      { actions = List.rev taken.(i);
        optimized = Environment.current_module envs.(i);
        reward = reward.(i) })

let predict ?max_steps ?sanitize ~agent ~actions ~target (m : Modul.t) :
    rollout =
  match predict_batch ?max_steps ?sanitize ~agent ~actions ~target [ m ] with
  | [ r ] -> r
  | _ -> assert false

(* Apply an explicit action-index sequence (replay of a Table-VI row). *)
let apply_sequence ~(actions : Posetrl_odg.Action_space.t) (seq : int list)
    (m : Modul.t) : Modul.t =
  List.fold_left
    (fun m a ->
      Posetrl_passes.Pass_manager.run Posetrl_passes.Config.oz
        (Posetrl_odg.Action_space.action actions a)
        m)
    m seq
