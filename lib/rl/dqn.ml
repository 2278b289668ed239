(* Deep Q-Network agent with the Double-DQN target (paper §II-B).

   Two networks: the online network selects actions and is trained every
   step-batch; the target network scores the action the online network
   picked for the next state — the van Hasselt fix for Q-value
   overestimation. Plain DQN (target network both selects and scores) is
   kept for the ablation bench. *)

open Posetrl_support
open Posetrl_nn
module Obs = Posetrl_obs

let m_forwards = Obs.Metrics.counter "posetrl.dqn.forwards"
let m_batches = Obs.Metrics.counter "posetrl.dqn.train_batches"
let m_syncs = Obs.Metrics.counter "posetrl.dqn.target_syncs"
let m_rows = Obs.Metrics.counter "posetrl.dqn.learner_rows"
let m_memo_hits = Obs.Metrics.counter "posetrl.dqn.target_memo_hits"

(* Q-value drift diagnostics, refreshed on every online forward (the
   fold is ~n_actions float ops — noise next to the MLP itself). A
   runaway q_max under a falling loss is the classic overestimation
   signature these exist to surface live (`/metrics`). *)
let m_q_mean = Obs.Metrics.gauge "posetrl.dqn.q_mean"
let m_q_max = Obs.Metrics.gauge "posetrl.dqn.q_max"

(* Rows keyed on their bits: 0.0 and -0.0, or two NaN payloads, make
   different rows, and two arrays with the same bits the same row. *)
module Rows = Hashtbl.Make (struct
  type t = float array

  let equal a b =
    a == b
    || Array.length a = Array.length b
       &&
       let i = ref 0 in
       while !i < Array.length a && Int64.bits_of_float a.(!i) = Int64.bits_of_float b.(!i) do
         incr i
       done;
       !i = Array.length a

  let hash a =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 31) + Int64.to_int (Int64.bits_of_float a.(i))
    done;
    !h land max_int
end)

type memo = float array Rows.t

(* Between two syncs the fast schedule adds at most 1,600 rows and the
   paper schedule 4,000, so the cap only bounds misuse. *)
let memo_cap = 4096

type t = {
  online : Mlp.t;
  target : Mlp.t;
  optim : Optim.t;
  gamma : float;
  n_actions : int;
  double : bool;
  target_memo : memo;
  (* the target net's Q rows since the last sync, keyed on the state *)
  mutable train_steps : int;
}

let create ?(gamma = 0.99) ?(lr = 1e-4) ?(double = true) (rng : Rng.t)
    ~(state_dim : int) ~(hidden : int list) ~(n_actions : int) : t =
  let dims = (state_dim :: hidden) @ [ n_actions ] in
  let online = Mlp.create rng dims in
  let target = Mlp.create rng dims in
  Mlp.copy_params ~src:online ~dst:target;
  { online;
    target;
    optim = Optim.create ~lr ();
    gamma;
    n_actions;
    double;
    target_memo = Rows.create 256;
    train_steps = 0 }

(* Count one online forward and refresh the drift gauges from its
   Q-values. *)
let observe_q (q : float array) : unit =
  Obs.Metrics.inc m_forwards;
  if Array.length q > 0 then begin
    let sum = ref 0.0 and mx = ref neg_infinity in
    Array.iter
      (fun v ->
        sum := !sum +. v;
        if v > !mx then mx := v)
      q;
    Obs.Metrics.set m_q_mean (!sum /. float_of_int (Array.length q));
    Obs.Metrics.set m_q_max !mx
  end

let q_values (t : t) (state : float array) : float array =
  let q = Mlp.forward t.online state in
  observe_q q;
  q

let greedy_action (t : t) (state : float array) : int =
  Vecf.argmax (q_values t state)

(* One gemm over every state. The forward count and the gauges then
   move row by row, in row order, exactly as a loop of [greedy_action]
   would leave them: the trainer's progress tick reads q_max right after
   a greedy probe. *)
let greedy_actions (t : t) (states : float array array) : int array =
  if Array.length states = 0 then [||]
  else begin
    let q = Mlp.forward_batch t.online (Matrix.of_rows states) in
    Array.init (Array.length states) (fun i ->
        let row = Matrix.row q i in
        observe_q row;
        Vecf.argmax row)
  end

let select_action (t : t) (rng : Rng.t) ~(epsilon : float) (state : float array) : int =
  if Rng.float rng < epsilon then Rng.int rng t.n_actions
  else greedy_action t state

(* A batch's distinct rows in first-seen order, each with its index. *)
type rowset = { index : int Rows.t; mutable rows : float array list; mutable count : int }

let rowset () = { index = Rows.create 64; rows = []; count = 0 }

let slot (s : rowset) (r : float array) : int =
  match Rows.find_opt s.index r with
  | Some i -> i
  | None ->
    let i = s.count in
    Rows.add s.index r i;
    s.rows <- r :: s.rows;
    s.count <- i + 1;
    i

let distinct_rows (s : rowset) : float array array = Array.of_list (List.rev s.rows)

(* TD targets: the reward, plus γ times the next state's target-net value
   for live transitions. For double DQN the online net picks the action
   that value is read at; [q_next i] is its row for batch.(i)'s next
   state. The target net's rows come from [target_memo] when it has them,
   and one forward computes the batch's distinct misses. Each gemm row
   depends only on its own input row (DESIGN.md §9), so a row is the same
   bits whichever forward computed it, as long as the target weights have
   not changed, and only [sync_target] changes them. *)
let td_targets (t : t) (batch : Replay.transition array) ~(q_next : int -> float array) :
    float array =
  let targets = Array.map (fun tr -> tr.Replay.reward) batch in
  let live = rowset () in
  let tidx =
    Array.map
      (fun tr ->
        match tr.Replay.next_state with
        | Some s' -> slot live s'
        | None -> -1)
      batch
  in
  let rows = distinct_rows live in
  let known = Array.map (Rows.find_opt t.target_memo) rows in
  let miss = List.filter (fun k -> Option.is_none known.(k)) (List.init live.count Fun.id) in
  let q_tgt = Array.map (Option.value ~default:[||]) known in
  let nmiss = List.length miss in
  Obs.Metrics.inc ~by:(float_of_int (live.count - nmiss)) m_memo_hits;
  if nmiss > 0 then begin
    Obs.Metrics.inc ~by:(float_of_int nmiss) m_rows;
    let x = Matrix.of_rows (Array.of_list (List.map (fun k -> rows.(k)) miss)) in
    let q = Mlp.forward_batch t.target x in
    List.iteri
      (fun j k ->
        q_tgt.(k) <- Matrix.row q j;
        if Rows.length t.target_memo >= memo_cap then Rows.reset t.target_memo;
        Rows.replace t.target_memo rows.(k) q_tgt.(k))
      miss
  end;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let q = q_tgt.(k) in
        let future = if t.double then q.(Vecf.argmax (q_next i)) else Vecf.max_elt q in
        targets.(i) <- targets.(i) +. (t.gamma *. future)
      end)
    tidx;
  targets

(* One gradient step over a sampled batch; returns mean Huber loss.

   One online forward covers the batch's distinct rows: its states and,
   for double DQN, its live next states. The state rows, gathered back
   into batch order with every layer's cached input and pre-activation,
   feed the loss and the backward pass; the backward pass and Adam still
   run over all of the batch's rows, since merging duplicates there
   would reorder the gradient sums. *)
let train_batch (t : t) (batch : Replay.transition array) : float =
  let n = Array.length batch in
  if n = 0 then 0.0
  else
    Obs.Span.with_ "posetrl.dqn.train_batch"
      ~attrs:[ ("batch", Obs.Event.I n) ]
      (fun sp ->
        Obs.Metrics.inc m_batches;
        Mlp.zero_grad t.online;
        let online = rowset () in
        let sidx = Array.map (fun tr -> slot online tr.Replay.state) batch in
        let nidx =
          Array.map
            (fun tr ->
              match tr.Replay.next_state with
              | Some s' when t.double -> slot online s'
              | _ -> -1)
            batch
        in
        let x = Matrix.of_rows (distinct_rows online) in
        let q, caches = Mlp.forward_batch_cached t.online x in
        Obs.Metrics.inc ~by:(float_of_int online.count) m_rows;
        let targets = td_targets t batch ~q_next:(fun i -> Matrix.row q nidx.(i)) in
        let caches =
          Array.map
            (fun (c : Layer.bcache) ->
              { Layer.binput = Matrix.gather c.Layer.binput sidx;
                bpre = Matrix.gather c.Layer.bpre sidx })
            caches
        in
        let total = ref 0.0 in
        let dout = Matrix.create n t.n_actions in
        Array.iteri
          (fun i tr ->
            let a = tr.Replay.action in
            let loss, dpred =
              Loss.huber ~pred:(Matrix.get q sidx.(i) a) ~target:targets.(i) ()
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

(* NaN/Inf scan of the online network's parameters — the watchdog's
   weight-health vital sign. O(params), cheap at tick cadence. *)
let weights_finite (t : t) : bool =
  Array.for_all
    (fun (l : Layer.t) ->
      Array.for_all Float.is_finite l.Layer.w.Matrix.data
      && Array.for_all Float.is_finite l.Layer.b)
    t.online.Mlp.layers

let sync_target (t : t) =
  Obs.Metrics.inc m_syncs;
  Obs.Span.with_ "posetrl.dqn.sync" (fun _ ->
      Mlp.copy_params ~src:t.online ~dst:t.target;
      Rows.reset t.target_memo)

(* --- persistence ---------------------------------------------------------

   Weights serialize to a plain text format so trained models can be
   saved from the CLI and reloaded by the bench. *)

let save_weights (t : t) (path : string) : unit =
  let oc = open_out path in
  let net = t.online in
  Printf.fprintf oc "posetrl-dqn %d\n" (Array.length net.Mlp.dims);
  Array.iter (fun d -> Printf.fprintf oc "%d " d) net.Mlp.dims;
  output_char oc '\n';
  Array.iter
    (fun (l : Layer.t) ->
      Array.iter (fun w -> Printf.fprintf oc "%h " w) l.Layer.w.Matrix.data;
      output_char oc '\n';
      Array.iter (fun b -> Printf.fprintf oc "%h " b) l.Layer.b;
      output_char oc '\n')
    net.Mlp.layers;
  close_out oc

(* Every line must hold exactly its layer's value count: a short line
   would leave weights at their random init and a long one would be
   silently cut. The whole file is parsed before any weight is written,
   so a rejected file leaves the agent as it was. *)
let load_weights (t : t) (path : string) : unit =
  let fail fmt =
    Printf.ksprintf (fun m -> failwith ("Dqn.load_weights: " ^ path ^ ": " ^ m)) fmt
  in
  let parse of_string what s =
    match of_string s with
    | Some v -> v
    | None -> fail "%s: bad value %S" what s
  in
  let ic = open_in path in
  let layers =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let line what =
          match input_line ic with
          | l -> l
          | exception End_of_file -> fail "file ends before %s" what
        in
        let header = line "the header" in
        if not (String.length header > 11 && String.sub header 0 11 = "posetrl-dqn") then
          fail "bad header";
        let dims =
          String.split_on_char ' ' (String.trim (line "the layer sizes"))
          |> List.map (parse int_of_string_opt "the layer sizes")
        in
        if dims <> Array.to_list t.online.Mlp.dims then fail "architecture mismatch";
        let values what expected =
          let toks =
            String.split_on_char ' ' (line what) |> List.filter (fun s -> s <> "")
          in
          let got = List.length toks in
          if got <> expected then fail "%s: %d values, expected %d" what got expected;
          Array.of_list (List.map (parse float_of_string_opt what) toks)
        in
        let layers =
          Array.mapi
            (fun k (l : Layer.t) ->
              let w =
                values (Printf.sprintf "layer %d weights" k)
                  (Array.length l.Layer.w.Matrix.data)
              in
              let b = values (Printf.sprintf "layer %d biases" k) (Array.length l.Layer.b) in
              (w, b))
            t.online.Mlp.layers
        in
        if String.trim (In_channel.input_all ic) <> "" then
          fail "unexpected data after the last layer";
        layers)
  in
  Array.iteri
    (fun k (w, b) ->
      let l = t.online.Mlp.layers.(k) in
      Array.blit w 0 l.Layer.w.Matrix.data 0 (Array.length w);
      Array.blit b 0 l.Layer.b 0 (Array.length b))
    layers;
  sync_target t
