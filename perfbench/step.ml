(* The environment step, re-driven through the public call of each
   layer so a traced run can time them one by one. The arithmetic is
   that of [Posetrl_core.Environment.step] (same passes, same
   measurements, same reward), which the workloads check by comparing
   the re-driven results with the real ones.

   Traffic properties are counted here too, as untimed bookkeeping:
   repeated (module, action) transitions, passes that change nothing,
   and functions that come out of a step structurally or physically
   unchanged. *)

open Posetrl_ir
module T = Trace
module C = Posetrl_core
module P = Posetrl_passes
module A = Posetrl_analysis
module CG = Posetrl_codegen

type ctx = {
  tr : T.t;
  sanitize : A.Sanitize.level;
  seen : (string, unit) Hashtbl.t;  (* transition keys met so far *)
  mutable sanitize_errors : int;
}

let create ?(sanitize = A.Sanitize.Off) tr =
  { tr; sanitize; seen = Hashtbl.create 4096; sanitize_errors = 0 }

let same (a : 'a) (b : 'a) = a == b || compare a b = 0

(* One pass: registry lookup + run, then the sanitizer when on. *)
let run_pass (cx : ctx) (cfg : P.Config.t) (name : string) (m : Modul.t) :
    Modul.t =
  let p, m' =
    T.span cx.tr "passes" (fun () ->
        let p = P.Registry.find_exn name in
        (p, P.Pass.run p cfg m))
  in
  if cx.sanitize <> A.Sanitize.Off then begin
    let errs =
      T.span cx.tr "analysis.sanitize" (fun () ->
          A.Sanitize.check_transform cx.sanitize
            ~per_function:(p.P.Pass.scope = P.Pass.Function_scope)
            ~before:m m')
    in
    if errs <> [] then cx.sanitize_errors <- cx.sanitize_errors + 1
  end;
  T.untimed cx.tr (fun () ->
      T.count cx.tr "passes.runs" 1.0;
      if not (same m m') then T.count cx.tr "passes.changed" 1.0);
  m'

let run_passes cx cfg names m = List.fold_left (fun m n -> run_pass cx cfg n m) m names

(* Object size and MCA throughput, as [Reward.measure]; plus, outside
   the op, one lowering of every defined function — the reference cost
   of the single lowering both measurements repeat. *)
let measure (cx : ctx) (m : Modul.t) : C.Reward.measurement =
  let size = T.span cx.tr "codegen.objfile" (fun () -> CG.Objfile.size Common.target m) in
  let thru = T.span cx.tr "mca" (fun () -> Posetrl_mca.Mca.throughput Common.target m) in
  T.side cx.tr "codegen.lower" (fun () ->
      List.iter
        (fun f ->
          if not (Func.is_declaration f) then
            ignore (CG.Lower.lower_func Common.target f))
        m.Modul.funcs);
  { C.Reward.bin_size = float_of_int size; throughput = thru }

let embed (cx : ctx) (m : Modul.t) : float array =
  T.span cx.tr "ir2vec" (fun () -> Posetrl_ir2vec.Encoder.embed_program_state m)

let transition_key (m : Modul.t) (a : int) : string =
  Digest.string (Marshal.to_string m [ Marshal.No_sharing ]) ^ string_of_int a

(* How each defined input function came out of the step. *)
let count_unchanged (cx : ctx) (m : Modul.t) (m' : Modul.t) : unit =
  T.count cx.tr "passes.steps" 1.0;
  if same m m' then T.count cx.tr "passes.module_unchanged" 1.0;
  List.iter
    (fun (f : Func.t) ->
      if not (Func.is_declaration f) then begin
        T.count cx.tr "passes.funcs" 1.0;
        match Modul.find_func m' f.Func.name with
        | Some g when g == f ->
          T.count cx.tr "passes.func_unchanged_phys" 1.0;
          T.count cx.tr "passes.func_unchanged_struct" 1.0
        | Some g when compare g f = 0 ->
          T.count cx.tr "passes.func_unchanged_struct" 1.0
        | _ -> ()
      end)
    m.Modul.funcs

type env = {
  cx : ctx;
  mutable cur : Modul.t;
  base : C.Reward.measurement;
  mutable last : C.Reward.measurement;
  mutable idx : int;
}

let reset (cx : ctx) (m : Modul.t) : env * float array =
  let meas = measure cx m in
  ({ cx; cur = m; base = meas; last = meas; idx = 0 }, embed cx m)

let step (e : env) (a : int) : C.Environment.step_result =
  let cx = e.cx and m = e.cur in
  T.untimed cx.tr (fun () ->
      let k = transition_key m a in
      T.count cx.tr "core.transitions" 1.0;
      if Hashtbl.mem cx.seen k then T.count cx.tr "core.repeat_transitions" 1.0
      else Hashtbl.replace cx.seen k ());
  let m' =
    run_passes cx P.Config.oz (Posetrl_odg.Action_space.action Common.actions a) m
  in
  T.untimed cx.tr (fun () -> count_unchanged cx m m');
  let curr = measure cx m' in
  let comps = C.Reward.decompose ~base:e.base ~last:e.last ~curr () in
  e.cur <- m';
  e.last <- curr;
  e.idx <- e.idx + 1;
  { C.Environment.state = embed cx m';
    reward = comps.C.Reward.total;
    r_binsize = comps.C.Reward.binsize;
    r_throughput = comps.C.Reward.throughput;
    terminal = e.idx >= C.Environment.default_max_steps }

let greedy (cx : ctx) (agent : Posetrl_rl.Dqn.t) (s : float array) : int =
  T.count cx.tr "rl.forward.rows" 1.0;
  T.span cx.tr "rl.forward" (fun () -> Posetrl_rl.Dqn.greedy_action agent s)

(* The traffic ratios every workload reports. *)
let ratios (tr : T.t) : Common.metric list =
  let r name num den = Common.m name "ratio" (T.ratio tr num den) in
  [ r "core.repeat_transition_frac" "core.repeat_transitions" "core.transitions";
    r "passes.changed_frac" "passes.changed" "passes.runs";
    r "passes.module_unchanged_frac" "passes.module_unchanged" "passes.steps";
    r "passes.func_unchanged_struct_frac" "passes.func_unchanged_struct" "passes.funcs";
    r "passes.func_unchanged_phys_frac" "passes.func_unchanged_phys" "passes.funcs";
    Common.m "rl.forward.rows_per_call" "count"
      (let calls =
         List.fold_left
           (fun acc (n, c, _) -> if n = "rl.forward" then c else acc)
           0 (T.layer_totals tr)
       in
       if calls = 0 then 0.0 else T.counter tr "rl.forward.rows" /. float_of_int calls) ]

(* Per-layer metrics of a traced run: calls, self time per op and share
   of the traced op time; codegen.lower (side work) is reported but left
   out of the shares, which with core.unattributed sum to 1. *)
let layer_metrics (tr : T.t) ~(untraced_op_s : float) : Common.metric list =
  let ops = float_of_int (max 1 (T.ops tr)) in
  let op_s = T.op_seconds tr in
  let per name calls self =
    [ Common.m (name ^ ".calls_per_op") "count" (float_of_int calls /. ops);
      Common.m (name ^ ".us_per_op") "us" (self *. 1e6 /. ops);
      Common.m (name ^ ".share") "ratio" (if op_s > 0.0 then self /. op_s else 0.0) ]
  in
  let un = T.unattributed_s tr in
  List.concat_map (fun (n, c, s) -> per n c s) (T.layer_totals tr)
  @ [ Common.m "core.unattributed.us_per_op" "us" (un *. 1e6 /. ops);
      Common.m "core.unattributed.share" "ratio" (if op_s > 0.0 then un /. op_s else 0.0);
      Common.m "core.op.us_per_op" "us" (op_s *. 1e6 /. ops);
      Common.m "trace.overhead_frac" "ratio"
        (if untraced_op_s > 0.0 then (op_s /. untraced_op_s) -. 1.0 else 0.0) ]
  @ ratios tr
