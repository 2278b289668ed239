(* Static throughput estimation in the style of llvm-mca.

   The paper's reward uses llvm-mca's throughput as a compile-time proxy
   for runtime (Eqn 3: higher throughput ⇒ lower runtime). We reproduce
   the analysis at the same altitude: machine instructions (from the
   codegen lowering) are binned onto execution resources; a block's
   steady-state cycles-per-iteration is the bottleneck resource pressure,
   floored by the dispatch width; blocks are weighted by a static
   frequency estimate (10× per loop-nest level, LLVM's classic static
   heuristic); and the module's throughput is the inverse of the weighted
   cycle total, so that "higher throughput, lesser runtime" holds by
   construction. [measure] sizes the object file from the same lowering,
   so a measurement lowers each function once. *)

open Posetrl_ir
open Posetrl_codegen
open Target

(* per-class (units, reciprocal throughput when dispatched to one unit) *)
type resource_model = {
  dispatch_width : float;
  alu_units : float;
  mul_units : float;
  div_rthru : float; (* cycles per division (unpipelined) *)
  fp_units : float;
  fpdiv_rthru : float;
  load_units : float;
  store_units : float;
  branch_units : float;
  vec_units : float;
}

let model_of (t : Target.t) : resource_model =
  match t.arch with
  | X86_64 ->
    { dispatch_width = 4.0;
      alu_units = 4.0;
      mul_units = 1.0;
      div_rthru = 21.0;
      fp_units = 2.0;
      fpdiv_rthru = 13.0;
      load_units = 2.0;
      store_units = 1.0;
      branch_units = 1.0;
      vec_units = 2.0 }
  | AArch64 ->
    (* Cortex-A72-like: 3-wide dispatch, fewer pipes *)
    { dispatch_width = 3.0;
      alu_units = 2.0;
      mul_units = 1.0;
      div_rthru = 20.0;
      fp_units = 2.0;
      fpdiv_rthru = 17.0;
      load_units = 1.0;
      store_units = 1.0;
      branch_units = 1.0;
      vec_units = 2.0 }

(* [mclass] as an index into a block's 15 class counts *)
let class_index = function
  | MAlu -> 0
  | MMul -> 1
  | MDiv -> 2
  | MFpAdd -> 3
  | MFpMul -> 4
  | MFpDiv -> 5
  | MLoad -> 6
  | MStore -> 7
  | MBranch -> 8
  | MCall -> 9
  | MMov -> 10
  | MLea -> 11
  | MVecAlu -> 12
  | MVecMem -> 13
  | MNop -> 14

(* steady-state cycles for one execution of a lowered block *)
let block_cycles (t : Target.t) (minsts : minst list) : float =
  let rm = model_of t in
  let counts = Array.make 15 0 in
  List.iter
    (fun m ->
      let k = class_index m.Target.klass in
      counts.(k) <- counts.(k) + 1)
    minsts;
  let count klass = float_of_int counts.(class_index klass) in
  let total = float_of_int (List.length minsts) in
  let pressures =
    [ (count MAlu +. count MLea +. count MMov) /. rm.alu_units;
      count MMul /. rm.mul_units;
      count MDiv *. rm.div_rthru;
      (count MFpAdd +. count MFpMul) /. rm.fp_units;
      count MFpDiv *. rm.fpdiv_rthru;
      count MLoad /. rm.load_units;
      count MStore /. rm.store_units;
      (count MBranch +. count MCall) /. rm.branch_units;
      (count MVecAlu +. count MVecMem) /. rm.vec_units;
      total /. rm.dispatch_width ]
  in
  Float.max 1.0 (List.fold_left Float.max 0.0 pressures)

(* static block frequency: 10 per loop level, capped; entry-relative *)
let max_loop_boost = 3

(* Weighted cycles of a defined function, from its lowering: the lowered
   blocks are walked in step with [f.Func.blocks]. *)
let func_cycles (t : Target.t) (f : Func.t) (lf : Lower.lowered_func) : float =
  let li = Loops.compute f in
  List.fold_left2
    (fun acc (b : Block.t) minsts ->
      let d = min max_loop_boost (Loops.depth li b.Block.label) in
      acc +. ((10.0 ** float_of_int d) *. block_cycles t minsts))
    0.0 f.Func.blocks lf.Lower.blocks

type estimate = {
  cycles : float;      (* weighted static cycles *)
  throughput : float;  (* work units per cycle; higher = faster *)
}

let throughput_scale = 1.0e6

(* The one lowering walk: each defined function of [m] lowered once, in
   module order, with the module's weighted cycles. *)
let lower_module (t : Target.t) (m : Modul.t) : Lower.lowered_func list * estimate =
  let lowered, cycles =
    List.fold_left
      (fun (lowered, cycles) f ->
        let lf = Lower.lower_func t f in
        (lf :: lowered, cycles +. func_cycles t f lf))
      ([], 0.0) (Modul.defined_funcs m)
  in
  let cycles = Float.max 1.0 cycles in
  (List.rev lowered, { cycles; throughput = throughput_scale /. cycles })

let estimate (t : Target.t) (m : Modul.t) : estimate = snd (lower_module t m)

module Obs = Posetrl_obs

let m_evals = Obs.Metrics.counter "posetrl.mca.evals"

(* What one compile step yields (the paper's Fig. 3: one object, sized
   for Eqn 2 and fed to llvm-mca for Eqn 3): object size, text size and
   MCA throughput, read off a single lowering of each function. *)
type measurement = { size : int; text : int; throughput : float }

let measure (t : Target.t) (m : Modul.t) : measurement =
  Obs.Metrics.inc m_evals;
  Obs.Span.with_ "posetrl.measure"
    ~attrs:[ ("target", Obs.Event.S t.name) ]
    (fun _ ->
      let lowered, e = lower_module t m in
      let s = Objfile.sections t m lowered in
      { size = Objfile.total s; text = s.Objfile.text; throughput = e.throughput })

let throughput (t : Target.t) (m : Modul.t) : float = (measure t m).throughput
