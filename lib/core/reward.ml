(* Reward computation (paper §III-C, Eqns 1-3).

     R = α·R_BinSize + β·R_Throughput
     R_BinSize    = (BinSize_last − BinSize_curr) / BinSize_base
     R_Throughput = (Throughput_curr − Throughput_last) / Throughput_base

   with α = 10 and β = 5 ("to give more weight to R_BinSize than
   R_Throughput", §V-A). Baselines are the unoptimized module's object
   size and MCA throughput, fixed per episode. *)

type weights = {
  alpha : float;
  beta : float;
}

let paper_weights = { alpha = 10.0; beta = 5.0 }

type measurement = {
  bin_size : float;    (* object-file bytes *)
  throughput : float;  (* MCA static throughput, higher = faster *)
}

type baseline = measurement (* the unoptimized module's measurement *)

let r_binsize ~(base : baseline) ~(last : measurement) ~(curr : measurement) =
  if base.bin_size <= 0.0 then 0.0
  else (last.bin_size -. curr.bin_size) /. base.bin_size

let r_throughput ~(base : baseline) ~(last : measurement) ~(curr : measurement) =
  if base.throughput <= 0.0 then 0.0
  else (curr.throughput -. last.throughput) /. base.throughput

(* The Eqn-1 total together with its two unweighted components; the run
   ledger persists the components per step so finished runs can be
   re-analysed without re-measuring. *)
type components = {
  total : float;       (* Eqn 1: α·binsize + β·throughput *)
  binsize : float;     (* Eqn 2, unweighted *)
  throughput : float;  (* Eqn 3, unweighted *)
}

let decompose ?(weights = paper_weights) ~(base : baseline)
    ~(last : measurement) ~(curr : measurement) () : components =
  let binsize = r_binsize ~base ~last ~curr in
  let throughput = r_throughput ~base ~last ~curr in
  { total = (weights.alpha *. binsize) +. (weights.beta *. throughput);
    binsize;
    throughput }

(* Measurement of a module under a target. *)
let measure (target : Posetrl_codegen.Target.t) (m : Posetrl_ir.Modul.t) : measurement =
  let { Posetrl_mca.Mca.size; throughput; _ } = Posetrl_mca.Mca.measure target m in
  { bin_size = float_of_int size; throughput }
