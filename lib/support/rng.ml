(* Deterministic pseudo-random streams based on SplitMix64.

   Every source of randomness in the project (weight initialization,
   epsilon-greedy exploration, replay sampling, workload generation) draws
   from an explicit [t] value, so whole experiments are reproducible
   bit-for-bit from a single integer seed. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* Core SplitMix64 step: advances the state and mixes it into an output. *)
let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Derive an independent stream; used to give each component its own RNG. *)
let split t =
  let s = next_int64 t in
  { state = Int64.logxor s 0xA5A5A5A5A5A5A5A5L }

let bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

(* Uniform float in [0, 1). *)
let float t = float_of_int (bits53 t) /. 9007199254740992.0

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value stays non-negative in OCaml's 63-bit int *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Standard normal via Box-Muller. *)
let normal t =
  let u1 = max 1e-12 (float t) in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* Pick a uniformly random element of a non-empty array. *)
let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

(* In-place Fisher-Yates shuffle. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
