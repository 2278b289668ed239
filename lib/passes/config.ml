(* Per-pipeline tuning knobs.

   LLVM's optimization levels run largely the same passes with different
   parameters; the O2/O3 vs Os/Oz runtime-vs-size trade-off comes mostly
   from these thresholds. The same mechanism gives our pipelines their
   Fig-1 behaviour (O3 faster but bigger, Oz smaller but slower). *)

type t = {
  size_level : int;          (* 0 = speed, 1 = -Os, 2 = -Oz *)
  inline_threshold : int;    (* max callee cost eligible for inlining *)
  unroll_count : int;        (* full-unroll trip-count limit *)
  unroll_partial : int;      (* partial unroll factor; 1 disables *)
  unroll_size_limit : int;   (* max body size (insns) eligible for unrolling *)
  vector_width : int;        (* loop-vectorize's width; below 2 disables *)
  speculate_max_insns : int; (* speculative-execution hoisting budget *)
}

let o0 = {
  size_level = 0;
  inline_threshold = 0;
  unroll_count = 0; unroll_partial = 1; unroll_size_limit = 0;
  vector_width = 1;
  speculate_max_insns = 0;
}

let o1 = {
  size_level = 0;
  inline_threshold = 25;
  unroll_count = 4; unroll_partial = 1; unroll_size_limit = 24;
  vector_width = 1;
  speculate_max_insns = 2;
}

let o2 = {
  size_level = 0;
  inline_threshold = 225;
  unroll_count = 16; unroll_partial = 4; unroll_size_limit = 120;
  vector_width = 4;
  speculate_max_insns = 4;
}

let o3 = {
  o2 with
  inline_threshold = 275;
  unroll_count = 32; unroll_partial = 8; unroll_size_limit = 200;
}

let os = {
  o2 with
  size_level = 1;
  inline_threshold = 50;
  unroll_count = 4; unroll_partial = 1; unroll_size_limit = 32;
}

let oz = {
  o2 with
  size_level = 2;
  inline_threshold = 5;
  unroll_count = 2; unroll_partial = 1; unroll_size_limit = 12;
  vector_width = 1;
}
