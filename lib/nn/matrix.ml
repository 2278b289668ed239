(* Dense row-major matrices; just enough linear algebra for the MLPs. *)

type t = {
  rows : int;
  cols : int;
  data : float array; (* length rows*cols, row-major *)
}

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun i -> f (i / cols) (i mod cols)) }

let copy m = { m with data = Array.copy m.data }

let get m i j = m.data.((i * m.cols) + j)

let set m i j v = m.data.((i * m.cols) + j) <- v

let fill_zero m = Array.fill m.data 0 (Array.length m.data) 0.0

(* --- batched kernels (gemm family) ----------------------------------------

   Minibatch training multiplies (batch x dim) activation matrices
   against layer weights; these kernels are the hot path of
   [Dqn.train_batch], and a single-state forward is their one-row case.

   The inner loops are C (kernels.c), in 2-lane SIMD: OCaml emits no
   vector instructions. Each kernel computes a register block of
   independent output elements per pass over the inner index k, and a
   vector lane is one more such element. [gemm_nt] packs four weight
   rows into a k-major panel and runs 4 rows x 4 columns when A has four
   rows or more, and 1 row x 8 columns straight from the weights below
   that; [gemm] and [gemm_tn_acc] share one row accumulate of 16, 8, 2
   and 1 columns.

   Determinism: a block spans independent output elements only. Each
   element still starts from the same value (0.0, or C's own entry for
   [gemm_tn_acc]), adds its k-terms one at a time in ascending k, and
   skips the term of an exactly-zero A entry per (i, k) ([gemm],
   [gemm_tn_acc]). Every element is therefore bit-identical whatever the
   blocking, the lane or the remainder path, and an output row depends
   only on its own input row — see DESIGN.md §9. The C file is built
   with -ffp-contract=off and without -ffast-math (lib/nn/dune), so no
   product is fused into an FMA and no sum is reordered.

   Bounds: the C loops index without checks. Every kernel below first
   [check]s each operand's length and that the shapes agree, which keeps
   every index in range. *)

(* Raise unless [m.data] holds exactly [m.rows * m.cols] entries. Checked
   by division, so a product that overflows cannot pass. *)
let check name m =
  let len = Array.length m.data in
  let ok =
    m.rows >= 0 && m.cols >= 0
    && if m.cols = 0 then len = 0 else len mod m.cols = 0 && len / m.cols = m.rows
  in
  if not ok then invalid_arg (name ^ ": data length is not rows * cols")

(* [nt_kernel a b c]: C = A Bᵀ into a zero C. *)
external nt_kernel : t -> t -> t -> unit = "posetrl_nn_gemm_nt" [@@noalloc]

(* [acc_kernel a b c trans]: C row i += A's row i (column i if [trans])
   times B, its exactly-zero entries skipped. *)
external acc_kernel : t -> t -> t -> bool -> unit = "posetrl_nn_acc_rows" [@@noalloc]

(* C = A B — the input gradient ([dpre · w]). *)
let gemm (a : t) (b : t) : t =
  check "Matrix.gemm" a;
  check "Matrix.gemm" b;
  if a.cols <> b.rows then invalid_arg "Matrix.gemm: dimension mismatch";
  let c = create a.rows b.cols in
  (* [create]'s [rows * cols] can overflow when [a.cols] is 0 *)
  check "Matrix.gemm" c;
  acc_kernel a b c false;
  c

(* C = A Bᵀ — the minibatch forward ([x · wᵀ]): both operands are read
   row-wise, so each output element is one contiguous dot product. *)
let gemm_nt (a : t) (b : t) : t =
  check "Matrix.gemm_nt" a;
  check "Matrix.gemm_nt" b;
  if a.cols <> b.cols then invalid_arg "Matrix.gemm_nt: dimension mismatch";
  let c = create a.rows b.rows in
  (* as in [gemm]: with [a.cols] 0, [rows * cols] can overflow *)
  check "Matrix.gemm_nt" c;
  nt_kernel a b c;
  c

(* C <- C + Aᵀ B — the weight-gradient accumulate ([gw += dpreᵀ · x]):
   C row i is A column i against B, summed over A's rows (the batch
   samples) in ascending order. *)
let gemm_tn_acc (c : t) (a : t) (b : t) : unit =
  check "Matrix.gemm_tn_acc" c;
  check "Matrix.gemm_tn_acc" a;
  check "Matrix.gemm_tn_acc" b;
  if a.rows <> b.rows || c.rows <> a.cols || c.cols <> b.cols then
    invalid_arg "Matrix.gemm_tn_acc: dimension mismatch";
  acc_kernel a b c true

(* rows of [m] as freshly allocated arrays / a matrix from row vectors *)
let of_rows (rows : float array array) : t =
  let r = Array.length rows in
  if r = 0 then invalid_arg "Matrix.of_rows: empty";
  let c = Array.length rows.(0) in
  let m = create r c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Matrix.of_rows: ragged rows";
      Array.blit row 0 m.data (i * c) c)
    rows;
  m

let row (m : t) (i : int) : float array = Array.sub m.data (i * m.cols) m.cols

(* The matrix whose row i is [m]'s row [idx.(i)]. *)
let gather (m : t) (idx : int array) : t =
  let c = m.cols in
  let g = create (Array.length idx) c in
  Array.iteri (fun i r -> Array.blit m.data (r * c) g.data (i * c) c) idx;
  g
