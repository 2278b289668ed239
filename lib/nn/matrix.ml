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

   Register blocking: a one-sum-at-a-time loop is one dependent add
   chain, so it runs at the add latency. Each kernel instead computes a
   block of independent output elements per pass over the inner index
   k — 2 rows x 4 columns for [gemm_nt], 8 columns for [gemm] and
   [gemm_tn_acc] — with the block's partial sums in local float refs,
   which the compiler keeps unboxed in registers, so the block's chains
   overlap and each loaded operand feeds several sums. Remainder rows
   and columns take narrower blocks (1x4, 1x1).

   Determinism: a block spans independent output elements only. Each
   element still starts from the same value (0.0, or C's own entry for
   [gemm_tn_acc]), adds its k-terms one at a time in ascending k, and
   skips the term of an exactly-zero A entry per (i, k) ([gemm],
   [gemm_tn_acc]). Every element is therefore bit-identical whatever the
   blocking or the remainder path, and an output row depends only on
   its own input row — see DESIGN.md §9.

   Bounds: the accumulate kernels ([acc_rows], [acc_1x8], [acc_1x1])
   index without bounds checks. [gemm] and [gemm_tn_acc], their only
   callers, first [check] every operand's length and that the shapes
   agree, which keeps every index in range. [gemm_nt] keeps its
   checked loads: unchecked, it ran no faster. *)

(* Raise unless [m.data] holds exactly [m.rows * m.cols] entries. Checked
   by division, so a product that overflows cannot pass. *)
let check name m =
  let len = Array.length m.data in
  let ok =
    m.rows >= 0 && m.cols >= 0
    && if m.cols = 0 then len = 0 else len mod m.cols = 0 && len / m.cols = m.rows
  in
  if not ok then invalid_arg (name ^ ": data length is not rows * cols")

(* [gemm_nt] blocks: dot products of A rows starting at [a0] (and
   [a0 + kd]) with B rows starting at [b0], [b0 + kd], ..., all of
   length [kd]; the sums land at [c0] (and [c0 + n]) onwards. *)

let nt_2x4 ad a0 bd b0 cd c0 kd n =
  let a1 = a0 + kd and b1 = b0 + kd in
  let b2 = b1 + kd in
  let b3 = b2 + kd in
  let s00 = ref 0.0 and s01 = ref 0.0 and s02 = ref 0.0 and s03 = ref 0.0 in
  let s10 = ref 0.0 and s11 = ref 0.0 and s12 = ref 0.0 and s13 = ref 0.0 in
  for k = 0 to kd - 1 do
    let x0 = ad.(a0 + k) and x1 = ad.(a1 + k) in
    let y0 = bd.(b0 + k) and y1 = bd.(b1 + k)
    and y2 = bd.(b2 + k) and y3 = bd.(b3 + k) in
    s00 := !s00 +. (x0 *. y0);
    s01 := !s01 +. (x0 *. y1);
    s02 := !s02 +. (x0 *. y2);
    s03 := !s03 +. (x0 *. y3);
    s10 := !s10 +. (x1 *. y0);
    s11 := !s11 +. (x1 *. y1);
    s12 := !s12 +. (x1 *. y2);
    s13 := !s13 +. (x1 *. y3)
  done;
  cd.(c0) <- !s00;
  cd.(c0 + 1) <- !s01;
  cd.(c0 + 2) <- !s02;
  cd.(c0 + 3) <- !s03;
  cd.(c0 + n) <- !s10;
  cd.(c0 + n + 1) <- !s11;
  cd.(c0 + n + 2) <- !s12;
  cd.(c0 + n + 3) <- !s13

let nt_1x4 ad a0 bd b0 cd c0 kd =
  let b1 = b0 + kd in
  let b2 = b1 + kd in
  let b3 = b2 + kd in
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  for k = 0 to kd - 1 do
    let x = ad.(a0 + k) in
    s0 := !s0 +. (x *. bd.(b0 + k));
    s1 := !s1 +. (x *. bd.(b1 + k));
    s2 := !s2 +. (x *. bd.(b2 + k));
    s3 := !s3 +. (x *. bd.(b3 + k))
  done;
  cd.(c0) <- !s0;
  cd.(c0 + 1) <- !s1;
  cd.(c0 + 2) <- !s2;
  cd.(c0 + 3) <- !s3

let nt_1x1 ad a0 bd b0 cd c0 kd =
  let s = ref 0.0 in
  for k = 0 to kd - 1 do
    s := !s +. (ad.(a0 + k) *. bd.(b0 + k))
  done;
  cd.(c0) <- !s

(* [gemm] / [gemm_tn_acc]: C row i accumulates, for k ascending, A's
   entry (i, k) times B row k, skipping exactly-zero A entries. The row's
   non-zero A entries are gathered once, in ascending k, into [xs] (the
   values) and [ks] (their B row offsets), so the block kernels below run
   branch-free over exactly the terms the skip keeps, in the same order.
   ReLU masks zero about half of a gradient's entries, so the skip is a
   real saving, and a per-term branch would mispredict. *)

let acc_1x8 ks xs nnz bd cd c0 j =
  let s0 = ref (Array.unsafe_get cd c0) and s1 = ref (Array.unsafe_get cd (c0 + 1))
  and s2 = ref (Array.unsafe_get cd (c0 + 2)) and s3 = ref (Array.unsafe_get cd (c0 + 3)) in
  let s4 = ref (Array.unsafe_get cd (c0 + 4)) and s5 = ref (Array.unsafe_get cd (c0 + 5))
  and s6 = ref (Array.unsafe_get cd (c0 + 6)) and s7 = ref (Array.unsafe_get cd (c0 + 7)) in
  for t = 0 to nnz - 1 do
    let x = Array.unsafe_get xs t and bk = Array.unsafe_get ks t + j in
    s0 := !s0 +. (x *. Array.unsafe_get bd bk);
    s1 := !s1 +. (x *. Array.unsafe_get bd (bk + 1));
    s2 := !s2 +. (x *. Array.unsafe_get bd (bk + 2));
    s3 := !s3 +. (x *. Array.unsafe_get bd (bk + 3));
    s4 := !s4 +. (x *. Array.unsafe_get bd (bk + 4));
    s5 := !s5 +. (x *. Array.unsafe_get bd (bk + 5));
    s6 := !s6 +. (x *. Array.unsafe_get bd (bk + 6));
    s7 := !s7 +. (x *. Array.unsafe_get bd (bk + 7))
  done;
  Array.unsafe_set cd c0 !s0;
  Array.unsafe_set cd (c0 + 1) !s1;
  Array.unsafe_set cd (c0 + 2) !s2;
  Array.unsafe_set cd (c0 + 3) !s3;
  Array.unsafe_set cd (c0 + 4) !s4;
  Array.unsafe_set cd (c0 + 5) !s5;
  Array.unsafe_set cd (c0 + 6) !s6;
  Array.unsafe_set cd (c0 + 7) !s7

let acc_1x1 ks xs nnz bd cd c0 j =
  let s = ref (Array.unsafe_get cd c0) in
  for t = 0 to nnz - 1 do
    s := !s +. (Array.unsafe_get xs t *. Array.unsafe_get bd (Array.unsafe_get ks t + j))
  done;
  Array.unsafe_set cd c0 !s

(* Every row of C in an accumulate-form product over [kcount] terms:
   row i's A entries sit at [a0 i + k * astep]. *)
let acc_rows ~a0 ~astep ad bd (c : t) kcount =
  let n = c.cols and cd = c.data in
  let ks = Array.make kcount 0 and xs = Array.make kcount 0.0 in
  for i = 0 to c.rows - 1 do
    let ai = a0 i and ci = i * n in
    let nnz = ref 0 in
    for k = 0 to kcount - 1 do
      let x = Array.unsafe_get ad (ai + (k * astep)) in
      if x <> 0.0 then begin
        Array.unsafe_set ks !nnz (k * n);
        Array.unsafe_set xs !nnz x;
        incr nnz
      end
    done;
    let nnz = !nnz in
    let j = ref 0 in
    while !j + 8 <= n do
      acc_1x8 ks xs nnz bd cd (ci + !j) !j;
      j := !j + 8
    done;
    for jr = !j to n - 1 do
      acc_1x1 ks xs nnz bd cd (ci + jr) jr
    done
  done

(* C = A B — the input gradient ([dpre · w]). *)
let gemm (a : t) (b : t) : t =
  check "Matrix.gemm" a;
  check "Matrix.gemm" b;
  if a.cols <> b.rows then invalid_arg "Matrix.gemm: dimension mismatch";
  let c = create a.rows b.cols in
  (* [create]'s [rows * cols] can overflow when [a.cols] is 0 *)
  check "Matrix.gemm" c;
  let kd = a.cols in
  acc_rows ~a0:(fun i -> i * kd) ~astep:1 a.data b.data c kd;
  c

(* C = A Bᵀ — the minibatch forward ([x · wᵀ]): both operands are read
   row-wise, so each output element is one contiguous dot product. *)
let gemm_nt (a : t) (b : t) : t =
  if a.cols <> b.cols then invalid_arg "Matrix.gemm_nt: dimension mismatch";
  let c = create a.rows b.rows in
  let kd = a.cols and n = b.rows and rows = a.rows in
  let ad = a.data and bd = b.data and cd = c.data in
  let i = ref 0 in
  while !i < rows do
    let a0 = !i * kd and c0 = !i * n and two = !i + 1 < rows in
    let j = ref 0 in
    while !j + 4 <= n do
      if two then nt_2x4 ad a0 bd (!j * kd) cd (c0 + !j) kd n
      else nt_1x4 ad a0 bd (!j * kd) cd (c0 + !j) kd;
      j := !j + 4
    done;
    for jr = !j to n - 1 do
      nt_1x1 ad a0 bd (jr * kd) cd (c0 + jr) kd;
      if two then nt_1x1 ad (a0 + kd) bd (jr * kd) cd (c0 + n + jr) kd
    done;
    i := !i + if two then 2 else 1
  done;
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
  acc_rows ~a0:Fun.id ~astep:a.cols a.data b.data c a.rows

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
