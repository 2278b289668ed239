/* The learner's inner loops in 2-lane SIMD: the batched forward
   (Matrix.gemm_nt), the row accumulate behind the input and weight
   gradients (Matrix.gemm, Matrix.gemm_tn_acc) and Adam's update
   (Optim.step).

   Same bits as the scalar loops they replace: a lane is one more
   independent output element of a register block, so every element
   still starts from the same value, adds its terms one at a time in
   ascending k, and rounds each product and each sum to double
   (DESIGN.md §9). That holds only under the flags lib/nn/dune fixes:
   -ffp-contract=off, so no a*b+c becomes an FMA; no -ffast-math, so
   nothing is reassociated; no -march, so the vectors are the SSE2 or
   NEON doubles every x86-64 and AArch64 has.

   The OCaml wrappers check every operand's length and shape first;
   these loops index without checks. All scratch lives on the stack, as
   eval's pool workers run forwards concurrently. */

#define CAML_NAME_SPACE
#include <string.h>
#include <math.h>
#include <caml/mlvalues.h>

#ifndef FLAT_FLOAT_ARRAY
#error "lib/nn/kernels.c reads a float array as a flat array of doubles"
#endif

typedef double v2d __attribute__((vector_size(16)));

static inline v2d ld(const double *p)
{
  v2d x;
  memcpy(&x, p, sizeof x);
  return x;
}

static inline void st(double *p, v2d x) { memcpy(p, &x, sizeof x); }

static inline v2d dup(double x) { return (v2d){ x, x }; }

/* A Matrix.t is the block { rows; cols; data }. */
#define ROWS(m) Long_val(Field(m, 0))
#define COLS(m) Long_val(Field(m, 1))
#define DATA(m) ((double *)Field(m, 2))

/* Long sums run in chunks of at most KC k-steps (gemm_nt's panel) or KC
   gathered terms (the accumulate), which bounds the stack scratch. A
   sum carried across chunks goes through C unchanged: a double stored
   and reloaded keeps its bits. */
#define KC 512

static inline long min_l(long x, long y) { return x < y ? x : y; }

/* --- gemm_nt: C = A Bᵀ ---------------------------------------------------

   A is rows x kd, B is n x kd (the layer's weights), C is rows x n and
   zero on entry. Four rows or more: four B rows at a time are packed
   k-major into [panel], so one 2-lane load gives two columns' B
   entries, and a block of 4 rows x 4 columns (eight vector sums) runs
   over it. Fewer rows (a single state: the acting forward, eval and
   serve) would spend more on packing 4 x kd entries than the one row
   saves, so each row runs a block of 8 columns straight from B's rows.
   Columns past n in a last, partial block repeat column n - 1; their
   sums are never stored. */

/* [r] rows (4 or 1) of A from [a] (row stride kd) against the panel's
   [kc] k-steps; the sums at [c] (row stride n) start from C's entries
   and [w] <= 4 of each row's columns are real. */
static inline __attribute__((always_inline)) void
nt_block(const int r, const double *a, long kd, const double *panel, long kc,
         double *c, long n, long w)
{
  v2d s[4][2];
#pragma GCC unroll 4
  for (int i = 0; i < r; i++) {
    double t[4] = { 0.0, 0.0, 0.0, 0.0 };
    for (long q = 0; q < w; q++) t[q] = c[i * n + q];
    s[i][0] = ld(t);
    s[i][1] = ld(t + 2);
  }
  for (long k = 0; k < kc; k++) {
    v2d p0 = ld(panel + 4 * k), p1 = ld(panel + 4 * k + 2);
#pragma GCC unroll 4
    for (int i = 0; i < r; i++) {
      v2d x = dup(a[i * kd + k]);
      s[i][0] = s[i][0] + x * p0;
      s[i][1] = s[i][1] + x * p1;
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < r; i++) {
    double t[4];
    st(t, s[i][0]);
    st(t + 2, s[i][1]);
    for (long q = 0; q < w; q++) c[i * n + q] = t[q];
  }
}

static void nt_packed(const double *a, const double *b, double *c, long rows,
                      long kd, long n)
{
  double panel[4 * KC];
  for (long j = 0; j < n; j += 4) {
    const double *bj[4];
    for (long q = 0; q < 4; q++) bj[q] = b + min_l(j + q, n - 1) * kd;
    long w = min_l(4, n - j);
    for (long k0 = 0; k0 < kd; k0 += KC) {
      long kc = min_l(KC, kd - k0);
      for (long k = 0; k < kc; k++)
        for (long q = 0; q < 4; q++) panel[4 * k + q] = bj[q][k0 + k];
      long i = 0;
      for (; i + 4 <= rows; i += 4)
        nt_block(4, a + i * kd + k0, kd, panel, kc, c + i * n + j, n, w);
      for (; i < rows; i++)
        nt_block(1, a + i * kd + k0, kd, panel, kc, c + i * n + j, n, w);
    }
  }
}

static void nt_unpacked(const double *a, const double *b, double *c, long rows,
                        long kd, long n)
{
  for (long i = 0; i < rows; i++) {
    const double *ai = a + i * kd;
    for (long j = 0; j < n; j += 8) {
      const double *bj[8];
      for (long q = 0; q < 8; q++) bj[q] = b + min_l(j + q, n - 1) * kd;
      v2d s0 = dup(0.0), s1 = dup(0.0), s2 = dup(0.0), s3 = dup(0.0);
      for (long k = 0; k < kd; k++) {
        v2d x = dup(ai[k]);
        s0 = s0 + x * (v2d){ bj[0][k], bj[1][k] };
        s1 = s1 + x * (v2d){ bj[2][k], bj[3][k] };
        s2 = s2 + x * (v2d){ bj[4][k], bj[5][k] };
        s3 = s3 + x * (v2d){ bj[6][k], bj[7][k] };
      }
      double t[8];
      st(t, s0);
      st(t + 2, s1);
      st(t + 4, s2);
      st(t + 6, s3);
      memcpy(c + i * n + j, t, min_l(8, n - j) * sizeof(double));
    }
  }
}

value posetrl_nn_gemm_nt(value va, value vb, value vc)
{
  long rows = ROWS(va), kd = COLS(va), n = ROWS(vb);
  if (rows >= 4)
    nt_packed(DATA(va), DATA(vb), DATA(vc), rows, kd, n);
  else
    nt_unpacked(DATA(va), DATA(vb), DATA(vc), rows, kd, n);
  return Val_unit;
}

/* --- the row accumulate: C row i += sum over k of A(i,k) B row k ----------

   For every row i of C (rows x n): k ascending, skipping exactly-zero
   A(i,k) (either sign). A(i,k) sits at a[i * is + k * ks], so one loop
   serves gemm (A row-major) and gemm_tn_acc (A read transposed). The
   row's non-zero A entries are gathered once, in ascending k, with
   their B rows, so the column blocks run branch-free over exactly the
   terms the skip keeps. ReLU masks zero about half of a gradient's
   entries, and the loss gradient's last layer has one per row. A block
   is 16 columns (eight vector sums), then 8, then 2, then 1. */

/* [nv] vector sums (2 nv columns) of row C from column [j], over the
   [nnz] gathered terms: value xs[t] times B row bs[t]. */
static inline __attribute__((always_inline)) void
acc_block(const int nv, const double *xs, const double *const *bs, long nnz,
          double *c, long j)
{
  v2d s[8];
#pragma GCC unroll 8
  for (int h = 0; h < nv; h++) s[h] = ld(c + j + 2 * h);
  for (long t = 0; t < nnz; t++) {
    v2d x = dup(xs[t]);
    const double *bk = bs[t] + j;
#pragma GCC unroll 8
    for (int h = 0; h < nv; h++) s[h] = s[h] + x * ld(bk + 2 * h);
  }
#pragma GCC unroll 8
  for (int h = 0; h < nv; h++) st(c + j + 2 * h, s[h]);
}

static void acc_rows(const double *a, long is, long ks, long kcount,
                     const double *b, double *c, long rows, long n)
{
  double xs[KC];
  const double *bs[KC];
  for (long i = 0; i < rows; i++) {
    double *ci = c + i * n;
    for (long k = 0; k < kcount;) {
      long nnz = 0;
      for (; k < kcount && nnz < KC; k++) {
        double x = a[i * is + k * ks];
        if (x != 0.0) {
          xs[nnz] = x;
          bs[nnz] = b + k * n;
          nnz++;
        }
      }
      long j = 0;
      for (; j + 16 <= n; j += 16) acc_block(8, xs, bs, nnz, ci, j);
      if (j + 8 <= n) {
        acc_block(4, xs, bs, nnz, ci, j);
        j += 8;
      }
      for (; j + 2 <= n; j += 2) acc_block(1, xs, bs, nnz, ci, j);
      if (j < n) {
        double s = ci[j];
        for (long t = 0; t < nnz; t++) s = s + xs[t] * bs[t][j];
        ci[j] = s;
      }
    }
  }
}

/* gemm (trans false): A is rows x kcount, row-major. gemm_tn_acc (trans
   true): A is kcount x rows, and row i of C reads A's column i. */
value posetrl_nn_acc_rows(value va, value vb, value vc, value vtrans)
{
  long rows = ROWS(vc), n = COLS(vc);
  if (Bool_val(vtrans))
    acc_rows(DATA(va), 1, COLS(va), ROWS(va), DATA(vb), DATA(vc), rows, n);
  else
    acc_rows(DATA(va), COLS(va), 1, COLS(va), DATA(vb), DATA(vc), rows, n);
  return Val_unit;
}

/* --- Adam ----------------------------------------------------------------

   One parameter array [p] with its gradient [g] and moments [m], [v],
   all of one length; [co] holds lr, beta1, 1 - beta1, beta2, 1 - beta2,
   the two bias corrections, eps and the clip scale. Each gradient is
   set to 0.0 right after it is read, which is the next batch's zeroed
   accumulator. */
value posetrl_nn_adam(value vp, value vg, value vm, value vv, value vco)
{
  double *p = (double *)vp, *g = (double *)vg, *m = (double *)vm,
         *v = (double *)vv;
  const double *co = (const double *)vco;
  const double lr = co[0], b1 = co[1], b1c = co[2], b2 = co[3], b2c = co[4],
               bc1 = co[5], bc2 = co[6], eps = co[7], clip = co[8];
  long len = Wosize_val(vp) / Double_wosize, i = 0;
  for (; i + 2 <= len; i += 2) {
    v2d gi = ld(g + i) * dup(clip);
    st(g + i, dup(0.0));
    v2d mi = dup(b1) * ld(m + i) + dup(b1c) * gi;
    v2d vi = dup(b2) * ld(v + i) + dup(b2c) * gi * gi;
    st(m + i, mi);
    st(v + i, vi);
    v2d mhat = mi / dup(bc1), vhat = vi / dup(bc2);
    v2d root = { sqrt(vhat[0]), sqrt(vhat[1]) };
    st(p + i, ld(p + i) - dup(lr) * mhat / (root + dup(eps)));
  }
  for (; i < len; i++) {
    double gi = g[i] * clip;
    g[i] = 0.0;
    m[i] = b1 * m[i] + b1c * gi;
    v[i] = b2 * v[i] + b2c * gi * gi;
    double mhat = m[i] / bc1, vhat = v[i] / bc2;
    p[i] = p[i] - lr * mhat / (sqrt(vhat) + eps);
  }
  return Val_unit;
}
