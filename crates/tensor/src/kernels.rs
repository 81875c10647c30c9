//! Raw numeric kernels shared by the forward and backward passes.
//!
//! Everything here operates on plain slices; the tape layer handles shapes,
//! broadcasting decisions and gradient bookkeeping.

use crate::cpu::{self, DispatchLevel};
use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Work (in f32 multiply-adds) below which kernels stay single-threaded.
/// Even with the persistent pool a parallel region costs queue traffic and
/// a latch; this keeps small ops cheap while letting attention-sized
/// matmuls use all cores.
const PAR_THRESHOLD: usize = 1 << 17;

/// Validated geometry of one (optionally batched) untransposed matmul.
struct MatmulPlan {
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    /// Per-batch element strides; `0` for an operand shared across batches.
    a_stride: usize,
    b_stride: usize,
    out: Shape,
}

fn matmul_plan(a: Shape, b: Shape) -> MatmulPlan {
    // `(batch, rows, cols)` of one operand.
    let dims = |shape: Shape| {
        let r = shape.rank();
        assert!(r >= 2, "matmul operand must have rank >= 2, got {shape}");
        let (rows, cols) = (shape[r - 2], shape[r - 1]);
        (shape.numel() / (rows * cols), rows, cols)
    };
    let ((a_batch, m, k), (b_batch, b_rows, n)) = (dims(a), dims(b));
    assert_eq!(k, b_rows, "matmul inner dims mismatch: {a} x {b}");
    let batch = match (a_batch, b_batch) {
        (x, y) if x == y => x,
        (x, 1) => x,
        (1, y) => y,
        (x, y) => panic!("matmul batch mismatch: {x} vs {y}"),
    };
    MatmulPlan {
        batch,
        m,
        k,
        n,
        a_stride: if a_batch == 1 { 0 } else { m * k },
        b_stride: if b_batch == 1 { 0 } else { k * n },
        out: if batch == 1 && a.rank() == 2 && b.rank() == 2 {
            Shape::d2(m, n)
        } else {
            Shape::d3(batch, m, n)
        },
    }
}

/// General (optionally batched / transposed) matrix multiply:
/// `out = a_eff · b_eff` where `x_eff` is `x` with its last two dims swapped
/// when the corresponding flag is set.
///
/// Supported batch combinations (Ba = batch of a, Bb = batch of b):
/// * `Ba == Bb` — per-batch multiply;
/// * `Bb == 1`  — shared right operand (e.g. weights);
/// * `Ba == 1`  — shared left operand.
///
/// # Panics
/// Panics on inner-dimension or batch mismatch.
pub fn matmul(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Tensor {
    matmul_with(a, b, ta, tb, None, Tensor::zeros)
}

/// [`matmul`] with an optional rank-1 `bias` over the last dimension added
/// in the same output pass, into a tensor from `alloc` — `Tensor::zeros`
/// on the tape, the scratch arena when serving. Like every op taking an
/// `alloc`, it overwrites the whole output, so a recycled buffer's stale
/// contents never leak. The one matmul of both executors, forward and
/// backward: every product runs on [`gemm`].
pub fn matmul_with(
    a: &Tensor,
    b: &Tensor,
    ta: bool,
    tb: bool,
    bias: Option<&[f32]>,
    alloc: impl FnOnce(Shape) -> Tensor,
) -> Tensor {
    matmul_at(cpu::level(), a, b, ta, tb, bias, alloc)
}

/// [`matmul_with`] at an explicit dispatch level instead of the
/// process-wide one (an [`InferCtx`](crate::InferCtx) carries its own).
///
/// A flagged operand is transposed once, whole, into a plain tensor (a
/// shared batch-1 operand once, not per batch element), and the product
/// runs untransposed — so a transposed product has the bits of the same
/// product over materialised operands.
pub fn matmul_at(
    level: DispatchLevel,
    a: &Tensor,
    b: &Tensor,
    ta: bool,
    tb: bool,
    bias: Option<&[f32]>,
    alloc: impl FnOnce(Shape) -> Tensor,
) -> Tensor {
    if ta || tb {
        let at = ta.then(|| a.transpose_last2());
        let bt = tb.then(|| b.transpose_last2());
        let (a, b) = (at.as_ref().unwrap_or(a), bt.as_ref().unwrap_or(b));
        return matmul_at(level, a, b, false, false, bias, alloc);
    }
    let p = matmul_plan(a.shape(), b.shape());
    let mut out = alloc(p.out);
    let (ad, bd) = (a.data(), b.data());
    // A shared right operand (weights) collapses the batch into one
    // (batch·m, k) x (k, n) product.
    let (m, k, n) = (if p.b_stride == 0 { p.batch * p.m } else { p.m }, p.k, p.n);
    let rows = p.batch * p.m;
    // Output rows `row0..` of the stacked product, one `gemm` per batch
    // element the chunk touches.
    let run = |row0: usize, chunk: &mut [f32]| {
        let end = row0 + chunk.len() / n;
        let mut r = row0;
        while r < end {
            let (bi, i) = (r / m, r % m);
            let take = (m - i).min(end - r);
            let a_blk = &ad[bi * p.a_stride + i * k..];
            let c_blk = &mut chunk[(r - row0) * n..];
            gemm(
                level,
                a_blk,
                k,
                &bd[bi * p.b_stride..],
                n,
                c_blk,
                n,
                take,
                k,
                n,
                bias,
            );
            r += take;
        }
    };
    if pool::threads() <= 1 || rows * k * n < PAR_THRESHOLD {
        run(0, out.data_mut());
    } else {
        // Tile-aligned chunks keep every lane on full-height tiles.
        let rows_per = pool::rows_per_lane(rows).next_multiple_of(TILE_ROWS);
        pool::par_chunks_mut(out.data_mut(), rows_per * n, |c, chunk| {
            run(c * rows_per, chunk)
        });
    }
    out
}

/// Rows of one register-resident accumulator tile.
const TILE_ROWS: usize = 4;

/// `C = A·B (+ bias)` for row-major operands with leading dimensions:
/// `a` is `m × k` (row stride `lda`), `b` is `k × n` (`ldb`), `c` is
/// `m × n` (`ldc`), `bias` one value per output column. The one f32
/// multiply kernel of the workspace — under every `linear`, both
/// attention products and every gradient product, training and serving.
///
/// The output is walked in tiles of 4 rows by 16 (then 8)
/// columns whose accumulators stay in registers across the whole `k`
/// loop; a ragged right edge is a tile with its spare lanes fed zeros,
/// leftover rows are one-row tiles. Whatever the tile, **each output
/// element is the sum `((0 + a₀b₀) + a₁b₁) + …` in `kk` order, one
/// rounded multiply and one rounded add per term, then `+ bias`** — so
/// the result does not depend on the tile an element falls in, the rows
/// it is batched with, or `level` (which only picks how wide the
/// registers are; no level fuses the multiply-add).
///
/// # Panics
/// Panics when a slice is too short for its `(rows, ld, cols)` or a
/// leading dimension is smaller than the row it strides.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    level: DispatchLevel,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(lda >= k && ldb >= n && ldc >= n, "gemm leading dimension");
    assert!(a.len() >= (m - 1) * lda + k, "gemm: a too short");
    assert!(k == 0 || b.len() >= (k - 1) * ldb + n, "gemm: b too short");
    assert!(c.len() >= (m - 1) * ldc + n, "gemm: c too short");
    assert!(bias.is_none_or(|bias| bias.len() == n), "gemm: bias width");
    if level.runs_avx2() {
        // SAFETY: `runs_avx2` returned true, which includes
        // `is_x86_feature_detected!("avx2")` on the running CPU.
        unsafe { gemm_avx2(a, lda, b, ldb, c, ldc, m, k, n, bias) }
    } else {
        gemm_body(a, lda, b, ldb, c, ldc, m, k, n, bias)
    }
}

/// [`gemm_body`] compiled with 256-bit registers available (off x86-64,
/// where [`DispatchLevel::runs_avx2`] is never true, just the body).
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_avx2(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
) {
    gemm_body(a, lda, b, ldb, c, ldc, m, k, n, bias);
}

/// The tile walk of [`gemm`], written once over lane arrays and compiled
/// per dispatch level.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_body(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
) {
    let mut i = 0;
    while i < m {
        let full = m - i >= TILE_ROWS;
        let (a_rows, c_rows) = (&a[i * lda..], &mut c[i * ldc..]);
        let mut j = 0;
        while j < n {
            let wide = n - j >= 16;
            let cols = if wide { 16 } else { (n - j).min(8) };
            match (full, wide) {
                (true, true) => {
                    gemm_tile::<TILE_ROWS, 16>(a_rows, lda, b, ldb, c_rows, ldc, k, j, cols, bias)
                }
                (true, false) => {
                    gemm_tile::<TILE_ROWS, 8>(a_rows, lda, b, ldb, c_rows, ldc, k, j, cols, bias)
                }
                (false, true) => {
                    gemm_tile::<1, 16>(a_rows, lda, b, ldb, c_rows, ldc, k, j, cols, bias)
                }
                (false, false) => {
                    gemm_tile::<1, 8>(a_rows, lda, b, ldb, c_rows, ldc, k, j, cols, bias)
                }
            }
            j += cols;
        }
        i += if full { TILE_ROWS } else { 1 };
    }
}

/// One `kk` step of a tile: `acc[r] += a[r][kk] · bv`, lane by lane, the
/// multiply and the add rounded separately.
#[inline(always)]
fn tile_step<const R: usize, const W: usize>(
    acc: &mut [[f32; W]; R],
    a_rows: &[&[f32]; R],
    kk: usize,
    bv: &[f32; W],
) {
    for r in 0..R {
        let av = a_rows[r][kk];
        for w in 0..W {
            acc[r][w] += av * bv[w];
        }
    }
}

/// One `R × W` accumulator tile at column `j`: `c[r][j..j + cols] =
/// Σ_kk a[r][kk]·b[kk][j..j + cols] (+ bias)` for `cols ≤ W` (spare lanes
/// multiply zeros and are dropped).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tile<const R: usize, const W: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    k: usize,
    j: usize,
    cols: usize,
    bias: Option<&[f32]>,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * lda..r * lda + k]);
    let mut acc = [[0.0f32; W]; R];
    // Two loops, so the full-width one reads `b` in place.
    if cols == W {
        for kk in 0..k {
            let b_row = &b[kk * ldb + j..kk * ldb + j + W];
            tile_step(&mut acc, &a_rows, kk, b_row.try_into().expect("W lanes"));
        }
    } else {
        for kk in 0..k {
            let mut bv = [0.0f32; W];
            bv[..cols].copy_from_slice(&b[kk * ldb + j..kk * ldb + j + cols]);
            tile_step(&mut acc, &a_rows, kk, &bv);
        }
    }
    for r in 0..R {
        let out = &mut c[r * ldc + j..r * ldc + j + cols];
        match bias {
            Some(bias) => {
                for ((o, &v), &bj) in out.iter_mut().zip(&acc[r]).zip(&bias[j..]) {
                    *o = v + bj;
                }
            }
            None => out.copy_from_slice(&acc[r][..cols]),
        }
    }
}

/// `x[r, :] += bias` for every `bias.len()`-wide row of `x` (a bias over
/// the last dimension, or a flattened `(L, D)` table over every batch).
pub fn add_bias_rows(x: &mut [f32], bias: &[f32]) {
    for row in x.chunks_mut(bias.len()) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// `dst ← srcᵀ` for a row-major `rows × cols` `src`: `dst` is `cols ×
/// rows`, each of its rows one strided gather of a `src` column, written
/// contiguously.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for c in 0..cols {
        for (r, o) in dst[c * rows..(c + 1) * rows].iter_mut().enumerate() {
            *o = src[r * cols + c];
        }
    }
}

/// Accumulating variant: `acc += a_eff · b_eff` where `acc` already has the
/// right shape. Used by backward passes that sum gradient contributions over
/// the batch dimension (e.g. shared weight matrices).
pub fn matmul_acc_into(acc: &mut Tensor, a: &Tensor, b: &Tensor, ta: bool, tb: bool) {
    let prod = matmul(a, b, ta, tb);
    if prod.shape() == acc.shape() {
        acc.add_assign_scaled(&prod, 1.0);
        return;
    }
    // Batched product reduced into a rank-2 accumulator: sum over batch.
    let ps = prod.shape();
    assert!(
        ps.rank() == 3 && Shape::d2(ps[1], ps[2]) == acc.shape(),
        "matmul_acc_into: cannot reduce {ps} into {}",
        acc.shape()
    );
    let mn = ps[1] * ps[2];
    let accd = acc.data_mut();
    for bi in 0..ps[0] {
        let src = &prod.data()[bi * mn..(bi + 1) * mn];
        for (x, &y) in accd.iter_mut().zip(src) {
            *x += y;
        }
    }
}

/// Plain dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // Unrolled by 4 to help auto-vectorisation.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        total += a[i] * b[i];
    }
    total
}

/// Numerically-stable softmax over the last dimension, written into `out`;
/// rows are processed in parallel on the shared pool when the input is
/// attention-sized.
pub fn softmax_rows(x: &[f32], row_len: usize, out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    out.copy_from_slice(x);
    softmax_rows_at(cpu::level(), out, row_len);
}

/// [`softmax_rows`] over `x` itself, at `level`.
pub(crate) fn softmax_rows_at(level: DispatchLevel, x: &mut [f32], row_len: usize) {
    let n_rows = x.len() / row_len.max(1);
    // ~4 flops per element (max, sub, exp≈amortised, scale).
    if pool::threads() <= 1 || n_rows <= 1 || x.len() * 4 < PAR_THRESHOLD {
        softmax_rows_inplace(level, x, row_len, row_len, 1.0);
        return;
    }
    let rows_per = pool::rows_per_lane(n_rows);
    pool::par_chunks_mut(x, rows_per * row_len, |_, chunk| {
        softmax_rows_inplace(level, chunk, row_len, row_len, 1.0);
    });
}

/// The one softmax implementation: `row[..len] ← softmax(scale · row[..len])`
/// for every `ld`-strided row of `x`, in place (entries past `len` are
/// left alone). Shared by the tape's [`softmax_rows`] (`scale = 1`) and
/// the attention of [`crate::infer`], so the two executors can never
/// drift numerically; a row whose maximum is `-∞` (everything masked)
/// becomes uniform instead of NaN.
pub(crate) fn softmax_rows_inplace(
    level: DispatchLevel,
    x: &mut [f32],
    ld: usize,
    len: usize,
    scale: f32,
) {
    debug_assert!(len <= ld);
    if level.runs_avx2() {
        // SAFETY: `runs_avx2` returned true, which includes
        // `is_x86_feature_detected!("avx2")` on the running CPU.
        unsafe { softmax_rows_avx2(x, ld, len, scale) }
    } else {
        softmax_rows_body(x, ld, len, scale)
    }
}

/// [`softmax_rows_body`] compiled with 256-bit registers available (see
/// [`gemm_avx2`]).
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn softmax_rows_avx2(x: &mut [f32], ld: usize, len: usize, scale: f32) {
    softmax_rows_body(x, ld, len, scale);
}

/// Lanes of the softmax body: one 256-bit register of f32 (two 128-bit
/// ones at the baseline level — same lanes, same sums).
const LANES: usize = 8;

/// Max-shift, exp, sum and normalise over [`LANES`]-wide lane arrays,
/// written once and compiled per dispatch level. Nothing here depends on
/// the register width: the reductions keep one partial per lane and fold
/// them in a fixed order, so every level returns the same bits.
#[inline(always)]
fn softmax_rows_body(x: &mut [f32], ld: usize, len: usize, scale: f32) {
    // `a > b` selects instead of `f32::max`: one `maxps`, no NaN fix-up.
    let max2 = |a: f32, b: f32| if a > b { a } else { b };
    for row in x.chunks_mut(ld.max(1)) {
        let row = &mut row[..len];
        let mut max = [f32::NEG_INFINITY; LANES];
        let mut chunks = row.chunks_exact_mut(LANES);
        for chunk in chunks.by_ref() {
            for (m, v) in max.iter_mut().zip(chunk) {
                *v *= scale;
                *m = max2(*v, *m);
            }
        }
        for (m, v) in max.iter_mut().zip(chunks.into_remainder()) {
            *v *= scale;
            *m = max2(*v, *m);
        }
        let max = fold_lanes(max, max2);
        if !max.is_finite() {
            // Entire row masked out: define softmax as uniform to avoid NaNs.
            row.fill(1.0 / len as f32);
            continue;
        }
        let mut sum = [0.0f32; LANES];
        let mut chunks = row.chunks_exact_mut(LANES);
        for chunk in chunks.by_ref() {
            for (s, v) in sum.iter_mut().zip(chunk) {
                *v = exp_fast(*v - max);
                *s += *v;
            }
        }
        for (s, v) in sum.iter_mut().zip(chunks.into_remainder()) {
            *v = exp_fast(*v - max);
            *s += *v;
        }
        let inv = 1.0 / fold_lanes(sum, |a, b| a + b);
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Folds the lane partials pairwise, `((0,4),(2,6)) , ((1,5),(3,7))`.
#[inline(always)]
fn fold_lanes(v: [f32; LANES], f: impl Fn(f32, f32) -> f32) -> f32 {
    let h4 = [f(v[0], v[4]), f(v[1], v[5]), f(v[2], v[6]), f(v[3], v[7])];
    f(f(h4[0], h4[2]), f(h4[1], h4[3]))
}

/// `Σ f(x)` with one partial per lane, folded as [`fold_lanes`] does — a
/// row-wide reduction without one serial chain of dependent adds.
#[inline(always)]
fn lane_sum(xs: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let mut sum = [0.0f32; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for (s, &v) in sum.iter_mut().zip(chunk) {
            *s += f(v);
        }
    }
    for (s, &v) in sum.iter_mut().zip(chunks.remainder()) {
        *s += f(v);
    }
    fold_lanes(sum, |a, b| a + b)
}

/// Layer normalisation of every `g.len()`-wide row of `x`, in place:
/// `(x − μ)·rstd·g + b`. `stat(row, μ, rstd)` sees each row's statistics
/// (the tape keeps them for the backward pass; serving ignores them).
pub fn layer_norm_rows(
    x: &mut [f32],
    g: &[f32],
    b: &[f32],
    eps: f32,
    mut stat: impl FnMut(usize, f32, f32),
) {
    let d = g.len();
    for (i, row) in x.chunks_mut(d).enumerate() {
        let mu = lane_sum(row, |v| v) / d as f32;
        let var = lane_sum(row, |v| (v - mu) * (v - mu)) / d as f32;
        let rs = 1.0 / (var + eps).sqrt();
        stat(i, mu, rs);
        for (j, o) in row.iter_mut().enumerate() {
            *o = (*o - mu) * rs * g[j] + b[j];
        }
    }
}

/// Scales every `d`-wide row of `x` to unit L2 norm, in place;
/// `inv_norm(row, 1/‖row‖)` sees each scale factor.
pub fn l2_normalize_rows(x: &mut [f32], d: usize, mut inv_norm: impl FnMut(usize, f32)) {
    for (i, row) in x.chunks_mut(d).enumerate() {
        let n = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-12);
        let inv = 1.0 / n;
        inv_norm(i, inv);
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Concatenates `parts` (equal leading dimensions) along the last one,
/// into a tensor from `alloc`.
pub fn concat(parts: &[&Tensor], alloc: impl FnOnce(Shape) -> Tensor) -> Tensor {
    let lead = parts.first().expect("concat of zero parts").shape();
    let total: usize = parts.iter().map(|p| p.shape().last()).sum();
    let mut dims = lead.dims().to_vec();
    dims[lead.rank() - 1] = total;
    let mut out = alloc(Shape::from_slice(&dims));
    let mut off = 0;
    for p in parts {
        assert_eq!(
            p.shape().rows(),
            lead.rows(),
            "concat leading dims mismatch"
        );
        let w = p.shape().last();
        for (orow, prow) in out.data_mut().chunks_mut(total).zip(p.data().chunks(w)) {
            orow[off..off + w].copy_from_slice(prow);
        }
        off += w;
    }
    out
}

/// Masked mean over time: averages the first `lens[b]` positions of each
/// sequence of a `(B, L, D)` tensor into `(B, D)` from `alloc`.
pub fn mean_pool_masked(x: &Tensor, lens: &[usize], alloc: impl FnOnce(Shape) -> Tensor) -> Tensor {
    let xs = x.shape();
    assert_eq!(xs.rank(), 3, "mean_pool_masked expects rank 3");
    let (b, l, d) = (xs[0], xs[1], xs[2]);
    assert_eq!(lens.len(), b, "lens length must equal batch");
    let mut out = alloc(Shape::d2(b, d));
    let rows = out.data_mut().chunks_mut(d);
    for ((seq, orow), &len) in x.data().chunks(l * d).zip(rows).zip(lens) {
        assert!(len >= 1 && len <= l, "invalid length {len} for L={l}");
        let inv = 1.0 / len as f32;
        orow.fill(0.0);
        for src in seq.chunks(d).take(len) {
            for (o, &v) in orow.iter_mut().zip(src) {
                *o += v * inv;
            }
        }
    }
    out
}

/// The logistic sigmoid `1 / (1 + e^−v)`.
#[inline]
pub fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Rows `ids` of a `(V, D)` `table`, written one after another into `out`.
///
/// # Panics
/// Panics on an id outside the table.
pub fn gather_rows(table: &Tensor, ids: &[u32], out: &mut [f32]) {
    let ts = table.shape();
    assert_eq!(ts.rank(), 2, "embedding table must be rank 2");
    let d = ts[1];
    for (&id, row) in ids.iter().zip(out.chunks_mut(d)) {
        assert!(
            (id as usize) < ts[0],
            "embedding id {id} out of range {}",
            ts[0]
        );
        row.copy_from_slice(table.row(id as usize));
    }
}

/// The `(B, D)` slice at time step `t` of a `(B, L, D)` tensor, into a
/// tensor from `alloc`.
pub fn select_time(x: &Tensor, t: usize, alloc: impl FnOnce(Shape) -> Tensor) -> Tensor {
    let xs = x.shape();
    assert_eq!(xs.rank(), 3, "select_time expects rank 3");
    let (l, d) = (xs[1], xs[2]);
    assert!(t < l, "time index {t} out of range {l}");
    let mut out = alloc(Shape::d2(xs[0], d));
    for (seq, row) in x.data().chunks(l * d).zip(out.data_mut().chunks_mut(d)) {
        row.copy_from_slice(&seq[t * d..(t + 1) * d]);
    }
    out
}

/// `(B, H, C, OH, OW)` of an [`unfold`] of a `(B, H·width, C)` input.
fn unfold_dims(xs: Shape, width: usize, k: usize, stride: usize, pad: usize) -> [usize; 5] {
    assert!(
        xs.rank() == 3 && width > 0 && xs[1].is_multiple_of(width),
        "unfold expects (B, H·{width}, C), got {xs}"
    );
    let h = xs[1] / width;
    assert!(
        stride > 0 && h.min(width) + 2 * pad >= k,
        "a {k}-wide window does not fit {h}x{width} padded by {pad}"
    );
    let out = |n: usize| (n + 2 * pad - k) / stride + 1;
    [xs[0], h, xs[2], out(h), out(width)]
}

/// Walks the `C`-wide slots of an [`unfold`]'s output in order:
/// `f(slot, pixel)` with the flat index of the input pixel the slot copies,
/// `None` where the window overhangs into the padding.
pub(crate) fn for_each_tap(
    xs: Shape,
    width: usize,
    k: usize,
    stride: usize,
    pad: usize,
    mut f: impl FnMut(usize, Option<usize>),
) {
    let [b, h, _, oh, ow] = unfold_dims(xs, width, k, stride, pad);
    for slot in 0..b * oh * ow * k * k {
        let (pixel, tap) = (slot / (k * k), slot % (k * k));
        let (bi, o) = (pixel / (oh * ow), pixel % (oh * ow));
        let y = (o / ow * stride + tap / k)
            .checked_sub(pad)
            .filter(|&y| y < h);
        let x = (o % ow * stride + tap % k)
            .checked_sub(pad)
            .filter(|&x| x < width);
        f(slot, y.zip(x).map(|(y, x)| (bi * h + y) * width + x));
    }
}

/// Window unfold (im2col) of a channels-last image batch, into a tensor
/// from `alloc`. `x` is `(B, H·W, C)` with `W = width`: each element's
/// rows are its `H × W` pixels, row-major. The result is `(B, OH·OW,
/// k·k·C)`: one row per position of a `k × k` window sliding by `stride`
/// over the image zero-padded by `pad`, holding the window's pixels tap by
/// tap (`(di, dj)` row-major, `C` channels each). A convolution is this
/// followed by one product with a `(k·k·C, O)` weight.
pub fn unfold(
    x: &Tensor,
    width: usize,
    k: usize,
    stride: usize,
    pad: usize,
    alloc: impl FnOnce(Shape) -> Tensor,
) -> Tensor {
    let [b, _, c, oh, ow] = unfold_dims(x.shape(), width, k, stride, pad);
    let mut out = alloc(Shape::d3(b, oh * ow, k * k * c));
    let (xd, od) = (x.data(), out.data_mut());
    for_each_tap(x.shape(), width, k, stride, pad, |slot, src| {
        let dst = &mut od[slot * c..(slot + 1) * c];
        match src {
            Some(p) => dst.copy_from_slice(&xd[p * c..(p + 1) * c]),
            None => dst.fill(0.0),
        }
    });
    out
}

/// Fast branchless `exp` (Cephes-style argument reduction + degree-6
/// polynomial, ~2e-7 relative error). `libm`'s `expf` dominates softmax
/// cost at attention sizes; this version vectorises inside the softmax
/// lane loops. Inputs are clamped to `[-88, 88]`; at the lower bound the
/// exponent field is zero, so deeply negative (masked) scores come out
/// as exactly `0.0` — a padded key gets no weight at all, never a
/// subnormal. NaN stays NaN.
#[inline]
pub fn exp_fast(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // `max` then `min`, not `clamp` (which passes NaN through): both
    // return the non-NaN operand, so `c` is a number in [-88, 88]
    // whatever came in.
    #[allow(clippy::manual_clamp)]
    let c = x.max(-88.0).min(88.0);
    // Round-to-nearest-even via the 1.5·2²³ magic constant: plain add/sub,
    // so the loop vectorises on the baseline target (no SSE4.1 `roundps`).
    const MAGIC: f32 = 12_582_912.0;
    let n = (c * LOG2E + MAGIC) - MAGIC;
    let r = c - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_1e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 5.000_000_3e-1;
    let e = p * (r * r) + r + 1.0;
    // SAFETY: `c` was clamped to [-88, 88] above, so `n` is an integer
    // with |n| ≤ 127 (88·log₂e ≈ 126.96) — finite and far inside `i32`.
    // (The checked `as` cast saturates, which is what kept this loop
    // scalar.)
    let n: i32 = unsafe { n.to_int_unchecked() };
    // Scale by 2^n through the exponent bits (n = -127 is the all-zero
    // pattern, i.e. a factor of exactly 0.0).
    let y = f32::from_bits(((n + 127) << 23) as u32) * e;
    if x.is_nan() {
        x
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: Vec<f32>, r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data, Shape::d2(r, c))
    }

    #[test]
    fn matmul_2x2_identity() {
        let a = t2(vec![1., 2., 3., 4.], 2, 2);
        let i = t2(vec![1., 0., 0., 1.], 2, 2);
        assert_eq!(matmul(&a, &i, false, false).data(), a.data());
        assert_eq!(matmul(&i, &a, false, false).data(), a.data());
    }

    #[test]
    fn matmul_rect() {
        // (2,3) x (3,2)
        let a = t2(vec![1., 2., 3., 4., 5., 6.], 2, 3);
        let b = t2(vec![7., 8., 9., 10., 11., 12.], 3, 2);
        let c = matmul(&a, &b, false, false);
        assert_eq!(c.shape(), Shape::d2(2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_batched_matches_loop() {
        let a = Tensor::from_vec(
            (0..12).map(|x| x as f32 * 0.5).collect(),
            Shape::d3(2, 2, 3),
        );
        let b = Tensor::from_vec(
            (0..12).map(|x| 1.0 - x as f32 * 0.25).collect(),
            Shape::d3(2, 3, 2),
        );
        let c = matmul(&a, &b, false, false);
        assert_eq!(c.shape(), Shape::d3(2, 2, 2));
        for bi in 0..2 {
            let am = t2(a.data()[bi * 6..(bi + 1) * 6].to_vec(), 2, 3);
            let bm = t2(b.data()[bi * 6..(bi + 1) * 6].to_vec(), 3, 2);
            let cm = matmul(&am, &bm, false, false);
            assert_eq!(&c.data()[bi * 4..(bi + 1) * 4], cm.data());
        }
    }

    #[test]
    fn tiled_matmul_matches_row_wise_for_every_row_count() {
        // Shared weights collapse the batch into one product; the same
        // product with the weights repeated per batch runs per element.
        let mut seed = 1u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let bias = [0.5f32, -1.5, 0.25, 2.0, -0.75, 1.0];
        for rows in [1usize, 2, 3, 4, 5, 7, 9] {
            let a = t2((0..rows * 8).map(|_| next()).collect(), rows, 8);
            let w = t2((0..8 * 6).map(|_| next()).collect(), 8, 6);
            let stale = |s: Shape| Tensor::full(s, f32::MAX);
            let tiled = matmul_with(&a, &w, false, false, Some(&bias), stale);
            let a2 = Tensor::from_vec(a.data().repeat(2), Shape::d3(2, rows, 8));
            let w2 = Tensor::from_vec(w.data().repeat(2), Shape::d3(2, 8, 6));
            let row_wise = matmul_with(&a2, &w2, false, false, Some(&bias), stale);
            assert_eq!(tiled.data(), &row_wise.data()[..rows * 6], "rows={rows}");
            assert_eq!(tiled.data(), &row_wise.data()[rows * 6..], "rows={rows}");
        }
    }

    #[test]
    fn matmul_batched_with_shared_weights() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), Shape::d3(2, 2, 3));
        let w = t2(vec![1., 0., 0., 1., 1., 1.], 3, 2);
        let c = matmul(&a, &w, false, false);
        assert_eq!(c.shape(), Shape::d3(2, 2, 2));
        for bi in 0..2 {
            for i in 0..2 {
                for j in 0..2 {
                    let expect: f32 = (0..3).map(|k| a.at3(bi, i, k) * w.at2(k, j)).sum();
                    assert!((c.at3(bi, i, j) - expect).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn matmul_acc_reduces_batch() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), Shape::d3(2, 2, 3));
        let g = Tensor::from_vec(vec![1.0; 8], Shape::d3(2, 2, 2));
        // dW = sum_b a_b^T g_b has shape (3, 2)
        let mut acc = Tensor::zeros(Shape::d2(3, 2));
        matmul_acc_into(&mut acc, &a, &g, true, false);
        let mut expect = Tensor::zeros(Shape::d2(3, 2));
        for bi in 0..2 {
            for k in 0..3 {
                for j in 0..2 {
                    let v: f32 = (0..2).map(|i| a.at3(bi, i, k) * g.at3(bi, i, j)).sum();
                    expect.data_mut()[k * 2 + j] += v;
                }
            }
        }
        assert!(acc.approx_eq(&expect, 1e-5));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_stable() {
        let x = vec![1000.0, 1001.0, 999.0, -5.0, 0.0, 5.0];
        let mut out = vec![0.0; 6];
        softmax_rows(&x, 3, &mut out);
        for row in out.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|v| v.is_finite()));
        }
        assert!(out[1] > out[0] && out[0] > out[2]);
    }

    #[test]
    fn softmax_fully_masked_row_is_uniform() {
        let x = vec![f32::NEG_INFINITY; 4];
        let mut out = vec![0.0; 4];
        softmax_rows(&x, 4, &mut out);
        assert!(out.iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    /// A cheap deterministic stream of values in `[-0.5, 0.5)`.
    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        }
    }

    /// Both dispatch outcomes of this host, in one process.
    fn levels() -> [DispatchLevel; 2] {
        [cpu::select(true), cpu::select(false)]
    }

    #[test]
    fn gemm_equals_the_naive_triple_loop_exactly_at_both_levels() {
        let small = (1..=20usize)
            .flat_map(|m| (1..=20usize).flat_map(move |k| (1..=20usize).map(move |n| (m, k, n))));
        let mut next = lcg(3);
        for (m, k, n) in small.chain([(64, 32, 32), (96, 8, 96), (96, 96, 8)]) {
            // Leading dimensions equal to, then larger than, the widths.
            for pad in [0usize, 3] {
                let (lda, ldb, ldc) = (k + pad, n + pad, n + 2 * pad);
                let a: Vec<f32> = (0..m * lda).map(|_| next()).collect();
                let b: Vec<f32> = (0..k * ldb).map(|_| next()).collect();
                let bias: Vec<f32> = (0..n).map(|_| next()).collect();
                for bias in [None, Some(&bias[..])] {
                    let mut want = vec![f32::MAX; m * ldc];
                    for i in 0..m {
                        for j in 0..n {
                            let mut acc = 0.0f32;
                            for kk in 0..k {
                                acc += a[i * lda + kk] * b[kk * ldb + j];
                            }
                            want[i * ldc + j] = acc + bias.map_or(0.0, |bias| bias[j]);
                        }
                    }
                    for level in levels() {
                        // Stale contents everywhere: the tile must
                        // overwrite its columns and nothing past them.
                        let mut got = vec![f32::MAX; m * ldc];
                        gemm(level, &a, lda, &b, ldb, &mut got, ldc, m, k, n, bias);
                        let same = got
                            .iter()
                            .zip(&want)
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(
                            same,
                            "({m},{k},{n}) pad {pad} bias {} {level:?}",
                            bias.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_products_equal_the_naive_triple_loop_exactly_at_both_levels() {
        let mut next = lcg(11);
        let (m, n) = (9, 19);
        // A shared operand is rank 2, like a weight matrix.
        let shape = |batch: usize, (r, c): (usize, usize)| match batch {
            1 => Shape::d2(r, c),
            _ => Shape::d3(batch, r, c),
        };
        // (batch of a, batch of b): per element, shared right, shared left.
        for (ba, bb) in [(2usize, 2usize), (3, 1), (1, 3)] {
            for k in [3usize, 17, 293] {
                for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                    let a_shape = shape(ba, if ta { (k, m) } else { (m, k) });
                    let b_shape = shape(bb, if tb { (n, k) } else { (k, n) });
                    let a = Tensor::from_vec((0..ba * m * k).map(|_| next()).collect(), a_shape);
                    let b = Tensor::from_vec((0..bb * k * n).map(|_| next()).collect(), b_shape);
                    let batch = ba.max(bb);
                    let (ad, bd) = (a.data(), b.data());
                    let mut want = Vec::with_capacity(batch * m * n);
                    for bi in 0..batch {
                        let (a0, b0) = ((bi % ba) * m * k, (bi % bb) * k * n);
                        for i in 0..m {
                            for j in 0..n {
                                let mut acc = 0.0f32;
                                for kk in 0..k {
                                    let av = ad[a0 + if ta { kk * m + i } else { i * k + kk }];
                                    let bv = bd[b0 + if tb { j * k + kk } else { kk * n + j }];
                                    acc += av * bv;
                                }
                                want.push(acc);
                            }
                        }
                    }
                    for level in levels() {
                        let stale = |s: Shape| Tensor::full(s, f32::MAX);
                        let got = matmul_at(level, &a, &b, ta, tb, None, stale);
                        assert_eq!(got.shape(), Shape::d3(batch, m, n));
                        let same = got
                            .data()
                            .iter()
                            .zip(&want)
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "ta {ta} tb {tb} k {k} batches ({ba},{bb}) {level:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_rows_are_distributions_that_track_libm_at_both_levels() {
        let mut next = lcg(5);
        let scale = 0.35f32;
        for len in [1usize, 2, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let ld = len + 2;
            let x: Vec<f32> = (0..3 * ld).map(|_| next() * 24.0).collect();
            let mut per_level = Vec::new();
            for level in levels() {
                let mut got = x.clone();
                softmax_rows_inplace(level, &mut got, ld, len, scale);
                for (row, src) in got.chunks(ld).zip(x.chunks(ld)) {
                    assert_eq!(&row[len..], &src[len..], "entries past len are not ours");
                    let sum: f64 = row[..len].iter().map(|&p| p as f64).sum();
                    assert!((sum - 1.0).abs() < 1e-6, "len {len}: row sums to {sum}");
                    // The reference sees the f32 arguments the kernel saw.
                    let max = src[..len].iter().fold(f32::MIN, |m, &v| m.max(v * scale));
                    let exps: Vec<f64> = src[..len]
                        .iter()
                        .map(|&v| ((v * scale - max) as f64).exp())
                        .collect();
                    let total: f64 = exps.iter().sum();
                    for (&p, e) in row.iter().zip(&exps) {
                        let want = e / total;
                        assert!(
                            (p as f64 - want).abs() <= 1e-6 * want,
                            "len {len}: {p} vs {want}"
                        );
                    }
                }
                per_level.push(got);
            }
            let same = per_level[0]
                .iter()
                .zip(&per_level[1])
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "len {len}: dispatch levels disagree");
        }
    }

    #[test]
    fn softmax_gives_masked_entries_exactly_zero_and_accepts_width_zero() {
        for level in levels() {
            // The tape's additive mask: keys 3.. carry -1e9.
            let mut row: Vec<f32> = (0..11)
                .map(|j| if j < 3 { j as f32 } else { -1e9 })
                .collect();
            softmax_rows_inplace(level, &mut row, 11, 11, 1.0);
            assert!(row[..3].iter().all(|&p| p > 0.0));
            assert!(
                row[3..].iter().all(|&p| p.to_bits() == 0),
                "masked key got weight"
            );
            // Width zero: nothing to normalise, nothing touched.
            let mut rows = vec![7.0f32; 6];
            softmax_rows_inplace(level, &mut rows, 3, 0, 1.0);
            assert_eq!(rows, vec![7.0; 6]);
        }
    }

    #[test]
    fn exp_fast_accurate_over_softmax_range() {
        // Softmax arguments are always <= 0; sweep a wide range anyway.
        let mut x = -87.0f32;
        while x < 20.0 {
            let (got, want) = (exp_fast(x), x.exp());
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 1e-6, "exp_fast({x}) = {got}, want {want} (rel {rel})");
            x += 0.0137;
        }
        // Deeply-masked scores get exactly no weight.
        assert_eq!(exp_fast(-1e9), 0.0);
        assert_eq!(exp_fast(-88.0), 0.0);
        assert!(exp_fast(-87.3) > 0.0);
        assert_eq!(exp_fast(0.0), 1.0);
        // The clamp that bounds the unchecked cast holds for every input.
        assert!(exp_fast(f32::NAN).is_nan());
        assert_eq!(exp_fast(f32::NEG_INFINITY), 0.0);
        assert!(exp_fast(f32::INFINITY).is_finite());
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..13).map(|x| x as f32 * 0.3).collect();
        let b: Vec<f32> = (0..13).map(|x| 2.0 - x as f32 * 0.1).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn unfold_then_one_product_is_the_direct_convolution() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        // Two 5x4 images (H = 5, W = 4), 3 channels, a 3x3 kernel to 2
        // outputs, at each stride/padding pair.
        let (b, h, w, c, k, o) = (2usize, 5usize, 4usize, 3usize, 3usize, 2usize);
        let x = Tensor::randn(Shape::d3(b, h * w, c), 0.0, 1.0, &mut rng);
        let wt = Tensor::randn(Shape::d2(k * k * c, o), 0.0, 1.0, &mut rng);
        for (stride, pad) in [(1, 1), (2, 1), (1, 0), (2, 0)] {
            let got = matmul(
                &unfold(&x, w, k, stride, pad, Tensor::zeros),
                &wt,
                false,
                false,
            );
            let (oh, ow) = (
                (h + 2 * pad - k) / stride + 1,
                (w + 2 * pad - k) / stride + 1,
            );
            assert_eq!(got.shape(), Shape::d3(b, oh * ow, o));
            for (bi, i, j, oc) in (0..b * oh * ow * o)
                .map(|n| (n / (oh * ow * o), n / (ow * o) % oh, n / o % ow, n % o))
            {
                let mut want = 0.0f32;
                for (di, dj, ci) in (0..k * k * c).map(|t| (t / (k * c), t / c % k, t % c)) {
                    let (y, xx) = (i * stride + di, j * stride + dj);
                    if y >= pad && y - pad < h && xx >= pad && xx - pad < w {
                        let pixel = (bi * h + y - pad) * w + xx - pad;
                        want += x.data()[pixel * c + ci] * wt.at2((di * k + dj) * c + ci, oc);
                    }
                }
                let at = got.at3(bi, i * ow + j, oc);
                assert!(
                    (at - want).abs() < 1e-4,
                    "({bi},{i},{j},{oc}) {at} vs {want}"
                );
            }
        }
    }
}
