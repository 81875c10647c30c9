//! Tape-free inference: scratch-buffer reuse and fused kernels.
//!
//! The autograd [`Tape`](crate::Tape) records every op, clones parameter
//! tensors into the graph and keeps all intermediate activations alive for
//! the backward sweep — pure overhead when no gradient will ever be asked
//! for. [`InferCtx`] is the serving-side [`Exec`]: a bag of reusable
//! scratch buffers (an arena of `Vec<f32>` keyed by power-of-two size
//! class) whose ops write into recycled memory:
//!
//! * `linear` is one [`kernels::gemm`] with the bias added in the same
//!   output pass;
//! * `attention` is, per (batch, head): `gemm(Q, Kᵀ)` into an `L × len`
//!   scratch block → scale + softmax over the `len` valid keys
//!   `[+ γ·A]` → `gemm(P, V)` — the `(B·H, L, L)` coefficient tensor and
//!   the additive mask never exist;
//! * `attention_probs` serves callers that need the coefficients
//!   themselves (TrajCL's DualMSM fusion): the same first two steps,
//!   written straight into the output;
//! * elementwise and normalisation ops overwrite their operand.
//!
//! Numerics match the tape executor operation-for-operation (the matmul,
//! softmax, layer-norm and pooling bodies are the same functions in
//! [`kernels`], and the tape's `Q·Kᵀ` is the same [`kernels::gemm`] over
//! the same transposed K), so the two executors agree bit for bit. The
//! padding mask is applied by *skipping* masked keys, which is exact
//! because the tape's additive `-1e9` bias drives [`kernels::exp_fast`]
//! to exactly `0.0`. Padded *query* rows are still
//! computed (their values feed nothing: pooling skips them), which keeps
//! executor agreement a whole-tensor property.
//!
//! All allocation — outputs and per-op scratch alike — goes through the
//! arena; [`Exec::release`] hands buffers back, so steady-state serving
//! does no allocation at all (`tests/no_alloc.rs` counts). Kernels fully
//! overwrite their outputs — recycled buffers never leak stale values
//! into results.

use crate::cpu::{self, DispatchLevel};
use crate::exec::{Exec, Param};
use crate::kernels;
use crate::pool;
use crate::shape::Shape;
use crate::tape::regroup_heads;
use crate::tensor::Tensor;

/// Reusable inference context: the scratch arena behind the serving-side
/// [`Exec`] — free `Vec<f32>` buffers keyed by power-of-two size class.
///
/// Not `Sync`: one `InferCtx` per forward pass in flight, handed out by
/// a [`CtxPool`] (kernels themselves fan out over the shared [`pool`]
/// internally).
pub struct InferCtx {
    /// `classes[c]` holds free buffers of capacity ≈ `2^c`.
    classes: Vec<Vec<Vec<f32>>>,
    /// Which compiled copy of the f32 kernels this context's ops run.
    level: DispatchLevel,
}

impl Default for InferCtx {
    fn default() -> Self {
        Self::with_level(cpu::level())
    }
}

impl InferCtx {
    /// An empty context (buffers are grown on first use and reused after)
    /// at the process-wide dispatch level.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty context whose kernels run at `level` instead of the
    /// process-wide one — every level computes the same bits, which is
    /// what the equivalence tests use this for.
    pub fn with_level(level: DispatchLevel) -> Self {
        InferCtx {
            classes: Vec::new(),
            level,
        }
    }

    /// An arena-backed tensor with **unspecified contents** (possibly
    /// stale values from a previous use); every op fully overwrites its
    /// output, so this never leaks them.
    pub fn alloc(&mut self, shape: Shape) -> Tensor {
        let len = shape.numel();
        let class = len.next_power_of_two().trailing_zeros() as usize;
        let mut buf = match self.classes.get_mut(class).and_then(Vec::pop) {
            Some(buf) => buf,
            None => Vec::with_capacity(1usize << class),
        };
        buf.resize(len, 0.0);
        Tensor::from_vec(buf, shape)
    }

    /// `f(i, x[i])` for every element of `x`, into an arena tensor.
    fn map_into(&mut self, x: &Tensor, f: impl Fn(usize, f32) -> f32) -> Tensor {
        let mut out = self.alloc(x.shape());
        for (i, (o, &v)) in out.data_mut().iter_mut().zip(x.data()).enumerate() {
            *o = f(i, v);
        }
        out
    }

    /// Hands a tensor's backing buffer to the arena for reuse.
    pub fn recycle(&mut self, t: Tensor) {
        let buf = t.into_vec();
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        // Class by the largest power of two the buffer can hold.
        let class = (usize::BITS - 1 - cap.leading_zeros()) as usize;
        if class >= self.classes.len() {
            self.classes.resize_with(class + 1, Vec::new);
        }
        // Bound the number of cached buffers per class.
        if self.classes[class].len() < 8 {
            self.classes[class].push(buf);
        }
    }
}

impl Exec for InferCtx {
    type Act = Tensor;

    fn input(&mut self, value: &Tensor) -> Tensor {
        let mut out = self.alloc(value.shape());
        out.data_mut().copy_from_slice(value.data());
        out
    }

    fn linear(&mut self, x: &Tensor, w: Param, bias: Option<Param>) -> Tensor {
        let bias = bias.map(|b| b.value.data());
        kernels::matmul_at(self.level, x, w.value, false, false, bias, |s| {
            self.alloc(s)
        })
    }

    fn add(&mut self, mut a: Tensor, b: &Tensor) -> Tensor {
        a.add_assign_scaled(b, 1.0);
        a
    }

    fn add_positional(&mut self, mut x: Tensor, pe: &Tensor) -> Tensor {
        let xs = x.shape();
        assert_eq!(xs.rank(), 3, "positional encoding expects (B, L, D)");
        let table = crate::exec::pe_prefix(pe, xs[1], xs[2]);
        kernels::add_bias_rows(x.data_mut(), table);
        x
    }

    fn layer_norm(&mut self, mut x: Tensor, gamma: Param, beta: Param, eps: f32) -> Tensor {
        let d = Shape::d1(x.shape().last());
        assert_eq!(gamma.value.shape(), d, "layer_norm gamma shape");
        assert_eq!(beta.value.shape(), d, "layer_norm beta shape");
        let (g, b) = (gamma.value.data(), beta.value.data());
        kernels::layer_norm_rows(x.data_mut(), g, b, eps, |_, _, _| {});
        x
    }

    fn relu(&mut self, mut x: Tensor) -> Tensor {
        for v in x.data_mut() {
            *v = v.max(0.0);
        }
        x
    }

    fn dropout(&mut self, x: Tensor, _p: f32) -> Tensor {
        x
    }

    fn l2_normalize_rows(&mut self, mut x: Tensor) -> Tensor {
        let d = x.shape().last();
        kernels::l2_normalize_rows(x.data_mut(), d, |_, _| {});
        x
    }

    fn split_heads(&mut self, x: Tensor, heads: usize) -> Tensor {
        let out = regroup_heads(&x, heads, false, |s| self.alloc(s));
        self.recycle(x);
        out
    }

    fn merge_heads(&mut self, x: Tensor, heads: usize) -> Tensor {
        let out = regroup_heads(&x, heads, true, |s| self.alloc(s));
        self.recycle(x);
        out
    }

    /// Scores land straight in the output; scale, mask and softmax run
    /// over them in place.
    fn attention_probs(&mut self, q: &Tensor, k: &Tensor, lens: &[usize]) -> Tensor {
        let (bh, l, dh) = attn_dims(q, k, lens);
        let heads = bh / lens.len();
        let scale = 1.0 / (dh as f32).sqrt();
        let level = self.level;
        let mut out = self.alloc(Shape::d3(bh, l, l));
        let per = attn_blocks_per_lane(bh);
        // One transposed-K slab per lane.
        let mut scratch = self.alloc(Shape::d2(bh.div_ceil(per), l * dh));
        let (qd, kd) = (q.data(), k.data());
        let run = |c: usize, chunk: &mut [f32], kt: &mut [f32]| {
            for (b_off, block) in chunk.chunks_mut(l * l).enumerate() {
                let bhi = c * per + b_off;
                let len = lens[bhi / heads].min(l);
                let base = bhi * l * dh;
                kernels::transpose_into(&kd[base..base + len * dh], len, dh, kt);
                let q_blk = &qd[base..base + l * dh];
                kernels::gemm(level, q_blk, dh, kt, len, block, l, l, dh, len, None);
                kernels::softmax_rows_inplace(level, block, l, len, scale);
                for row in block.chunks_mut(l) {
                    row[len..].fill(0.0);
                }
            }
        };
        pool::par_zip_chunks_mut(out.data_mut(), per * l * l, scratch.data_mut(), l * dh, run);
        self.recycle(scratch);
        out
    }

    /// Neither the `(B·H, L, L)` coefficients nor an additive mask are
    /// materialised: each (batch, head) keeps its `L × len` block of
    /// blended `softmax + γ·A` rows in scratch between the two products.
    /// Masked keys carry zero weight on both sides (`A`'s rows are already
    /// zero there), so leaving them out of both products is exact.
    fn attention(
        &mut self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        lens: &[usize],
        fuse: Option<(&Tensor, Param)>,
    ) -> Tensor {
        let (bh, l, dh) = attn_dims(q, k, lens);
        assert_eq!(v.shape(), q.shape(), "attention v shape");
        let fuse = fuse.map(|(a, gamma)| {
            assert_eq!(a.shape(), Shape::d3(bh, l, l), "attention fuse shape");
            (a.data(), gamma.value.data()[0])
        });
        let heads = bh / lens.len();
        let scale = 1.0 / (dh as f32).sqrt();
        let level = self.level;
        let mut out = self.alloc(q.shape());
        let per = attn_blocks_per_lane(bh);
        // Per lane: transposed K, then the score block — the only live
        // state of the whole attention, reused across the lane's heads.
        let mut scratch = self.alloc(Shape::d2(bh.div_ceil(per), l * dh + l * l));
        let (qd, kd, vd) = (q.data(), k.data(), v.data());
        let run = |c: usize, chunk: &mut [f32], scratch: &mut [f32]| {
            let (kt, scores) = scratch.split_at_mut(l * dh);
            for (b_off, block) in chunk.chunks_mut(l * dh).enumerate() {
                let bhi = c * per + b_off;
                let len = lens[bhi / heads].min(l);
                let base = bhi * l * dh;
                kernels::transpose_into(&kd[base..base + len * dh], len, dh, kt);
                let q_blk = &qd[base..base + l * dh];
                let scores = &mut scores[..l * len];
                kernels::gemm(level, q_blk, dh, kt, len, scores, len, l, dh, len, None);
                kernels::softmax_rows_inplace(level, scores, len, len, scale);
                if let Some((ad, gamma)) = fuse {
                    let a_blk = &ad[bhi * l * l..(bhi + 1) * l * l];
                    for (row, a_row) in scores.chunks_mut(len).zip(a_blk.chunks(l)) {
                        for (s, &av) in row.iter_mut().zip(a_row) {
                            *s += gamma * av;
                        }
                    }
                }
                let v_blk = &vd[base..base + l * dh];
                kernels::gemm(level, scores, len, v_blk, dh, block, dh, l, len, dh, None);
            }
        };
        let slab = l * dh + l * l;
        pool::par_zip_chunks_mut(out.data_mut(), per * l * dh, scratch.data_mut(), slab, run);
        self.recycle(scratch);
        out
    }

    fn concat(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        kernels::concat(&[a, b], |s| self.alloc(s))
    }

    fn mean_pool_masked(&mut self, x: &Tensor, lens: &[usize]) -> Tensor {
        kernels::mean_pool_masked(x, lens, |s| self.alloc(s))
    }

    fn gather(&mut self, table: Param, ids: &[u32], batch: usize) -> Tensor {
        let d = table.value.shape().last();
        let mut out = self.alloc(Shape::d3(batch, ids.len() / batch, d));
        kernels::gather_rows(table.value, ids, out.data_mut());
        out
    }

    fn add_bias(&mut self, mut x: Tensor, bias: Param) -> Tensor {
        kernels::add_bias_rows(x.data_mut(), bias.value.data());
        x
    }

    fn sub(&mut self, mut a: Tensor, b: &Tensor) -> Tensor {
        a.add_assign_scaled(b, -1.0);
        a
    }

    fn mul(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.shape(), b.shape(), "mul shape mismatch");
        self.map_into(a, |i, v| v * b.data()[i])
    }

    fn sigmoid(&mut self, x: &Tensor) -> Tensor {
        self.map_into(x, |_, v| kernels::sigmoid(v))
    }

    fn tanh(&mut self, x: &Tensor) -> Tensor {
        self.map_into(x, |_, v| v.tanh())
    }

    fn mul_param(&mut self, x: &Tensor, s: Param) -> Tensor {
        let s = s.value.data()[0];
        self.map_into(x, |_, v| v * s)
    }

    fn select_time(&mut self, x: &Tensor, t: usize) -> Tensor {
        kernels::select_time(x, t, |s| self.alloc(s))
    }

    fn matmul(&mut self, a: &Tensor, b: &Tensor, tb: bool) -> Tensor {
        kernels::matmul_at(self.level, a, b, false, tb, None, |s| self.alloc(s))
    }

    fn scale(&mut self, mut x: Tensor, c: f32) -> Tensor {
        x.scale_in_place(c);
        x
    }

    fn softmax(&mut self, mut x: Tensor) -> Tensor {
        let d = x.shape().last();
        kernels::softmax_rows_at(self.level, x.data_mut(), d);
        x
    }

    fn unfold(&mut self, x: &Tensor, width: usize, k: usize, stride: usize, pad: usize) -> Tensor {
        kernels::unfold(x, width, k, stride, pad, |s| self.alloc(s))
    }

    fn release(&mut self, a: Tensor) {
        self.recycle(a);
    }
}

/// Common `(B·H, L, Dh)` validation for the attention kernels.
fn attn_dims(q: &Tensor, k: &Tensor, lens: &[usize]) -> (usize, usize, usize) {
    let qs = q.shape();
    assert_eq!(qs.rank(), 3, "attention expects (B*H, L, Dh), got {qs}");
    assert_eq!(k.shape(), qs, "attention q/k shape mismatch");
    let (bh, l, dh) = (qs[0], qs[1], qs[2]);
    assert!(
        !lens.is_empty() && bh % lens.len() == 0,
        "batch*heads {bh} not divisible by batch {}",
        lens.len()
    );
    (bh, l, dh)
}

/// How many (batch, head) blocks each lane of an attention region takes:
/// an even split across the pool, coarse enough for
/// [`pool::par_zip_chunks_mut`].
fn attn_blocks_per_lane(bh: usize) -> usize {
    pool::rows_per_lane(bh).max(bh.div_ceil(pool::MAX_ZIP_CHUNKS))
}

/// A free list of [`InferCtx`]s: one warm context per *in-flight forward
/// pass*, whichever thread runs it.
///
/// An `InferCtx` is deliberately not `Sync` — its scratch arena is a
/// single-threaded bag of buffers. The engine owns a `CtxPool`, which is
/// what makes its `embed_all` callable from any thread:
/// [`CtxPool::checkout`] hands out an exclusive [`PooledCtx`] guard
/// (creating a fresh context only when the free list is empty — so the
/// list never outgrows the peak number of concurrent forwards) and the
/// guard's `Drop` returns the context, with all its grown scratch
/// buffers, for the next caller. The lock is held for the pop and the
/// push only, never across a forward.
#[derive(Default)]
pub struct CtxPool {
    free: std::sync::Mutex<Vec<InferCtx>>,
}

impl CtxPool {
    /// An empty pool; contexts are created lazily on checkout.
    pub fn new() -> CtxPool {
        CtxPool::default()
    }

    /// Exclusive use of one context until the guard drops.
    pub fn checkout(&self) -> PooledCtx<'_> {
        let ctx = {
            let mut free = self.free.lock().unwrap_or_else(|p| p.into_inner());
            free.pop()
        };
        PooledCtx {
            pool: self,
            ctx: Some(ctx.unwrap_or_default()),
        }
    }

    /// Number of contexts currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The workspace's one bulk embed: an `(n, d)` table whose row `i` is
    /// `forward(ctx, i)`, a `(1, d)` forward of item `i` alone. The rows
    /// split across the [`pool`] lanes, one checked-out context per lane
    /// for the length of its rows — at one lane, a plain loop on one
    /// context. When a row's bits depend on its item alone (every
    /// encoder's unpadded forward), neither the split nor the width shows
    /// in the output.
    pub fn embed_rows(
        &self,
        n: usize,
        d: usize,
        forward: impl Fn(&mut InferCtx, usize) -> Tensor + Sync,
    ) -> Tensor {
        let mut out = Tensor::zeros(Shape::d2(n, d));
        let per_lane = pool::rows_per_lane(n);
        pool::par_chunks_mut(out.data_mut(), per_lane * d, |lane, rows| {
            let mut ctx = self.checkout();
            for (i, row) in (lane * per_lane..).zip(rows.chunks_mut(d)) {
                let h = forward(&mut ctx, i);
                row.copy_from_slice(h.data());
                ctx.recycle(h);
            }
        });
        out
    }
}

/// RAII guard over a checked-out [`InferCtx`]; derefs to the context and
/// returns it to its [`CtxPool`] on drop.
pub struct PooledCtx<'a> {
    pool: &'a CtxPool,
    ctx: Option<InferCtx>,
}

impl std::ops::Deref for PooledCtx<'_> {
    type Target = InferCtx;

    fn deref(&self) -> &InferCtx {
        self.ctx.as_ref().expect("context present until drop")
    }
}

impl std::ops::DerefMut for PooledCtx<'_> {
    fn deref_mut(&mut self) -> &mut InferCtx {
        self.ctx.as_mut().expect("context present until drop")
    }
}

impl Drop for PooledCtx<'_> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            let mut free = self.pool.free.lock().unwrap_or_else(|p| p.into_inner());
            free.push(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::matmul;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randn(shape: Shape, seed: u64) -> Tensor {
        Tensor::randn(shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed))
    }

    fn param(value: &Tensor) -> Param<'_> {
        Param { id: 0, value }
    }

    #[test]
    fn linear_is_the_shared_matmul_plus_bias() {
        let mut ctx = InferCtx::new();
        // Rank-3 input against shared weights, rows not a multiple of the
        // tile height.
        let x = randn(Shape::d3(3, 3, 4), 7);
        let w = randn(Shape::d2(4, 2), 8);
        let bias = Tensor::from_vec(vec![0.5, -1.5], Shape::d1(2));
        let got = ctx.linear(&x, param(&w), None);
        assert!(got.approx_eq(&matmul(&x, &w, false, false), 0.0));
        let got = ctx.linear(&x, param(&w), Some(param(&bias)));
        let mut want = matmul(&x, &w, false, false);
        for row in want.data_mut().chunks_mut(2) {
            row[0] += 0.5;
            row[1] += -1.5;
        }
        assert!(got.approx_eq(&want, 1e-6));
    }

    #[test]
    fn attention_probs_rows_sum_to_one_and_mask_is_exact_zero() {
        let mut ctx = InferCtx::new();
        let q = randn(Shape::d3(4, 5, 8), 9);
        let k = randn(Shape::d3(4, 5, 8), 10);
        let lens = [3usize, 5];
        let probs = ctx.attention_probs(&q, &k, &lens);
        assert_eq!(probs.shape(), Shape::d3(4, 5, 5));
        for bh in 0..4 {
            let len = lens[bh / 2];
            for i in 0..5 {
                let row: Vec<f32> = (0..5).map(|j| probs.at3(bh, i, j)).collect();
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "row sum {s}");
                for (j, &p) in row.iter().enumerate() {
                    if j >= len {
                        assert_eq!(p, 0.0, "masked key got weight");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_attention_matches_probs_times_v() {
        let mut ctx = InferCtx::new();
        let q = randn(Shape::d3(6, 7, 4), 11);
        let k = randn(Shape::d3(6, 7, 4), 12);
        let v = randn(Shape::d3(6, 7, 4), 13);
        let lens = [2usize, 7, 4];
        let fused = ctx.attention(&q, &k, &v, &lens, None);
        let probs = ctx.attention_probs(&q, &k, &lens);
        assert!(fused.approx_eq(&ctx.matmul(&probs, &v, false), 1e-6));
        // With the γ·A term: (P + γ·P)·V = (1 + γ)·P·V.
        let gamma = Tensor::scalar(0.5);
        let blended = ctx.attention(&q, &k, &v, &lens, Some((&probs, param(&gamma))));
        assert!(blended.approx_eq(&fused.map(|x| 1.5 * x), 1e-5));
    }

    #[test]
    fn scratch_reuse_does_not_leak_stale_values() {
        let mut ctx = InferCtx::new();
        let a = randn(Shape::d2(9, 9), 14);
        let b = randn(Shape::d2(9, 9), 15);
        let first = ctx.linear(&a, param(&b), None);
        let baseline = first.clone();
        ctx.recycle(first);
        // Poison the arena with a same-class buffer full of garbage.
        let poison = Tensor::full(Shape::d2(9, 9), f32::MAX);
        ctx.recycle(poison);
        for _ in 0..4 {
            let again = ctx.linear(&a, param(&b), None);
            assert!(
                again.approx_eq(&baseline, 0.0),
                "recycled buffer leaked state"
            );
            ctx.recycle(again);
        }
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    #[test]
    fn checkout_reuses_returned_contexts() {
        let pool = CtxPool::new();
        assert_eq!(pool.idle(), 0);
        {
            let mut ctx = pool.checkout();
            let t = ctx.alloc(Shape::d2(4, 4));
            ctx.recycle(t);
        }
        assert_eq!(pool.idle(), 1, "dropped guard must return its context");
        let a = pool.checkout();
        assert_eq!(pool.idle(), 0);
        let b = pool.checkout();
        drop(b);
        drop(a);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = std::sync::Arc::new(CtxPool::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = std::sync::Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..16 {
                    let mut ctx = pool.checkout();
                    let t = ctx.alloc(Shape::d2(8, 8));
                    ctx.recycle(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every checked-out context came back, and none was created
        // beyond the four that could be out at once.
        assert!((1..=4).contains(&pool.idle()));
    }
}
