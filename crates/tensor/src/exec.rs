//! The executor seam: every layer is written once against [`Exec`] and run
//! two ways.
//!
//! * [`TapeExec`] records each op on an autograd [`Tape`] out of the tape's
//!   existing primitives, so [`crate::backward`] differentiates a forward
//!   pass it has always known. Activations are [`Var`]s; nothing is freed
//!   before the backward sweep, so [`Exec::release`] is a no-op.
//! * [`InferCtx`](crate::InferCtx) computes the same ops with fused,
//!   in-place kernels on arena buffers. Activations are owned [`Tensor`]s;
//!   [`Exec::release`] hands a buffer back to the arena, which is what
//!   keeps steady-state serving allocation-free.
//!
//! Because an arena tensor is move-only, generic layer code treats every
//! activation as such: ops that overwrite an operand take it by value and
//! return it, read-only operands are borrowed, and whatever a layer stops
//! needing it releases.

use crate::shape::Shape;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::RngCore;
use std::collections::HashMap;

/// Large negative bias used to mask padded attention slots.
pub const MASK_NEG: f32 = -1e9;

/// A model parameter as an executor sees it: its slot in the parameter
/// store (the tape's gradient-routing key) and its current value.
#[derive(Debug, Clone, Copy)]
pub struct Param<'a> {
    /// Store slot; what [`Tape::param`] binds the leaf to.
    pub id: usize,
    /// Current value.
    pub value: &'a Tensor,
}

/// The ops the layers of TrajCL and of every baseline are written in.
///
/// `lens` always holds one valid length per batch element; attention
/// gives key positions `≥ lens[b]` exactly-zero weight on both executors.
pub trait Exec {
    /// Handle to an activation.
    type Act;

    /// Brings a constant input into the executor.
    fn input(&mut self, value: &Tensor) -> Self::Act;

    /// Fully-connected layer `x·w (+ bias)` over the last dimension.
    fn linear(&mut self, x: &Self::Act, w: Param, bias: Option<Param>) -> Self::Act;

    /// `a + b` (same shapes).
    fn add(&mut self, a: Self::Act, b: &Self::Act) -> Self::Act;

    /// Adds the first `L` rows of a `(≥ L, D)` positional table to every
    /// batch of a `(B, L, D)` activation (row `i` of a sinusoidal table
    /// does not depend on `L`, so one table serves every length).
    fn add_positional(&mut self, x: Self::Act, pe: &Tensor) -> Self::Act;

    /// Layer normalisation over the last dimension.
    fn layer_norm(&mut self, x: Self::Act, gamma: Param, beta: Param, eps: f32) -> Self::Act;

    /// ReLU.
    fn relu(&mut self, x: Self::Act) -> Self::Act;

    /// Inverted dropout with drop probability `p`; the identity outside
    /// training.
    fn dropout(&mut self, x: Self::Act, p: f32) -> Self::Act;

    /// Scales each row of a rank-2 activation to unit L2 norm.
    fn l2_normalize_rows(&mut self, x: Self::Act) -> Self::Act;

    /// `(B, L, H·Dh) -> (B·H, L, Dh)`.
    fn split_heads(&mut self, x: Self::Act, heads: usize) -> Self::Act;

    /// `(B·H, L, Dh) -> (B, L, H·Dh)`.
    fn merge_heads(&mut self, x: Self::Act, heads: usize) -> Self::Act;

    /// Attention coefficients `softmax(Q·Kᵀ/√dh)` over the valid keys,
    /// `(B·H, L, L)` from `(B·H, L, Dh)` operands.
    fn attention_probs(&mut self, q: &Self::Act, k: &Self::Act, lens: &[usize]) -> Self::Act;

    /// `(softmax(Q·Kᵀ/√dh) + γ·A)·V`, the `γ·A` term only when `fuse` is
    /// given (DualMSM's Eq. 15 with `A = A_s`; plain attention without).
    fn attention(
        &mut self,
        q: &Self::Act,
        k: &Self::Act,
        v: &Self::Act,
        lens: &[usize],
        fuse: Option<(&Self::Act, Param)>,
    ) -> Self::Act;

    /// Concatenates along the last dimension.
    fn concat(&mut self, a: &Self::Act, b: &Self::Act) -> Self::Act;

    /// Mean over the first `lens[b]` positions: `(B, L, D) -> (B, D)`.
    fn mean_pool_masked(&mut self, x: &Self::Act, lens: &[usize]) -> Self::Act;

    /// Rows `ids` of a `(V, D)` table as `(batch, ids.len() / batch, D)`.
    fn gather(&mut self, table: Param, ids: &[u32], batch: usize) -> Self::Act;

    /// Adds a rank-1 bias over the last dimension in a pass of its own —
    /// after a sum of products, as in an RNN gate's `x·W + h·U + b`.
    fn add_bias(&mut self, x: Self::Act, bias: Param) -> Self::Act;

    /// `a − b` (same shapes).
    fn sub(&mut self, a: Self::Act, b: &Self::Act) -> Self::Act;

    /// `a ⊙ b` (same shapes).
    fn mul(&mut self, a: &Self::Act, b: &Self::Act) -> Self::Act;

    /// Logistic sigmoid.
    fn sigmoid(&mut self, x: &Self::Act) -> Self::Act;

    /// Hyperbolic tangent.
    fn tanh(&mut self, x: &Self::Act) -> Self::Act;

    /// `x · s` for a one-element parameter `s`.
    fn mul_param(&mut self, x: &Self::Act, s: Param) -> Self::Act;

    /// `(B, L, D) -> (B, D)` at time step `t`.
    fn select_time(&mut self, x: &Self::Act, t: usize) -> Self::Act;

    /// `a·b`, or `a·bᵀ` with `tb`, batched as [`crate::kernels::matmul`]
    /// (`probs·V` for coefficients from [`Exec::attention_probs`]).
    fn matmul(&mut self, a: &Self::Act, b: &Self::Act, tb: bool) -> Self::Act;

    /// `x · c` for a constant `c`.
    fn scale(&mut self, x: Self::Act, c: f32) -> Self::Act;

    /// Softmax over the last dimension.
    fn softmax(&mut self, x: Self::Act) -> Self::Act;

    /// [`crate::kernels::unfold`]: the `k × k` windows of a `(B, H·width,
    /// C)` channels-last image batch as `(B, OH·OW, k·k·C)` rows.
    fn unfold(
        &mut self,
        x: &Self::Act,
        width: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self::Act;

    /// Declares `a` dead.
    fn release(&mut self, a: Self::Act);
}

/// Additive attention-mask bias of shape `(B*heads, l, l)`: `0` where the
/// key position is valid, [`MASK_NEG`] where it is padding.
pub fn attention_mask_bias(lens: &[usize], l: usize, heads: usize) -> Tensor {
    let mut mask = Tensor::zeros(Shape::d3(lens.len() * heads, l, l));
    for (block, &len) in mask.data_mut().chunks_mut(heads * l * l).zip(lens) {
        debug_assert!(len <= l);
        for row in block.chunks_mut(l) {
            row[len..].fill(MASK_NEG);
        }
    }
    mask
}

/// The first `l` rows of a `(≥ l, d)` positional table, flattened.
///
/// # Panics
/// Panics when the table is narrower or shorter than the activation.
pub(crate) fn pe_prefix(pe: &Tensor, l: usize, d: usize) -> &[f32] {
    let ps = pe.shape();
    assert!(
        ps.rank() == 2 && ps[0] >= l && ps[1] == d,
        "PE table {ps} does not cover ({l}, {d})"
    );
    &pe.data()[..l * d]
}

/// The training-side executor: a [`Tape`] it records on, the RNG and mode
/// dropout needs, and the parameters already bound to that tape.
pub struct TapeExec<'r> {
    /// The tape being recorded; read values and run `backward` through it.
    pub tape: Tape,
    rng: &'r mut dyn RngCore,
    training: bool,
    /// The one leaf each parameter (by store slot) has on this tape.
    bound: HashMap<usize, Var>,
}

impl<'r> TapeExec<'r> {
    /// A fresh tape; dropout is live only when `training`.
    pub fn new(rng: &'r mut dyn RngCore, training: bool) -> Self {
        TapeExec {
            tape: Tape::new(),
            rng,
            training,
            bound: HashMap::new(),
        }
    }

    /// The differentiable leaf of parameter `p` on this tape, created on
    /// first use: however often a parameter is read, its value is cloned
    /// once and its gradient accumulates in one place.
    pub fn bind(&mut self, p: Param) -> Var {
        let leaf = self.bound.entry(p.id);
        *leaf.or_insert_with(|| self.tape.param(p.value.clone(), p.id))
    }
}

impl Exec for TapeExec<'_> {
    type Act = Var;

    fn input(&mut self, value: &Tensor) -> Var {
        self.tape.input(value.clone())
    }

    fn linear(&mut self, x: &Var, w: Param, bias: Option<Param>) -> Var {
        let w = self.bind(w);
        let y = self.tape.matmul(*x, w, false, false);
        let Some(bias) = bias else { return y };
        let bias = self.bind(bias);
        self.tape.add_bias(y, bias)
    }

    fn add(&mut self, a: Var, b: &Var) -> Var {
        self.tape.add(a, *b)
    }

    fn add_positional(&mut self, x: Var, pe: &Tensor) -> Var {
        let xs = self.tape.shape(x);
        assert_eq!(xs.rank(), 3, "positional encoding expects (B, L, D)");
        let table = pe_prefix(pe, xs[1], xs[2]);
        let tiled = Tensor::from_vec(table.repeat(xs[0]), xs);
        let pe_var = self.tape.input(tiled);
        self.tape.add(x, pe_var)
    }

    fn layer_norm(&mut self, x: Var, gamma: Param, beta: Param, eps: f32) -> Var {
        let (g, b) = (self.bind(gamma), self.bind(beta));
        self.tape.layer_norm(x, g, b, eps)
    }

    fn relu(&mut self, x: Var) -> Var {
        self.tape.relu(x)
    }

    fn dropout(&mut self, x: Var, p: f32) -> Var {
        self.tape.dropout(x, p, self.training, &mut self.rng)
    }

    fn l2_normalize_rows(&mut self, x: Var) -> Var {
        self.tape.l2_normalize_rows(x)
    }

    fn split_heads(&mut self, x: Var, heads: usize) -> Var {
        self.tape.split_heads(x, heads)
    }

    fn merge_heads(&mut self, x: Var, heads: usize) -> Var {
        self.tape.merge_heads(x, heads)
    }

    fn attention_probs(&mut self, q: &Var, k: &Var, lens: &[usize]) -> Var {
        let qs = self.tape.shape(*q);
        let (bh, l, dh) = (qs[0], qs[1], qs[2]);
        let scores = self.tape.matmul(*q, *k, false, true);
        let scaled = self.tape.scale(scores, 1.0 / (dh as f32).sqrt());
        let mask = attention_mask_bias(lens, l, bh / lens.len());
        let mask = self.tape.input(mask);
        let biased = self.tape.add(scaled, mask);
        self.tape.softmax(biased)
    }

    fn attention(
        &mut self,
        q: &Var,
        k: &Var,
        v: &Var,
        lens: &[usize],
        fuse: Option<(&Var, Param)>,
    ) -> Var {
        let mut probs = self.attention_probs(q, k, lens);
        if let Some((a, gamma)) = fuse {
            let gated = self.mul_param(a, gamma);
            probs = self.tape.add(probs, gated);
        }
        self.tape.matmul(probs, *v, false, false)
    }

    fn concat(&mut self, a: &Var, b: &Var) -> Var {
        self.tape.concat(&[*a, *b])
    }

    fn mean_pool_masked(&mut self, x: &Var, lens: &[usize]) -> Var {
        self.tape.mean_pool_masked(*x, lens)
    }

    fn gather(&mut self, table: Param, ids: &[u32], batch: usize) -> Var {
        let table = self.bind(table);
        let d = self.tape.shape(table).last();
        let rows = self.tape.embedding(table, ids);
        self.tape
            .reshape(rows, Shape::d3(batch, ids.len() / batch, d))
    }

    fn add_bias(&mut self, x: Var, bias: Param) -> Var {
        let bias = self.bind(bias);
        self.tape.add_bias(x, bias)
    }

    fn sub(&mut self, a: Var, b: &Var) -> Var {
        self.tape.sub(a, *b)
    }

    fn mul(&mut self, a: &Var, b: &Var) -> Var {
        self.tape.mul(*a, *b)
    }

    fn sigmoid(&mut self, x: &Var) -> Var {
        self.tape.sigmoid(*x)
    }

    fn tanh(&mut self, x: &Var) -> Var {
        self.tape.tanh_op(*x)
    }

    fn mul_param(&mut self, x: &Var, s: Param) -> Var {
        let s = self.bind(s);
        self.tape.mul_scalar_var(*x, s)
    }

    fn select_time(&mut self, x: &Var, t: usize) -> Var {
        self.tape.select_time(*x, t)
    }

    fn matmul(&mut self, a: &Var, b: &Var, tb: bool) -> Var {
        self.tape.matmul(*a, *b, false, tb)
    }

    fn scale(&mut self, x: Var, c: f32) -> Var {
        self.tape.scale(x, c)
    }

    fn softmax(&mut self, x: Var) -> Var {
        self.tape.softmax(x)
    }

    fn unfold(&mut self, x: &Var, width: usize, k: usize, stride: usize, pad: usize) -> Var {
        self.tape.unfold(*x, width, k, stride, pad)
    }

    fn release(&mut self, _: Var) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mask_bias_blocks_padding() {
        let mask = attention_mask_bias(&[2, 3], 3, 2);
        assert_eq!(mask.shape(), Shape::d3(4, 3, 3));
        // Batch 0 (len 2): column 2 masked for every query and head.
        for h in 0..2 {
            for q in 0..3 {
                assert_eq!(mask.at3(h, q, 2), MASK_NEG);
                assert_eq!(mask.at3(h, q, 1), 0.0);
            }
        }
        // Batch 1 (len 3): nothing masked.
        for h in 2..4 {
            assert!(mask.data()[h * 9..(h + 1) * 9].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn parameter_bound_twice_has_one_leaf_and_the_summed_gradient() {
        let w = Tensor::randn(Shape::d2(3, 3), 0.0, 1.0, &mut StdRng::seed_from_u64(1));
        let x = Tensor::randn(Shape::d2(2, 3), 0.0, 1.0, &mut StdRng::seed_from_u64(2));
        let p = Param { id: 5, value: &w };

        // y = (x·w)·w through the executor: one leaf for both uses.
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = TapeExec::new(&mut rng, false);
        let xv = e.input(&x);
        let before = e.tape.len();
        let h = e.linear(&xv, p, None);
        let y = e.linear(&h, p, None);
        assert_eq!(e.tape.len(), before + 3, "one leaf plus two matmuls");
        assert_eq!(e.bind(p), e.bind(p));
        let loss = e.tape.mean_all(y);
        let one_leaf = e.tape.backward(loss).into_param_grads(&e.tape);
        assert_eq!(one_leaf.len(), 1);
        assert_eq!(one_leaf[0].0, 5);

        // The same graph with a fresh leaf per use, gradients summed by id.
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let (w1, w2) = (tape.param(w.clone(), 5), tape.param(w.clone(), 5));
        let h = tape.matmul(xv, w1, false, false);
        let y = tape.matmul(h, w2, false, false);
        let loss = tape.mean_all(y);
        let two_leaves = tape.backward(loss).into_param_grads(&tape);
        assert_eq!(two_leaves.len(), 2);
        let mut sum = two_leaves[0].1.clone();
        sum.add_assign_scaled(&two_leaves[1].1, 1.0);
        assert!(one_leaf[0].1.approx_eq(&sum, 1e-6));
    }

    #[test]
    fn masked_keys_get_exactly_zero_weight_on_both_executors() {
        let q = Tensor::randn(Shape::d3(4, 5, 8), 0.0, 1.0, &mut StdRng::seed_from_u64(3));
        let k = Tensor::randn(Shape::d3(4, 5, 8), 0.0, 1.0, &mut StdRng::seed_from_u64(4));
        let lens = [3usize, 5];
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = TapeExec::new(&mut rng, false);
        let (qv, kv) = (e.input(&q), e.input(&k));
        let taped = e.attention_probs(&qv, &kv, &lens);
        let taped = e.tape.value(taped);
        let served = crate::InferCtx::new().attention_probs(&q, &k, &lens);
        assert!(taped.approx_eq(&served, 1e-6));
        for probs in [taped, &served] {
            for bh in 0..4 {
                for i in 0..5 {
                    for j in lens[bh / 2]..5 {
                        assert_eq!(probs.at3(bh, i, j), 0.0, "masked key got weight");
                    }
                }
            }
        }
    }

    #[test]
    fn add_positional_adds_the_table_to_every_batch_on_both_executors() {
        let pe = Tensor::randn(Shape::d2(3, 4), 0.0, 1.0, &mut StdRng::seed_from_u64(5));
        let zeros = Tensor::zeros(Shape::d3(2, 3, 4));
        let want = Tensor::from_vec(pe.data().repeat(2), zeros.shape());
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = TapeExec::new(&mut rng, false);
        let x = e.input(&zeros);
        let y = e.add_positional(x, &pe);
        assert!(e.tape.value(y).approx_eq(&want, 0.0));
        let mut ctx = crate::InferCtx::new();
        let x = ctx.input(&zeros);
        assert!(ctx.add_positional(x, &pe).approx_eq(&want, 0.0));
    }
}
