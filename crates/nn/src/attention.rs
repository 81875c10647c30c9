//! Multi-head self-attention, Transformer encoder layers and sinusoidal
//! positional encodings.
//!
//! The vanilla multi-head self-attention module (MSM) here is the one used
//! by the CSTRM/T3S baselines and by the `TrajCL-MSM` / `TrajCL-concat`
//! ablations; TrajCL's DualMSM (in `trajcl-core`) builds on the same pieces
//! ([`project_heads`], [`PostBlock`]) but learns two attention-coefficient
//! matrices and fuses them.

use crate::modules::{Fwd, Mlp};
use crate::store::{ParamId, ParamStore};
use crate::{init, LayerNorm};
use rand::Rng;
use std::sync::{Arc, Mutex};
use trajcl_tensor::{Exec, Shape, Tensor};

/// Sinusoidal position table of shape `(l, d)` following Vaswani et al. /
/// TrajCL Eq. 9.
pub fn sinusoidal_pe(l: usize, d: usize) -> Tensor {
    let mut pe = Tensor::zeros(Shape::d2(l, d));
    for i in 0..l {
        for j in 0..d {
            let exponent = if j % 2 == 0 { j } else { j - 1 } as f32 / d as f32;
            let angle = i as f32 / 10_000f32.powf(exponent);
            pe.data_mut()[i * d + j] = if j % 2 == 0 { angle.sin() } else { angle.cos() };
        }
    }
    pe
}

/// A [`sinusoidal_pe`] table kept between forward passes. Row `i` of the
/// table does not depend on how many rows there are, so one table built
/// for the longest sequence seen so far serves every shorter batch as a
/// prefix ([`Exec::add_positional`] adds the first `L` rows) — the
/// `L·d` `powf` + `sin`/`cos` calls leave the per-request path.
#[derive(Debug)]
pub struct PeTable {
    dim: usize,
    table: Mutex<Arc<Tensor>>,
}

impl PeTable {
    /// An empty table of width `dim`; rows are computed on first use.
    pub fn new(dim: usize) -> Self {
        PeTable {
            dim,
            table: Mutex::new(Arc::new(sinusoidal_pe(0, dim))),
        }
    }

    /// A table with at least `l` rows (regrown, with headroom, only when
    /// `l` exceeds every length seen before).
    pub fn rows(&self, l: usize) -> Arc<Tensor> {
        let mut table = self.table.lock().unwrap_or_else(|p| p.into_inner());
        if table.shape()[0] < l {
            *table = Arc::new(sinusoidal_pe(l.next_power_of_two(), self.dim));
        }
        Arc::clone(&table)
    }
}

impl Clone for PeTable {
    fn clone(&self) -> Self {
        PeTable {
            dim: self.dim,
            table: Mutex::new(self.rows(0)),
        }
    }
}

/// Projects `(B, L, D)` through weight `w` and splits into
/// `(B*heads, L, D/heads)`.
pub fn project_heads<E: Exec>(f: &mut Fwd<E>, x: &E::Act, w: ParamId, heads: usize) -> E::Act {
    let proj = f.exec.linear(x, f.p(w), None);
    f.exec.split_heads(proj, heads)
}

/// Vanilla multi-head self-attention (the Transformer MSM).
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    /// Number of attention heads.
    pub heads: usize,
    /// Model dimension.
    pub dim: usize,
}

impl MultiHeadSelfAttention {
    /// Registers projection weights `{name}.wq|wk|wv|wo` for model
    /// dimension `dim` and `heads` heads (`dim` must be divisible by
    /// `heads`).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self::with_suffixes(store, name, ["wq", "wk", "wv", "wo"], dim, heads, rng)
    }

    /// Like [`MultiHeadSelfAttention::new`] with the four weights named
    /// `{name}.{suffix}` (query, key, value, output — registered in that
    /// order).
    pub fn with_suffixes(
        store: &mut ParamStore,
        name: &str,
        suffixes: [&str; 4],
        dim: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} not divisible by heads {heads}");
        let [wq, wk, wv, wo] = suffixes.map(|suffix| {
            let w = init::xavier_uniform(dim, dim, &mut *rng);
            store.add(format!("{name}.{suffix}"), w)
        });
        MultiHeadSelfAttention {
            wq,
            wk,
            wv,
            wo,
            heads,
            dim,
        }
    }

    /// Runs attention over `(B, L, dim)` with per-batch valid lengths
    /// `lens`, returning the contextualised output `(B, L, dim)` — and,
    /// when `want_attn` is set, the `(B·H, L, L)` coefficients too
    /// (DualMSM needs the spatial ones for its γ-fusion). Without it this
    /// is [`MultiHeadSelfAttention::fused`] and they need never exist.
    pub fn forward<E: Exec>(
        &self,
        f: &mut Fwd<E>,
        x: &E::Act,
        lens: &[usize],
        want_attn: bool,
    ) -> (E::Act, Option<E::Act>) {
        if !want_attn {
            return (self.fused(f, x, lens, None), None);
        }
        let probs = self.attention_probs(f, x, lens);
        let v = project_heads(f, x, self.wv, self.heads);
        let ctx = f.exec.matmul(&probs, &v, false);
        f.exec.release(v);
        (self.output(f, ctx), Some(probs))
    }

    /// Attention whose whole `QKᵀ → scale → mask → softmax → [+ γ·A] →
    /// ·V` chain is one [`Exec::attention`]; `fuse = (A, γ)` blends
    /// another attention's coefficients in (DualMSM's Eq. 15).
    pub fn fused<E: Exec>(
        &self,
        f: &mut Fwd<E>,
        x: &E::Act,
        lens: &[usize],
        fuse: Option<(&E::Act, ParamId)>,
    ) -> E::Act {
        let q = project_heads(f, x, self.wq, self.heads);
        let k = project_heads(f, x, self.wk, self.heads);
        let v = project_heads(f, x, self.wv, self.heads);
        let fuse = fuse.map(|(a, gamma)| (a, f.p(gamma)));
        let ctx = f.exec.attention(&q, &k, &v, lens, fuse);
        for t in [q, k, v] {
            f.exec.release(t);
        }
        self.output(f, ctx)
    }

    /// Merges the per-head contexts and applies the output projection.
    fn output<E: Exec>(&self, f: &mut Fwd<E>, ctx: E::Act) -> E::Act {
        let merged = f.exec.merge_heads(ctx, self.heads);
        let out = f.exec.linear(&merged, f.p(self.wo), None);
        f.exec.release(merged);
        out
    }

    /// Attention *coefficients only* (`(B·H, L, L)`), skipping the value
    /// path entirely — used where only the coefficient matrix feeds
    /// downstream computation (the last DualMSM layer's spatial branch).
    pub fn attention_probs<E: Exec>(&self, f: &mut Fwd<E>, x: &E::Act, lens: &[usize]) -> E::Act {
        let q = project_heads(f, x, self.wq, self.heads);
        let k = project_heads(f, x, self.wk, self.heads);
        let probs = f.exec.attention_probs(&q, &k, lens);
        f.exec.release(q);
        f.exec.release(k);
        probs
    }

    /// Projection weights `[wq, wk, wv, wo]` — for callers that assemble
    /// their own attention from primitives (TrajGAT's learned score bias).
    pub fn params(&self) -> [ParamId; 4] {
        [self.wq, self.wk, self.wv, self.wo]
    }
}

/// What follows attention in every encoder layer (TrajCL Eqs. 10–11):
/// `h = LN(x + Dropout(a))`, then `LN(h + Dropout(MLP(h)))`.
#[derive(Debug, Clone)]
pub struct PostBlock {
    ln1: LayerNorm,
    mlp: Mlp,
    ln2: LayerNorm,
    dropout: f32,
}

impl PostBlock {
    /// Registers `{name}.ln1`, `{name}.mlp`, `{name}.ln2` for width `dim`
    /// with a `hidden`-wide feed-forward block.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        PostBlock {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            mlp: Mlp::new(
                store,
                &format!("{name}.mlp"),
                dim,
                hidden,
                dim,
                dropout,
                rng,
            ),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            dropout,
        }
    }

    /// Applies the block to the layer input `x` and the attention
    /// sub-layer's output `a`.
    pub fn forward<E: Exec>(&self, f: &mut Fwd<E>, x: &E::Act, a: E::Act) -> E::Act {
        let a = f.exec.dropout(a, self.dropout);
        let res = f.exec.add(a, x);
        let h = self.ln1.forward(f, res);
        let m = self.mlp.forward(f, &h);
        let m = f.exec.dropout(m, self.dropout);
        let res2 = f.exec.add(m, &h);
        f.exec.release(h);
        self.ln2.forward(f, res2)
    }
}

/// One pre-built Transformer encoder layer: vanilla MSM followed by the
/// [`PostBlock`] (TrajCL Eq. 10–11 structure, vanilla-attention variant).
#[derive(Debug, Clone)]
pub struct TransformerEncoderLayer {
    /// The attention sub-layer.
    pub attn: MultiHeadSelfAttention,
    /// The residual / layer-norm / feed-forward block after it.
    pub post: PostBlock,
}

impl TransformerEncoderLayer {
    /// Registers one encoder layer with a `hidden`-wide feed-forward block.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        TransformerEncoderLayer {
            attn: MultiHeadSelfAttention::new(store, &format!("{name}.attn"), dim, heads, rng),
            post: PostBlock::new(store, name, dim, hidden, dropout, rng),
        }
    }

    /// Applies the layer; returns the attention coefficients too when
    /// `want_attn` is set.
    pub fn forward<E: Exec>(
        &self,
        f: &mut Fwd<E>,
        x: &E::Act,
        lens: &[usize],
        want_attn: bool,
    ) -> (E::Act, Option<E::Act>) {
        let (a, attn) = self.attn.forward(f, x, lens, want_attn);
        (self.post.forward(f, x, a), attn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_tensor::{InferCtx, TapeExec};

    #[test]
    fn pe_table_values() {
        let pe = sinusoidal_pe(4, 6);
        // Position 0: sin(0)=0 on even dims, cos(0)=1 on odd dims.
        for j in 0..6 {
            let expect = if j % 2 == 0 { 0.0 } else { 1.0 };
            assert!((pe.at2(0, j) - expect).abs() < 1e-6);
        }
        // All values bounded by 1.
        assert!(pe.data().iter().all(|v| v.abs() <= 1.0 + 1e-6));
        // Different positions differ.
        assert!(pe.row(1) != pe.row(2));
    }

    #[test]
    fn cached_pe_table_is_a_prefix_of_every_longer_one() {
        let cache = PeTable::new(6);
        let short = cache.rows(5);
        assert!(short.shape()[0] >= 5);
        assert_eq!(&short.data()[..5 * 6], sinusoidal_pe(5, 6).data());
        // Growing keeps every earlier row, bit for bit; shrinking never happens.
        let long = cache.rows(40);
        assert_eq!(&long.data()[..40 * 6], sinusoidal_pe(40, 6).data());
        assert!(Arc::ptr_eq(&long, &cache.rows(7)));
        assert!(Arc::ptr_eq(&long, &cache.clone().rows(7)));
    }

    #[test]
    fn attention_rows_sum_to_one_and_ignore_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let msm = MultiHeadSelfAttention::new(&mut store, "a", 8, 2, &mut rng);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let x = f.exec.tape.input(Tensor::randn(
            Shape::d3(2, 4, 8),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(1),
        ));
        let (out, attn) = msm.forward(&mut f, &x, &[2, 4], true);
        assert_eq!(exec.tape.shape(out), Shape::d3(2, 4, 8));
        let a = exec.tape.value(attn.expect("requested coefficients"));
        assert_eq!(a.shape(), Shape::d3(4, 4, 4));
        for bh in 0..4 {
            for q in 0..4 {
                let row: Vec<f32> = (0..4).map(|k| a.at3(bh, q, k)).collect();
                let sum: f32 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "attn row must sum to 1");
                if bh < 2 {
                    // First batch element has length 2: keys 2,3 masked.
                    assert!(row[2] == 0.0 && row[3] == 0.0, "masked keys got weight");
                }
            }
        }
    }

    #[test]
    fn encoder_layer_preserves_shape_and_grads_flow() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = TransformerEncoderLayer::new(&mut store, "enc", 8, 2, 16, 0.1, &mut rng);
        let mut exec = TapeExec::new(&mut rng, true);
        let mut f = Fwd::new(&mut exec, &store);
        let x = f.exec.tape.input(Tensor::randn(
            Shape::d3(2, 3, 8),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(3),
        ));
        let (y, _attn) = layer.forward(&mut f, &x, &[3, 3], false);
        assert_eq!(exec.tape.shape(y), Shape::d3(2, 3, 8));
        let loss = exec.tape.mean_all(y);
        let grads = exec.tape.backward(loss);
        let pairs = grads.into_param_grads(&exec.tape);
        store.accumulate(pairs);
        assert!(
            store.grad_norm() > 0.0,
            "gradients must reach encoder params"
        );
    }

    #[test]
    fn fused_path_matches_coefficient_path() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let msm = MultiHeadSelfAttention::new(&mut store, "a", 8, 2, &mut rng);
        let x = Tensor::randn(Shape::d3(2, 6, 8), 0.0, 1.0, &mut StdRng::seed_from_u64(8));
        let lens = [4usize, 6];
        let mut ctx = InferCtx::new();
        let mut f = Fwd::new(&mut ctx, &store);
        let (fused, none) = msm.forward(&mut f, &x, &lens, false);
        assert!(none.is_none());
        let (via_probs, some) = msm.forward(&mut f, &x, &lens, true);
        assert!(
            fused.approx_eq(&via_probs, 1e-5),
            "fused attention diverged"
        );
        // The coefficients-only entry point is the same coefficients.
        let probs = msm.attention_probs(&mut f, &x, &lens);
        assert!(probs.approx_eq(&some.expect("requested coefficients"), 0.0));
    }
}
