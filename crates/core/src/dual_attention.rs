//! DualMSM — the dual-feature multi-head self-attention module (§IV-C).
//!
//! Per encoder layer:
//! 1. the **spatial branch** runs a full vanilla-MSM encoder sub-layer over
//!    the (projected) spatial features, producing updated spatial states
//!    and the spatial attention coefficients `A_s`;
//! 2. the **structural branch** computes its own attention coefficients
//!    `A_t` from the structural features (Eq. 12);
//! 3. the two are fused per head with the learnable weight γ:
//!    `C_ts = (A_t + γ·A_s)·V_t` (Eq. 15, one [`Exec::attention`] op),
//!    concatenated across heads and linearly transformed;
//! 4. the result goes through the residual + layer-norm + MLP post-block of
//!    Eqs. 10–11.

use rand::Rng;
use trajcl_nn::attention::{MultiHeadSelfAttention, PostBlock, TransformerEncoderLayer};
use trajcl_nn::{Fwd, ParamId, ParamStore};
use trajcl_tensor::{Exec, Tensor};

/// One DualSTB encoder layer built around DualMSM.
#[derive(Debug, Clone)]
pub struct DualMsmLayer {
    /// The structural attention (`wq_t`, `wk_t`, `wv_t`, `wo_t`).
    structural: MultiHeadSelfAttention,
    /// The learnable fusion weight γ of Eq. 15.
    pub gamma: ParamId,
    spatial: TransformerEncoderLayer,
    post: PostBlock,
}

impl DualMsmLayer {
    /// Registers one layer of width `dim` with `heads` heads and an
    /// `ffn_hidden`-wide feed-forward block.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        ffn_hidden: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let suffixes = ["wq_t", "wk_t", "wv_t", "wo_t"];
        let structural =
            MultiHeadSelfAttention::with_suffixes(store, name, suffixes, dim, heads, rng);
        // γ starts at 1 so both attention families contribute from step one.
        let gamma = store.add(format!("{name}.gamma"), Tensor::scalar(1.0));
        let spatial = format!("{name}.spatial");
        let spatial =
            TransformerEncoderLayer::new(store, &spatial, dim, heads, ffn_hidden, dropout, rng);
        DualMsmLayer {
            structural,
            gamma,
            spatial,
            post: PostBlock::new(store, name, dim, ffn_hidden, dropout, rng),
        }
    }

    /// Applies the layer to structural states `t` and spatial states `s`
    /// (both `(B, L, dim)`, valid lengths `lens`); returns the updated
    /// pair.
    ///
    /// When `need_spatial_out` is false (the encoder's last layer, whose
    /// spatial output feeds nothing — only `A_s` enters the fusion, Eq.
    /// 15), the spatial branch computes just its attention coefficients
    /// and the whole spatial value path (V/output projections, residual
    /// MLP block) is skipped; `None` is returned in its place.
    pub fn forward<E: Exec>(
        &self,
        f: &mut Fwd<E>,
        t: &E::Act,
        s: &E::Act,
        lens: &[usize],
        need_spatial_out: bool,
    ) -> (E::Act, Option<E::Act>) {
        // Spatial branch: vanilla encoder sub-layer; its attention matrix is
        // the A_s of the (stacked) spatial MSM.
        let (s_out, a_s) = if need_spatial_out {
            let (s_out, a_s) = self.spatial.forward(f, s, lens, true);
            (
                Some(s_out),
                a_s.expect("spatial branch computes coefficients"),
            )
        } else {
            (None, self.spatial.attn.attention_probs(f, s, lens))
        };

        // Structural attention A_t (Eq. 12), its fusion with γ·A_s and the
        // value multiply, C_ts = (A_t + γ A_s) V_t per head (Eq. 15), as
        // one executor op — serving never materialises A_t.
        let cts = self.structural.fused(f, t, lens, Some((&a_s, self.gamma)));
        f.exec.release(a_s);

        // Post-block (Eqs. 10–11).
        (self.post.forward(f, t, cts), s_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_tensor::{Shape, TapeExec};

    fn layer_and_store(dim: usize, heads: usize) -> (DualMsmLayer, ParamStore, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = DualMsmLayer::new(&mut store, "dual", dim, heads, dim * 2, 0.0, &mut rng);
        (layer, store, rng)
    }

    fn randn(shape: Shape, seed: u64) -> Tensor {
        Tensor::randn(shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn forward_shapes() {
        let (layer, store, mut rng) = layer_and_store(8, 2);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let t = f.exec.tape.input(randn(Shape::d3(2, 5, 8), 1));
        let s = f.exec.tape.input(randn(Shape::d3(2, 5, 8), 2));
        let (t2, s2) = layer.forward(&mut f, &t, &s, &[5, 5], true);
        assert_eq!(exec.tape.shape(t2), Shape::d3(2, 5, 8));
        assert_eq!(exec.tape.shape(s2.expect("asked for")), Shape::d3(2, 5, 8));
    }

    #[test]
    fn gamma_receives_gradient() {
        let (layer, mut store, mut rng) = layer_and_store(8, 2);
        let mut exec = TapeExec::new(&mut rng, true);
        let mut f = Fwd::new(&mut exec, &store);
        let t = f.exec.tape.input(randn(Shape::d3(2, 4, 8), 3));
        let s = f.exec.tape.input(randn(Shape::d3(2, 4, 8), 4));
        let (t2, _) = layer.forward(&mut f, &t, &s, &[4, 4], true);
        let loss = exec.tape.mean_all(t2);
        let grads = exec.tape.backward(loss);
        store.accumulate(grads.into_param_grads(&exec.tape));
        let g = store.grad(layer.gamma);
        assert!(g.data()[0].abs() > 0.0, "γ must be trained");
    }

    /// Structural output of the layer on the tape executor.
    fn run(
        layer: &DualMsmLayer,
        store: &ParamStore,
        (tv, sv): (&Tensor, &Tensor),
        lens: &[usize],
        need_spatial_out: bool,
    ) -> Tensor {
        let mut rng = StdRng::seed_from_u64(0);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, store);
        let (t, s) = (f.exec.tape.input(tv.clone()), f.exec.tape.input(sv.clone()));
        let (t2, _) = layer.forward(&mut f, &t, &s, lens, need_spatial_out);
        exec.tape.value(t2).clone()
    }

    #[test]
    fn spatial_features_change_the_output() {
        // With different spatial inputs (same structural), outputs differ:
        // proof that A_s enters the fusion.
        let (layer, store, _) = layer_and_store(8, 2);
        let t_val = randn(Shape::d3(1, 4, 8), 5);
        let o1 = run(
            &layer,
            &store,
            (&t_val, &randn(Shape::d3(1, 4, 8), 6)),
            &[4],
            true,
        );
        let o2 = run(
            &layer,
            &store,
            (&t_val, &randn(Shape::d3(1, 4, 8), 7)),
            &[4],
            true,
        );
        assert!(
            !o1.approx_eq(&o2, 1e-5),
            "spatial branch must influence output"
        );
    }

    #[test]
    fn skipping_the_spatial_value_path_leaves_the_structural_output_alone() {
        let (layer, store, _) = layer_and_store(8, 2);
        let (tv, sv) = (randn(Shape::d3(2, 4, 8), 10), randn(Shape::d3(2, 4, 8), 11));
        let lens = [2usize, 4];
        let full = run(&layer, &store, (&tv, &sv), &lens, true);
        let elided = run(&layer, &store, (&tv, &sv), &lens, false);
        assert!(full.approx_eq(&elided, 0.0), "tape executor");

        let mut ctx = trajcl_tensor::InferCtx::new();
        let mut f = Fwd::new(&mut ctx, &store);
        let (full, s_out) = layer.forward(&mut f, &tv, &sv, &lens, true);
        let (elided, none) = layer.forward(&mut f, &tv, &sv, &lens, false);
        assert!(s_out.is_some() && none.is_none());
        assert!(full.approx_eq(&elided, 0.0), "serving executor");
    }

    #[test]
    fn masked_positions_do_not_influence_valid_ones() {
        // Change padding content; valid outputs must stay identical.
        let (layer, store, _) = layer_and_store(8, 2);
        let base_t = randn(Shape::d3(1, 4, 8), 8);
        let base_s = randn(Shape::d3(1, 4, 8), 9);
        let mut poisoned_t = base_t.clone();
        let mut poisoned_s = base_s.clone();
        for t in 2..4 {
            for k in 0..8 {
                poisoned_t.data_mut()[(t) * 8 + k] = 99.0;
                poisoned_s.data_mut()[(t) * 8 + k] = -55.0;
            }
        }
        let clean = run(&layer, &store, (&base_t, &base_s), &[2], true);
        let dirty = run(&layer, &store, (&poisoned_t, &poisoned_s), &[2], true);
        for t in 0..2 {
            for k in 0..8 {
                let (a, b) = (clean.at3(0, t, k), dirty.at3(0, t, k));
                assert!(
                    (a - b).abs() < 1e-4,
                    "padding leaked into valid position {t}: {a} vs {b}"
                );
            }
        }
    }
}
