//! DualSTB — the dual-feature self-attention-based trajectory backbone
//! encoder (§IV-C), plus the two ablation variants of §V-G.

use crate::dual_attention::DualMsmLayer;
use crate::featurizer::BatchInputs;
use rand::Rng;
use trajcl_geo::SPATIAL_DIM;
use trajcl_nn::attention::{PeTable, TransformerEncoderLayer};
use trajcl_nn::{Fwd, Linear, ParamStore};
use trajcl_tensor::Exec;

/// Encoder architecture variant (Fig. 7 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderVariant {
    /// Full DualSTB with DualMSM fusion (TrajCL).
    Dual,
    /// `TrajCL-MSM`: vanilla Transformer on structural features only.
    VanillaMsm,
    /// `TrajCL-concat`: vanilla Transformer on concatenated
    /// structural ∥ spatial features.
    Concat,
}

impl EncoderVariant {
    /// Display name used in the Fig. 7 ablation output.
    pub fn name(&self) -> &'static str {
        match self {
            EncoderVariant::Dual => "TrajCL",
            EncoderVariant::VanillaMsm => "TrajCL-MSM",
            EncoderVariant::Concat => "TrajCL-concat",
        }
    }
}

/// The trajectory backbone encoder `F : T -> h ∈ R^d`.
///
/// Spatial four-tuples are linearly lifted from `R^4` to the model width so
/// each attention head operates on a non-trivial subspace (the paper keeps
/// `d_s = 4`, which with `h = 4` heads would leave one dimension per head;
/// lifting preserves the architecture while keeping the spatial attention
/// expressive — see DESIGN.md §4).
#[derive(Debug, Clone)]
pub struct DualStbEncoder {
    variant: EncoderVariant,
    spatial_proj: Linear,
    concat_proj: Option<Linear>,
    dual_layers: Vec<DualMsmLayer>,
    vanilla_layers: Vec<TransformerEncoderLayer>,
    dim: usize,
    /// The positional table (Eq. 9), built once and added as a prefix.
    pe: PeTable,
}

impl DualStbEncoder {
    /// Registers an encoder of the given variant. Parameter names are
    /// prefixed `{name}.layer{i}` so fine-tuning can freeze by prefix.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        variant: EncoderVariant,
        dim: usize,
        heads: usize,
        layers: usize,
        ffn_hidden: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let spatial_proj = Linear::new(
            store,
            &format!("{name}.spatial_proj"),
            SPATIAL_DIM,
            dim,
            rng,
        );
        let concat_proj = (variant == EncoderVariant::Concat)
            .then(|| Linear::new(store, &format!("{name}.concat_proj"), 2 * dim, dim, rng));
        let mut dual_layers = Vec::new();
        let mut vanilla_layers = Vec::new();
        for i in 0..layers {
            match variant {
                EncoderVariant::Dual => dual_layers.push(DualMsmLayer::new(
                    store,
                    &format!("{name}.layer{i}"),
                    dim,
                    heads,
                    ffn_hidden,
                    dropout,
                    rng,
                )),
                EncoderVariant::VanillaMsm | EncoderVariant::Concat => {
                    vanilla_layers.push(TransformerEncoderLayer::new(
                        store,
                        &format!("{name}.layer{i}"),
                        dim,
                        heads,
                        ffn_hidden,
                        dropout,
                        rng,
                    ))
                }
            }
        }
        DualStbEncoder {
            variant,
            spatial_proj,
            concat_proj,
            dual_layers,
            vanilla_layers,
            dim,
            pe: PeTable::new(dim),
        }
    }

    /// Output embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The architecture variant.
    pub fn variant(&self) -> EncoderVariant {
        self.variant
    }

    /// Number of encoder layers.
    pub fn num_layers(&self) -> usize {
        self.dual_layers.len().max(self.vanilla_layers.len())
    }

    /// Encodes a featurised batch into `(B, d)` trajectory embeddings
    /// (average-pooled over valid positions) on executor `E`: a tape to
    /// train, an [`InferCtx`](trajcl_tensor::InferCtx) to serve.
    pub fn forward<E: Exec>(&self, f: &mut Fwd<E>, batch: &BatchInputs) -> E::Act {
        let pe = self.pe.rows(batch.seq_len());
        let lens = &batch.lens;
        let t = f.exec.input(&batch.structural);
        let mut t = f.exec.add_positional(t, &pe);
        match self.variant {
            EncoderVariant::Dual => {
                let s = self.lift_spatial(f, batch);
                let mut s = f.exec.add_positional(s, &pe);
                // The last layer's spatial output feeds nothing.
                let last = self.dual_layers.len().saturating_sub(1);
                for (li, layer) in self.dual_layers.iter().enumerate() {
                    let (tn, sn) = layer.forward(f, &t, &s, lens, li < last);
                    f.exec.release(std::mem::replace(&mut t, tn));
                    if let Some(sn) = sn {
                        f.exec.release(std::mem::replace(&mut s, sn));
                    }
                }
                f.exec.release(s);
            }
            EncoderVariant::VanillaMsm => {}
            EncoderVariant::Concat => {
                let s = self.lift_spatial(f, batch);
                let cat = f.exec.concat(&t, &s);
                let proj = self
                    .concat_proj
                    .as_ref()
                    .expect("concat variant has a projection")
                    .forward(f, &cat);
                for tmp in [std::mem::replace(&mut t, proj), s, cat] {
                    f.exec.release(tmp);
                }
                t = f.exec.add_positional(t, &pe);
            }
        }
        for layer in &self.vanilla_layers {
            let (tn, _) = layer.forward(f, &t, lens, false);
            f.exec.release(std::mem::replace(&mut t, tn));
        }
        let out = f.exec.mean_pool_masked(&t, lens);
        f.exec.release(t);
        out
    }

    /// The spatial four-tuples lifted to the model width.
    fn lift_spatial<E: Exec>(&self, f: &mut Fwd<E>, batch: &BatchInputs) -> E::Act {
        let s_raw = f.exec.input(&batch.spatial);
        let s = self.spatial_proj.forward(f, &s_raw);
        f.exec.release(s_raw);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurizer::Featurizer;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
    use trajcl_tensor::{Shape, TapeExec, Tensor};

    fn setup(variant: EncoderVariant) -> (DualStbEncoder, ParamStore, Featurizer, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let grid = Grid::new(region, 100.0);
        let table = Tensor::randn(Shape::d2(grid.num_cells(), 16), 0.0, 0.5, &mut rng);
        let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), 64);
        let mut store = ParamStore::new();
        let enc = DualStbEncoder::new(&mut store, "enc", variant, 16, 2, 2, 32, 0.0, &mut rng);
        (enc, store, feat, rng)
    }

    fn traj(n: usize, y: f64) -> Trajectory {
        (0..n)
            .map(|i| Point::new(30.0 + i as f64 * 35.0, y))
            .collect()
    }

    #[test]
    fn all_variants_produce_embeddings() {
        for variant in [
            EncoderVariant::Dual,
            EncoderVariant::VanillaMsm,
            EncoderVariant::Concat,
        ] {
            let (enc, store, feat, mut rng) = setup(variant);
            let batch = feat
                .featurize(&[traj(5, 100.0), traj(9, 700.0)])
                .expect("featurize");
            let mut exec = TapeExec::new(&mut rng, false);
            let mut f = Fwd::new(&mut exec, &store);
            let h = enc.forward(&mut f, &batch);
            assert_eq!(
                exec.tape.shape(h),
                Shape::d2(2, 16),
                "variant {}",
                variant.name()
            );
            assert!(exec.tape.value(h).all_finite());
        }
    }

    #[test]
    fn padding_invariance() {
        // Same trajectory alone vs padded alongside a longer one must embed
        // identically (masking + masked pooling).
        let (enc, store, feat, mut rng) = setup(EncoderVariant::Dual);
        let a = traj(4, 200.0);
        let long = traj(12, 800.0);
        let solo = feat.featurize(std::slice::from_ref(&a)).expect("featurize");
        let padded = feat.featurize(&[a.clone(), long]).expect("featurize");
        let embed = |batch: &crate::featurizer::BatchInputs, rng: &mut StdRng| -> Vec<f32> {
            let mut exec = TapeExec::new(rng, false);
            let mut f = Fwd::new(&mut exec, &store);
            let h = enc.forward(&mut f, batch);
            exec.tape.value(h).row(0).to_vec()
        };
        let e1 = embed(&solo, &mut rng);
        let e2 = embed(&padded, &mut rng);
        for (x, y) in e1.iter().zip(&e2) {
            assert!(
                (x - y).abs() < 1e-4,
                "padding changed the embedding: {x} vs {y}"
            );
        }
    }

    #[test]
    fn gradients_reach_all_parameters_dual() {
        let (enc, mut store, feat, mut rng) = setup(EncoderVariant::Dual);
        let batch = feat
            .featurize(&[traj(6, 300.0), traj(7, 600.0)])
            .expect("featurize");
        let mut exec = TapeExec::new(&mut rng, true);
        let mut f = Fwd::new(&mut exec, &store);
        let h = enc.forward(&mut f, &batch);
        let loss = exec.tape.mean_all(h);
        let grads = exec.tape.backward(loss);
        store.accumulate(grads.into_param_grads(&exec.tape));
        // The LAST layer's spatial value path (wv/wo/ln/mlp) is
        // architecturally unused: only its attention coefficients A_s feed
        // the fusion (Eq. 15), and its s-output goes nowhere. Everything
        // else must receive gradient.
        let last = enc.num_layers() - 1;
        let dead_prefix = format!("enc.layer{last}.spatial.");
        let expected_dead = |name: &str| {
            name.starts_with(&dead_prefix) && !name.contains("attn.wq") && !name.contains("attn.wk")
        };
        let mut missing = Vec::new();
        for id in store.ids() {
            let name = store.name(id).to_string();
            let zero = store.grad(id).max_abs() == 0.0;
            if zero && !expected_dead(&name) {
                missing.push(name);
            } else if !zero && expected_dead(&name) {
                missing.push(format!("{name} (unexpectedly alive)"));
            }
        }
        assert!(
            missing.is_empty(),
            "parameters with wrong gradient liveness: {missing:?}"
        );
    }

    #[test]
    fn different_trajectories_embed_differently() {
        let (enc, store, feat, mut rng) = setup(EncoderVariant::Dual);
        let batch = feat
            .featurize(&[traj(8, 100.0), traj(8, 900.0)])
            .expect("featurize");
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let h = enc.forward(&mut f, &batch);
        let v = exec.tape.value(h);
        let d: f32 = (0..16).map(|k| (v.at2(0, k) - v.at2(1, k)).abs()).sum();
        assert!(d > 1e-3, "distinct trajectories collapsed to one embedding");
    }
}
