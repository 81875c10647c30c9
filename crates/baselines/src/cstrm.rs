//! CSTRM \[13\]: contrastive self-supervised trajectory representation with
//! a *vanilla* multi-head self-attention encoder over grid-cell tokens.
//!
//! Key differences from TrajCL that the paper's experiments exercise:
//! CSTRM learns cell embeddings end-to-end (no grid-topology pre-training),
//! uses only coarse structural tokens (no spatial four-tuple branch), and
//! augments with point shifting + point masking. Its multi-view hinge loss
//! is replaced here by InfoNCE over in-batch negatives, the closest
//! standard objective (DESIGN.md §4).

use crate::common::{epoch_mean, TokenFeaturizer, TrajectoryEncoder};
use rand::Rng;
use trajcl_data::{AugmentParams, Augmentation};
use trajcl_geo::Trajectory;
use trajcl_nn::attention::sinusoidal_pe;
use trajcl_nn::{Adam, Embedding, Fwd, ParamStore, TransformerEncoderLayer};
use trajcl_tensor::{Exec, TapeExec};

/// CSTRM model.
pub struct Cstrm {
    store: ParamStore,
    cell_emb: Embedding,
    layers: Vec<TransformerEncoderLayer>,
    featurizer: TokenFeaturizer,
    dim: usize,
}

/// CSTRM training configuration.
#[derive(Debug, Clone)]
pub struct CstrmConfig {
    /// Model width.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder layers.
    pub layers: usize,
    /// Epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// InfoNCE temperature.
    pub temperature: f32,
}

impl Default for CstrmConfig {
    fn default() -> Self {
        CstrmConfig {
            dim: 32,
            heads: 4,
            layers: 2,
            epochs: 3,
            batch_size: 16,
            lr: 1e-3,
            temperature: 0.1,
        }
    }
}

impl Cstrm {
    /// Builds an untrained CSTRM. Note the trainable `(vocab, dim)` cell
    /// table — for country-scale grids this is exactly the parameter blow-up
    /// that makes CSTRM run out of memory on Germany in the paper.
    pub fn new(featurizer: TokenFeaturizer, cfg: &CstrmConfig, rng: &mut impl Rng) -> Self {
        let mut store = ParamStore::new();
        let cell_emb = Embedding::new(&mut store, "cstrm.cells", featurizer.vocab(), cfg.dim, rng);
        let layers = (0..cfg.layers)
            .map(|i| {
                TransformerEncoderLayer::new(
                    &mut store,
                    &format!("cstrm.layer{i}"),
                    cfg.dim,
                    cfg.heads,
                    cfg.dim * 2,
                    0.1,
                    rng,
                )
            })
            .collect();
        Cstrm {
            store,
            cell_emb,
            layers,
            featurizer,
            dim: cfg.dim,
        }
    }

    /// Estimated parameter count (used to emulate the Germany OOM check).
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// One contrastive step over two views (shift + mask, CSTRM's
    /// augmentations) with in-batch negatives.
    pub fn train_step(
        &mut self,
        trajs: &[Trajectory],
        opt: &mut Adam,
        cfg: &CstrmConfig,
        rng: &mut impl Rng,
    ) -> f32 {
        let params = AugmentParams::default();
        let v1: Vec<Trajectory> = trajs
            .iter()
            .map(|t| Augmentation::PointShift.apply(t, &params, rng))
            .collect();
        let v2: Vec<Trajectory> = trajs
            .iter()
            .map(|t| Augmentation::PointMask.apply(t, &params, rng))
            .collect();
        let mut exec = TapeExec::new(rng, true);
        let loss_val;
        {
            let mut f = Fwd::new(&mut exec, &self.store);
            let z1 = self.encode(&mut f, &v1);
            let z1 = f.exec.tape.l2_normalize_rows(z1);
            let z2 = self.encode(&mut f, &v2);
            let z2 = f.exec.tape.l2_normalize_rows(z2);
            // In-batch InfoNCE: logits[i][j] = z1_i · z2_j, target = diagonal.
            let logits = f.exec.tape.matmul(z1, z2, false, true);
            let scaled = f.exec.tape.scale(logits, 1.0 / cfg.temperature);
            let targets: Vec<usize> = (0..trajs.len()).collect();
            let loss = f.exec.tape.cross_entropy(scaled, &targets);
            loss_val = f.exec.tape.value(loss).data()[0];
            let grads = f.exec.tape.backward(loss);
            self.store.accumulate(grads.into_param_grads(&f.exec.tape));
        }
        self.store.clip_grad_norm(5.0);
        opt.step(&mut self.store);
        loss_val
    }

    /// Trains for `cfg.epochs`; returns per-epoch mean losses.
    pub fn train(
        &mut self,
        pool: &[Trajectory],
        cfg: &CstrmConfig,
        rng: &mut impl Rng,
    ) -> Vec<f32> {
        let mut opt = Adam::new(cfg.lr);
        (0..cfg.epochs)
            .map(|_| {
                epoch_mean(pool, cfg.batch_size, 2, |chunk| {
                    self.train_step(chunk, &mut opt, cfg, rng)
                })
            })
            .collect()
    }
}

impl TrajectoryEncoder for Cstrm {
    fn name(&self) -> &'static str {
        "CSTRM"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn encode<E: Exec>(&self, f: &mut Fwd<E>, trajs: &[Trajectory]) -> E::Act {
        let batch = self.featurizer.featurize(trajs).expect("non-empty batch");
        let emb = self.cell_emb.forward(f, &batch.cells, batch.lens.len());
        let pe = sinusoidal_pe(batch.seq_len, self.dim);
        let mut x = f.exec.add_positional(emb, &pe);
        for layer in &self.layers {
            let (y, _) = layer.forward(f, &x, &batch.lens, false);
            f.exec.release(std::mem::replace(&mut x, y));
        }
        let pooled = f.exec.mean_pool_masked(&x, &batch.lens);
        f.exec.release(x);
        pooled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::{Bbox, Point};
    use trajcl_tensor::Shape;

    fn setup() -> (Cstrm, Vec<Trajectory>, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
        let tf = TokenFeaturizer::new(region, 200.0, 32);
        let cfg = CstrmConfig {
            dim: 16,
            heads: 2,
            layers: 1,
            ..Default::default()
        };
        let model = Cstrm::new(tf, &cfg, &mut rng);
        use rand::Rng as _;
        let pool: Vec<Trajectory> = (0..12)
            .map(|_| {
                let y = rng.gen_range(100.0..1900.0);
                (0..14).map(|i| Point::new(i as f64 * 140.0, y)).collect()
            })
            .collect();
        (model, pool, rng)
    }

    #[test]
    fn trains_with_finite_loss() {
        let (mut model, pool, mut rng) = setup();
        let cfg = CstrmConfig {
            dim: 16,
            heads: 2,
            layers: 1,
            epochs: 2,
            batch_size: 6,
            ..Default::default()
        };
        let losses = model.train(&pool, &cfg, &mut rng);
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn embedding_shape_and_vocab_scaling() {
        let (model, pool, _) = setup();
        let e = model.embed(&pool[..3]);
        assert_eq!(e.shape(), Shape::d2(3, 16));
        // The trainable cell table dominates parameters for big grids —
        // the Germany-OOM mechanism.
        let table_params = model.featurizer.vocab() * 16;
        assert!(model.num_params() > table_params);
    }
}
