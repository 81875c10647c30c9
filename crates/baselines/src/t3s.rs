//! T3S \[20\]: effective representation learning for trajectory similarity.
//!
//! T3S combines a vanilla LSTM over raw coordinates with vanilla
//! self-attention over grid-cell tokens, blending the two views with a
//! learnable weight λ. Trained supervised against a heuristic measure via
//! pair regression ([`crate::supervised`]).

use crate::common::{TokenFeaturizer, TrajectoryEncoder};
use rand::Rng;
use trajcl_geo::Trajectory;
use trajcl_nn::attention::sinusoidal_pe;
use trajcl_nn::{run_lstm, Embedding, Fwd, Linear, LstmCell, ParamStore, TransformerEncoderLayer};
use trajcl_tensor::{Exec, Tensor};

/// T3S model.
pub struct T3s {
    store: ParamStore,
    cell_emb: Embedding,
    attn: TransformerEncoderLayer,
    coord_proj: Linear,
    lstm: LstmCell,
    lambda: trajcl_nn::ParamId,
    featurizer: TokenFeaturizer,
    dim: usize,
}

impl T3s {
    /// Builds an untrained T3S of width `dim` with `heads` attention heads.
    pub fn new(featurizer: TokenFeaturizer, dim: usize, heads: usize, rng: &mut impl Rng) -> Self {
        let mut store = ParamStore::new();
        let cell_emb = Embedding::new(&mut store, "t3s.cells", featurizer.vocab(), dim, rng);
        let attn =
            TransformerEncoderLayer::new(&mut store, "t3s.attn", dim, heads, dim * 2, 0.1, rng);
        let coord_proj = Linear::new(&mut store, "t3s.coord", 2, dim, rng);
        let lstm = LstmCell::new(&mut store, "t3s.lstm", dim, dim, rng);
        let lambda = store.add("t3s.lambda", Tensor::scalar(0.5));
        T3s {
            store,
            cell_emb,
            attn,
            coord_proj,
            lstm,
            lambda,
            featurizer,
            dim,
        }
    }
}

impl TrajectoryEncoder for T3s {
    fn name(&self) -> &'static str {
        "T3S"
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
        // Attention view over cell tokens.
        let emb = self.cell_emb.forward(f, &batch.cells, batch.lens.len());
        let pe = sinusoidal_pe(batch.seq_len, self.dim);
        let x = f.exec.add_positional(emb, &pe);
        let (attended, _) = self.attn.forward(f, &x, &batch.lens, false);
        f.exec.release(x);
        let attn_pooled = f.exec.mean_pool_masked(&attended, &batch.lens);
        f.exec.release(attended);
        // LSTM view over raw coordinates.
        let coords = f.exec.input(&batch.coords);
        let coord_emb = self.coord_proj.forward(f, &coords);
        f.exec.release(coords);
        let lstm_state = run_lstm(f, &self.lstm, &coord_emb, &batch.lens);
        f.exec.release(coord_emb);
        // Blend: λ·attention + (1-λ)·LSTM.
        let lam = f.p(self.lambda);
        let a_part = f.exec.mul_param(&attn_pooled, lam);
        f.exec.release(attn_pooled);
        let l_scaled = f.exec.mul_param(&lstm_state, lam);
        let l_part = f.exec.sub(lstm_state, &l_scaled); // (1-λ)·state
        f.exec.release(l_scaled);
        let out = f.exec.add(a_part, &l_part);
        f.exec.release(l_part);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervised::train_pair_regression;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::{Bbox, Point};
    use trajcl_measures::HeuristicMeasure;
    use trajcl_nn::PairRegression;
    use trajcl_tensor::Shape;

    fn setup() -> (T3s, Vec<Trajectory>, StdRng) {
        let mut rng = StdRng::seed_from_u64(4);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
        let tf = TokenFeaturizer::new(region, 200.0, 32);
        let model = T3s::new(tf, 16, 2, &mut rng);
        use rand::Rng as _;
        let pool: Vec<Trajectory> = (0..10)
            .map(|_| {
                let y = rng.gen_range(100.0..1900.0);
                (0..12).map(|i| Point::new(i as f64 * 160.0, y)).collect()
            })
            .collect();
        (model, pool, rng)
    }

    #[test]
    fn embeds_and_blends_views() {
        let (model, pool, _) = setup();
        let e = model.embed(&pool[..3]);
        assert_eq!(e.shape(), Shape::d2(3, 16));
        assert!(e.all_finite());
    }

    #[test]
    fn supervised_training_reduces_loss() {
        let (mut model, pool, mut rng) = setup();
        let cfg = PairRegression {
            pairs_per_epoch: 48,
            batch_pairs: 8,
            epochs: 3,
            lr: 2e-3,
        };
        let losses = train_pair_regression(
            &mut model,
            &pool,
            HeuristicMeasure::Hausdorff,
            &cfg,
            &mut rng,
        );
        assert_eq!(losses.len(), 3);
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(
            losses[2] < losses[0],
            "regression loss should drop: {losses:?}"
        );
    }

    #[test]
    fn lambda_is_trainable() {
        let (mut model, pool, mut rng) = setup();
        let before = model.store.value(model.lambda).data()[0];
        let cfg = PairRegression {
            pairs_per_epoch: 32,
            batch_pairs: 8,
            epochs: 2,
            lr: 5e-3,
        };
        train_pair_regression(&mut model, &pool, HeuristicMeasure::Frechet, &cfg, &mut rng);
        let after = model.store.value(model.lambda).data()[0];
        assert_ne!(before, after, "λ should receive updates");
    }
}
