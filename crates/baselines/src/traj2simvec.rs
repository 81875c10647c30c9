//! Traj2SimVec \[19\]: trajectory similarity learning with auxiliary
//! supervision.
//!
//! The original accelerates NeuTraj training with pair sampling and adds a
//! sub-trajectory auxiliary loss. We reproduce the backbone — an LSTM over
//! raw coordinates trained by pairwise distance regression — and the
//! sampling-based training; the sub-trajectory auxiliary term is omitted
//! (DESIGN.md §4), consistent with its modest reported contribution.

use crate::common::{TokenFeaturizer, TrajectoryEncoder};
use rand::Rng;
use trajcl_geo::Trajectory;
use trajcl_nn::{run_lstm, Fwd, Linear, LstmCell, ParamStore};
use trajcl_tensor::Exec;

/// Traj2SimVec model: coordinate LSTM encoder.
pub struct Traj2SimVec {
    store: ParamStore,
    coord_proj: Linear,
    lstm: LstmCell,
    featurizer: TokenFeaturizer,
    dim: usize,
}

impl Traj2SimVec {
    /// Builds an untrained model of width `dim`.
    pub fn new(featurizer: TokenFeaturizer, dim: usize, rng: &mut impl Rng) -> Self {
        let mut store = ParamStore::new();
        let coord_proj = Linear::new(&mut store, "t2sv.coord", 2, dim, rng);
        let lstm = LstmCell::new(&mut store, "t2sv.lstm", dim, dim, rng);
        Traj2SimVec {
            store,
            coord_proj,
            lstm,
            featurizer,
            dim,
        }
    }
}

impl TrajectoryEncoder for Traj2SimVec {
    fn name(&self) -> &'static str {
        "Traj2SimVec"
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
        let coords = f.exec.input(&batch.coords);
        let emb = self.coord_proj.forward(f, &coords);
        f.exec.release(coords);
        let state = run_lstm(f, &self.lstm, &emb, &batch.lens);
        f.exec.release(emb);
        state
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

    fn setup() -> (Traj2SimVec, Vec<Trajectory>, StdRng) {
        let mut rng = StdRng::seed_from_u64(5);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
        let tf = TokenFeaturizer::new(region, 200.0, 32);
        let model = Traj2SimVec::new(tf, 16, &mut rng);
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
    fn embeds_with_shape() {
        let (model, pool, _) = setup();
        let e = model.embed(&pool[..4]);
        assert_eq!(e.shape(), Shape::d2(4, 16));
    }

    #[test]
    fn training_reduces_loss() {
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
        assert!(losses[2] < losses[0], "loss should drop: {losses:?}");
    }
}
