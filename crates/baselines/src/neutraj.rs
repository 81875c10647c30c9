//! NEUTRAJ \[18\]: seed-guided neural metric learning with a spatial memory.
//!
//! The paper omits NEUTRAJ from its tables ("shown to be outperformed by
//! these methods already") but it is the lineage root of the supervised
//! approximators, so we include it as an extension baseline. Architecture:
//! an LSTM over raw coordinates whose per-step input is enriched by a
//! *spatial memory* read — a trainable table indexed by the grid cell of
//! the current point (the published spatial-attention memory reduced to
//! its gather form). Trained by pair regression like its descendants.

use crate::common::{TokenFeaturizer, TrajectoryEncoder};
use rand::Rng;
use trajcl_geo::Trajectory;
use trajcl_nn::{run_lstm, Embedding, Fwd, Linear, LstmCell, ParamStore};
use trajcl_tensor::Exec;

/// NEUTRAJ model.
pub struct Neutraj {
    store: ParamStore,
    coord_proj: Linear,
    memory: Embedding,
    lstm: LstmCell,
    featurizer: TokenFeaturizer,
    dim: usize,
}

impl Neutraj {
    /// Builds an untrained NEUTRAJ of width `dim`.
    pub fn new(featurizer: TokenFeaturizer, dim: usize, rng: &mut impl Rng) -> Self {
        let mut store = ParamStore::new();
        let coord_proj = Linear::new(&mut store, "neutraj.coord", 2, dim, rng);
        let memory = Embedding::new(&mut store, "neutraj.memory", featurizer.vocab(), dim, rng);
        let lstm = LstmCell::new(&mut store, "neutraj.lstm", dim, dim, rng);
        Neutraj {
            store,
            coord_proj,
            memory,
            lstm,
            featurizer,
            dim,
        }
    }
}

impl TrajectoryEncoder for Neutraj {
    fn name(&self) -> &'static str {
        "NEUTRAJ"
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
        let coord_emb = self.coord_proj.forward(f, &coords);
        f.exec.release(coords);
        // Spatial memory read: one gathered vector per point, summed into
        // the coordinate projection.
        let mem = self.memory.forward(f, &batch.cells, batch.lens.len());
        let enriched = f.exec.add(coord_emb, &mem);
        f.exec.release(mem);
        let state = run_lstm(f, &self.lstm, &enriched, &batch.lens);
        f.exec.release(enriched);
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

    fn setup() -> (Neutraj, Vec<Trajectory>, StdRng) {
        let mut rng = StdRng::seed_from_u64(8);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
        let tf = TokenFeaturizer::new(region, 200.0, 32);
        let model = Neutraj::new(tf, 16, &mut rng);
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
    fn embeds_with_memory_contribution() {
        let (model, pool, _) = setup();
        let e = model.embed(&pool[..3]);
        assert_eq!(e.shape(), Shape::d2(3, 16));
        assert!(e.all_finite());
    }

    #[test]
    fn memory_table_receives_gradients() {
        let (mut model, pool, mut rng) = setup();
        let cfg = PairRegression {
            pairs_per_epoch: 16,
            batch_pairs: 8,
            epochs: 1,
            lr: 2e-3,
        };
        train_pair_regression(
            &mut model,
            &pool,
            HeuristicMeasure::Hausdorff,
            &cfg,
            &mut rng,
        );
        // After one epoch the memory table must have moved from init.
        let id = model.store.ids_where(|n| n == "neutraj.memory.table")[0];
        let mut fresh_rng = StdRng::seed_from_u64(8);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
        let fresh = Neutraj::new(TokenFeaturizer::new(region, 200.0, 32), 16, &mut fresh_rng);
        let fresh_id = fresh.store.ids_where(|n| n == "neutraj.memory.table")[0];
        assert!(
            !model
                .store
                .value(id)
                .approx_eq(fresh.store.value(fresh_id), 0.0),
            "spatial memory was never updated"
        );
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
