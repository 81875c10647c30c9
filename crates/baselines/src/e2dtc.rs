//! E2DTC \[14\]: end-to-end deep trajectory clustering.
//!
//! E2DTC uses a t2vec backbone plus self-training clustering losses. We
//! reproduce that structure: the same seq2seq denoising pre-training as
//! t2vec, followed by epochs that add a *cluster-compactness* auxiliary
//! loss — embeddings are pulled toward their nearest of `k` centroids
//! (re-estimated by k-means between epochs). This is a simplification of
//! the DEC-style KL self-training (documented in DESIGN.md §4); it
//! reproduces the paper's observed behaviour that E2DTC tracks t2vec
//! closely while being slightly worse for pure similarity search (its
//! objective optimises cluster structure, not ranking).

use crate::common::{epoch_mean, TokenFeaturizer, TrajectoryEncoder};
use crate::t2vec::{T2Vec, T2VecConfig};
use rand::Rng;
use trajcl_geo::Trajectory;
use trajcl_nn::{Adam, Fwd, ParamStore};
use trajcl_tensor::{Exec, Shape, TapeExec, Tensor};

/// E2DTC: t2vec backbone + clustering self-training.
pub struct E2dtc {
    backbone: T2Vec,
    centroids: Tensor,
    k: usize,
}

/// E2DTC training configuration.
#[derive(Debug, Clone)]
pub struct E2dtcConfig {
    /// Backbone (t2vec) configuration.
    pub backbone: T2VecConfig,
    /// Number of clusters.
    pub clusters: usize,
    /// Clustering self-training epochs (after backbone pre-training).
    pub cluster_epochs: usize,
    /// Weight of the compactness loss.
    pub cluster_weight: f32,
}

impl Default for E2dtcConfig {
    fn default() -> Self {
        E2dtcConfig {
            backbone: T2VecConfig::default(),
            clusters: 8,
            cluster_epochs: 2,
            cluster_weight: 0.1,
        }
    }
}

impl E2dtc {
    /// Builds an untrained model.
    pub fn new(featurizer: TokenFeaturizer, dim: usize, k: usize, rng: &mut impl Rng) -> Self {
        let backbone = T2Vec::new(featurizer, dim, rng);
        let centroids = Tensor::zeros(Shape::d2(k.max(1), dim));
        E2dtc {
            backbone,
            centroids,
            k: k.max(1),
        }
    }

    /// Current cluster centroids `(k, dim)`.
    pub fn centroids(&self) -> &Tensor {
        &self.centroids
    }

    /// Full training: t2vec pre-training, then clustering self-training.
    pub fn train(
        &mut self,
        pool: &[Trajectory],
        cfg: &E2dtcConfig,
        rng: &mut impl Rng,
    ) -> Vec<f32> {
        let mut losses = self.backbone.train(pool, &cfg.backbone, rng);
        for _ in 0..cfg.cluster_epochs {
            self.update_centroids(pool);
            let mut opt = Adam::new(cfg.backbone.lr * 0.5);
            losses.push(epoch_mean(pool, cfg.backbone.batch_size, 1, |chunk| {
                // Reconstruction step keeps the embedding space anchored...
                let recon = self
                    .backbone
                    .train_step(chunk, &mut opt, &cfg.backbone, rng);
                // ...then the compactness step sharpens cluster structure.
                recon
                    + cfg.cluster_weight
                        * self.compactness_step(chunk, &mut opt, cfg.cluster_weight, rng)
            }));
        }
        losses
    }

    /// K-means (Lloyd) re-estimation of centroids from current embeddings.
    fn update_centroids(&mut self, pool: &[Trajectory]) {
        let emb = self.backbone.embed(pool);
        let d = self.dim();
        let n = emb.shape().rows();
        let k = self.k.min(n);
        // Initialise with distinct random rows.
        let mut centers: Vec<Vec<f32>> = (0..k).map(|i| emb.row(i * n / k).to_vec()).collect();
        for _iter in 0..8 {
            let mut sums = vec![vec![0.0f32; d]; k];
            let mut counts = vec![0usize; k];
            for r in 0..n {
                let row = emb.row(r);
                let c = nearest(&centers, row);
                counts[c] += 1;
                for (s, &v) in sums[c].iter_mut().zip(row) {
                    *s += v;
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for (ctr, s) in centers[c].iter_mut().zip(&sums[c]) {
                        *ctr = s / counts[c] as f32;
                    }
                }
            }
        }
        let mut flat = Vec::with_capacity(k * d);
        for c in centers {
            flat.extend(c);
        }
        self.centroids = Tensor::from_vec(flat, Shape::d2(k, d));
    }

    /// One gradient step on `mean ||z - c(z)||²` with assigned centroids as
    /// constants.
    fn compactness_step(
        &mut self,
        trajs: &[Trajectory],
        opt: &mut Adam,
        weight: f32,
        rng: &mut impl Rng,
    ) -> f32 {
        let d = self.dim();
        // Assignments from the current (constant) embeddings.
        let emb = self.backbone.embed(trajs);
        let centers: Vec<Vec<f32>> = (0..self.centroids.shape().rows())
            .map(|i| self.centroids.row(i).to_vec())
            .collect();
        let mut assigned = Tensor::zeros(Shape::d2(trajs.len(), d));
        for r in 0..trajs.len() {
            let c = nearest(&centers, emb.row(r));
            assigned.data_mut()[r * d..(r + 1) * d].copy_from_slice(&centers[c]);
        }
        let mut exec = TapeExec::new(rng, true);
        let loss_val;
        let pairs = {
            let mut f = Fwd::new(&mut exec, self.backbone.store());
            let z = self.backbone.encode(&mut f, trajs);
            let target = f.exec.tape.input(assigned);
            let diff = f.exec.tape.sub(z, target);
            let sq = f.exec.tape.mul(diff, diff);
            let mse = f.exec.tape.mean_all(sq);
            let loss = f.exec.tape.scale(mse, weight);
            loss_val = f.exec.tape.value(loss).data()[0];
            let grads = f.exec.tape.backward(loss);
            grads.into_param_grads(&f.exec.tape)
        };
        self.backbone.store_mut().accumulate(pairs);
        self.backbone.store_mut().clip_grad_norm(5.0);
        opt.step(self.backbone.store_mut());
        loss_val
    }
}

fn nearest(centers: &[Vec<f32>], row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let d: f32 = center.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

impl TrajectoryEncoder for E2dtc {
    fn name(&self) -> &'static str {
        "E2DTC"
    }

    fn dim(&self) -> usize {
        TrajectoryEncoder::dim(&self.backbone)
    }

    fn store(&self) -> &ParamStore {
        self.backbone.store()
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        self.backbone.store_mut()
    }

    fn encode<E: Exec>(&self, f: &mut Fwd<E>, trajs: &[Trajectory]) -> E::Act {
        self.backbone.encode(f, trajs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::{Bbox, Point};

    fn setup() -> (E2dtc, Vec<Trajectory>, StdRng) {
        let mut rng = StdRng::seed_from_u64(1);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
        let tf = TokenFeaturizer::new(region, 200.0, 32);
        let model = E2dtc::new(tf, 16, 4, &mut rng);
        use rand::Rng as _;
        let pool: Vec<Trajectory> = (0..12)
            .map(|_| {
                let y = rng.gen_range(100.0..1900.0);
                (0..12).map(|i| Point::new(i as f64 * 150.0, y)).collect()
            })
            .collect();
        (model, pool, rng)
    }

    #[test]
    fn trains_and_embeds() {
        let (mut model, pool, mut rng) = setup();
        let cfg = E2dtcConfig {
            backbone: T2VecConfig {
                dim: 16,
                epochs: 1,
                batch_size: 6,
                ..Default::default()
            },
            clusters: 3,
            cluster_epochs: 1,
            cluster_weight: 0.1,
        };
        let losses = model.train(&pool, &cfg, &mut rng);
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|l| l.is_finite()));
        let e = model.embed(&pool[..4]);
        assert_eq!(e.shape(), Shape::d2(4, 16));
        // Centroids were estimated.
        assert!(model.centroids().frobenius_norm() > 0.0);
    }

    #[test]
    fn nearest_assignment_is_correct() {
        let centers = vec![vec![0.0, 0.0], vec![10.0, 10.0]];
        assert_eq!(nearest(&centers, &[1.0, 1.0]), 0);
        assert_eq!(nearest(&centers, &[9.0, 9.5]), 1);
    }
}
