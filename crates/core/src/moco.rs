//! The MoCo-style dual-branch contrastive framework (§III).
//!
//! The online branch (`F`, `P`) is trained by gradient descent on the
//! InfoNCE loss (Eq. 2); the target branch (`F'`, `P'`) follows by momentum
//! (EMA) updates (Eq. 3); a FIFO queue of past target projections enlarges
//! the negative pool.

use crate::config::TrajClConfig;
use crate::encoder::EncoderVariant;
use crate::featurizer::Featurizer;
use crate::model::TrajClModel;
use rand::Rng;
use std::collections::VecDeque;
use trajcl_data::Augmentation;
use trajcl_geo::Trajectory;
use trajcl_nn::{Adam, Fwd, ParamStore};
use trajcl_tensor::{InferCtx, Shape, TapeExec, Tensor};

/// Online model, momentum (target) parameters and the negative queue.
pub struct MocoState {
    /// The online branch (the model that is ultimately kept).
    pub online: TrajClModel,
    target_store: ParamStore,
    /// Scratch the gradient-free target branch runs on.
    target_ctx: InferCtx,
    queue: VecDeque<Vec<f32>>,
    /// Augmentation for view 1 (overridable for the Fig. 8 grid).
    pub aug1: Augmentation,
    /// Augmentation for view 2.
    pub aug2: Augmentation,
}

impl MocoState {
    /// Initialises both branches with identical weights and fills the
    /// negative queue with random unit vectors (standard MoCo warm-start;
    /// real negatives displace them within the first few steps).
    pub fn new(cfg: &TrajClConfig, variant: EncoderVariant, rng: &mut impl Rng) -> Self {
        let online = TrajClModel::new(cfg, variant, rng);
        let target_store = online.store.clone();
        let mut queue = VecDeque::with_capacity(cfg.queue_size);
        for _ in 0..cfg.queue_size {
            let v = Tensor::randn(Shape::d1(cfg.proj_dim), 0.0, 1.0, rng);
            let norm = v.frobenius_norm().max(1e-9);
            queue.push_back(v.data().iter().map(|x| x / norm).collect());
        }
        MocoState {
            online,
            target_store,
            target_ctx: InferCtx::new(),
            queue,
            aug1: cfg.aug1,
            aug2: cfg.aug2,
        }
    }

    /// Current number of stored negatives.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The momentum-branch parameters (exposed for tests).
    pub fn target_store(&self) -> &ParamStore {
        &self.target_store
    }

    fn queue_matrix(&self, proj_dim: usize) -> Tensor {
        let k = self.queue.len();
        let mut data = Vec::with_capacity(k * proj_dim);
        for row in &self.queue {
            data.extend_from_slice(row);
        }
        Tensor::from_vec(data, Shape::d2(k, proj_dim))
    }

    /// One InfoNCE training step on a mini-batch of raw trajectories.
    ///
    /// Generates the two augmented views, runs the target branch without
    /// gradients, computes Eq. 2 on the online branch, applies one
    /// optimizer step, momentum-updates the target branch and rotates the
    /// batch's target projections into the negative queue. Returns the
    /// batch loss.
    pub fn train_step(
        &mut self,
        trajs: &[Trajectory],
        featurizer: &Featurizer,
        opt: &mut Adam,
        rng: &mut impl Rng,
    ) -> f32 {
        let cfg = self.online.cfg.clone();
        let params = cfg.aug_params;
        let view1: Vec<Trajectory> = trajs
            .iter()
            .map(|t| self.aug1.apply(t, &params, rng))
            .collect();
        let view2: Vec<Trajectory> = trajs
            .iter()
            .map(|t| self.aug2.apply(t, &params, rng))
            .collect();
        let batch1 = featurizer
            .featurize(&view1)
            .expect("augmented views stay non-empty");
        let batch2 = featurizer
            .featurize(&view2)
            .expect("augmented views stay non-empty");

        // Target branch: momentum params on the serving executor — no
        // gradients, no dropout, nothing recorded.
        let mut f = Fwd::new(&mut self.target_ctx, &self.target_store);
        let z2 = self.online.forward_z(&mut f, &batch2);

        // Online branch with InfoNCE.
        let mut exec = TapeExec::new(rng, true);
        let z1 = self
            .online
            .forward_z(&mut Fwd::new(&mut exec, &self.online.store), &batch1);
        let tape = &mut exec.tape;
        let z2_const = tape.input(z2.clone());
        let l_pos = tape.row_dot(z1, z2_const);
        let queue_mat = tape.input(self.queue_matrix(cfg.proj_dim));
        let l_neg = tape.matmul(z1, queue_mat, false, true);
        let logits = tape.concat(&[l_pos, l_neg]);
        let scaled = tape.scale(logits, 1.0 / cfg.temperature);
        let targets = vec![0usize; trajs.len()];
        let loss = tape.cross_entropy(scaled, &targets);
        let loss_value = tape.value(loss).data()[0];
        let grads = tape.backward(loss);
        self.online.store.accumulate(grads.into_param_grads(tape));
        self.online.store.clip_grad_norm(5.0);
        opt.step(&mut self.online.store);

        // Momentum update (Eq. 3) and queue rotation.
        self.target_store
            .ema_update_from(&self.online.store, cfg.momentum);
        for r in 0..z2.shape().rows() {
            if self.queue.len() >= cfg.queue_size {
                self.queue.pop_front();
            }
            self.queue.push_back(z2.row(r).to_vec());
        }
        self.target_ctx.recycle(z2);
        loss_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::{Bbox, Grid, Point, SpatialNorm};

    fn setup() -> (MocoState, Featurizer, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TrajClConfig::test_default();
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
        let grid = Grid::new(region, 100.0);
        let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
        let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
        let moco = MocoState::new(&cfg, EncoderVariant::Dual, &mut rng);
        (moco, feat, rng)
    }

    fn trajs(n: usize, rng: &mut StdRng) -> Vec<Trajectory> {
        use rand::Rng as _;
        (0..n)
            .map(|_| {
                let y = rng.gen_range(100.0..1900.0);
                let x0 = rng.gen_range(0.0..500.0);
                (0..20)
                    .map(|i| Point::new(x0 + i as f64 * 60.0, y))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn queue_starts_full_and_rotates() {
        let (mut moco, feat, mut rng) = setup();
        let k = moco.online.cfg.queue_size;
        assert_eq!(moco.queue_len(), k);
        let before = moco.queue_matrix(moco.online.cfg.proj_dim);
        let batch = trajs(4, &mut rng);
        let mut opt = Adam::new(1e-3);
        moco.train_step(&batch, &feat, &mut opt, &mut rng);
        assert_eq!(moco.queue_len(), k, "queue stays at capacity");
        let after = moco.queue_matrix(moco.online.cfg.proj_dim);
        assert!(!before.approx_eq(&after, 1e-9), "queue must rotate");
    }

    #[test]
    fn train_step_returns_finite_loss_and_updates_online() {
        let (mut moco, feat, mut rng) = setup();
        let batch = trajs(6, &mut rng);
        let mut opt = Adam::new(1e-3);
        let w_before = moco
            .online
            .store
            .value(moco.online.store.ids().next().unwrap())
            .clone();
        let loss = moco.train_step(&batch, &feat, &mut opt, &mut rng);
        assert!(loss.is_finite() && loss > 0.0, "loss {loss}");
        let w_after = moco
            .online
            .store
            .value(moco.online.store.ids().next().unwrap());
        assert!(
            !w_before.approx_eq(w_after, 0.0),
            "online weights must move"
        );
    }

    #[test]
    fn target_moves_slower_than_online() {
        let (mut moco, feat, mut rng) = setup();
        let id = moco.online.store.ids().next().unwrap();
        let init = moco.online.store.value(id).clone();
        let mut opt = Adam::new(1e-2);
        for _ in 0..3 {
            let batch = trajs(4, &mut rng);
            moco.train_step(&batch, &feat, &mut opt, &mut rng);
        }
        let online_moved = {
            let mut diff = moco.online.store.value(id).clone();
            diff.add_assign_scaled(&init, -1.0);
            diff.frobenius_norm()
        };
        let target_moved = {
            let mut diff = moco.target_store().value(id).clone();
            diff.add_assign_scaled(&init, -1.0);
            diff.frobenius_norm()
        };
        assert!(
            target_moved < online_moved * 0.8,
            "EMA target ({target_moved}) should lag online ({online_moved})"
        );
        assert!(target_moved > 0.0, "target must still move");
    }

    #[test]
    fn training_learns_to_discriminate_views() {
        // The InfoNCE objective: after training, two views of the SAME
        // trajectory must be closer in projection space than views of
        // different trajectories. (Raw loss values are not monotone early
        // on: the queue starts with easy random negatives and hardens as
        // real embeddings rotate in.)
        let (mut moco, feat, mut rng) = setup();
        let mut opt = Adam::new(2e-3);
        let pool = trajs(24, &mut rng);
        for step in 0..20 {
            let start = (step * 8) % 16;
            let loss = moco.train_step(&pool[start..start + 8], &feat, &mut opt, &mut rng);
            assert!(loss.is_finite(), "loss diverged at step {step}");
        }
        // Evaluate alignment on held-out trajectories.
        let eval = &pool[16..24];
        let params = moco.online.cfg.aug_params;
        let v1: Vec<Trajectory> = eval
            .iter()
            .map(|t| moco.aug1.apply(t, &params, &mut rng))
            .collect();
        let v2: Vec<Trajectory> = eval
            .iter()
            .map(|t| moco.aug2.apply(t, &params, &mut rng))
            .collect();
        let z = |views: &[Trajectory]| -> Tensor {
            let batch = feat.featurize(views).expect("featurize");
            let mut ctx = InferCtx::new();
            moco.online
                .forward_z(&mut Fwd::new(&mut ctx, &moco.online.store), &batch)
        };
        let z1 = z(&v1);
        let z2 = z(&v2);
        let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let mut pos = 0.0;
        let mut neg = 0.0;
        let mut neg_n = 0;
        for i in 0..8 {
            pos += dot(z1.row(i), z2.row(i));
            for j in 0..8 {
                if i != j {
                    neg += dot(z1.row(i), z2.row(j));
                    neg_n += 1;
                }
            }
        }
        let pos_mean = pos / 8.0;
        let neg_mean = neg / neg_n as f32;
        assert!(
            pos_mean > neg_mean,
            "positive pairs should align better: pos {pos_mean} vs neg {neg_mean}"
        );
    }
}
