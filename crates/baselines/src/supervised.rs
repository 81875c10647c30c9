//! Shared supervised training for the Table X baselines: regress pairwise
//! heuristic distances in embedding space (the NeuTraj-family objective
//! that Traj2SimVec, T3S and TrajGAT all optimise variants of).
//!
//! Loss: `(‖e_a − e_b‖₁ − d_heuristic/σ)²` with σ the mean heuristic
//! distance, so ranking by embedding L1 distance approximates ranking by
//! the heuristic.

use crate::common::TrajectoryEncoder;
use rand::Rng;
use trajcl_geo::Trajectory;
use trajcl_measures::HeuristicMeasure;
use trajcl_nn::{Adam, Fwd};
use trajcl_tensor::{Shape, TapeExec, Tensor};

/// Supervised pair-regression hyper-parameters.
#[derive(Debug, Clone)]
pub struct SupervisedConfig {
    /// Pairs sampled per epoch.
    pub pairs_per_epoch: usize,
    /// Pairs per optimisation step.
    pub batch_pairs: usize,
    /// Epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
}

impl Default for SupervisedConfig {
    fn default() -> Self {
        SupervisedConfig {
            pairs_per_epoch: 256,
            batch_pairs: 16,
            epochs: 4,
            lr: 1e-3,
        }
    }
}

/// Trains `model` to approximate `measure` on `pool`; returns per-epoch
/// mean losses.
pub fn train_pair_regression<E: TrajectoryEncoder>(
    model: &mut E,
    pool: &[Trajectory],
    measure: HeuristicMeasure,
    cfg: &SupervisedConfig,
    rng: &mut impl Rng,
) -> Vec<f32> {
    assert!(pool.len() >= 2, "need at least two trajectories");
    // σ calibration.
    let mut sample = Vec::new();
    for _ in 0..64.min(pool.len() * 2) {
        let i = rng.gen_range(0..pool.len());
        let mut j = rng.gen_range(0..pool.len());
        if i == j {
            j = (j + 1) % pool.len();
        }
        sample.push(measure.distance(&pool[i], &pool[j]));
    }
    let sigma = (sample.iter().sum::<f64>() / sample.len().max(1) as f64).max(1e-9);

    let mut opt = Adam::new(cfg.lr);
    let d = model.dim();
    let mut losses = Vec::new();
    for _ in 0..cfg.epochs {
        let mut total = 0.0;
        let mut steps = 0;
        let mut remaining = cfg.pairs_per_epoch;
        while remaining > 0 {
            let n = cfg.batch_pairs.min(remaining);
            remaining -= n;
            let mut lefts = Vec::with_capacity(n);
            let mut rights = Vec::with_capacity(n);
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                let i = rng.gen_range(0..pool.len());
                let mut j = rng.gen_range(0..pool.len());
                if i == j {
                    j = (j + 1) % pool.len();
                }
                lefts.push(pool[i].clone());
                rights.push(pool[j].clone());
                labels.push((measure.distance(&pool[i], &pool[j]) / sigma) as f32);
            }
            let mut exec = TapeExec::new(rng, true);
            let pairs = {
                let mut f = Fwd::new(&mut exec, model.store());
                let ea = model.encode_on_tape(&mut f, &lefts);
                let eb = model.encode_on_tape(&mut f, &rights);
                let diff = f.exec.tape.sub(ea, eb);
                let absd = f.exec.tape.abs_op(diff);
                let ones = f.exec.tape.input(Tensor::ones(Shape::d2(d, 1)));
                let l1 = f.exec.tape.matmul(absd, ones, false, false);
                let target = f.exec.tape.input(Tensor::from_vec(labels, Shape::d2(n, 1)));
                let err = f.exec.tape.sub(l1, target);
                let sq = f.exec.tape.mul(err, err);
                let loss = f.exec.tape.mean_all(sq);
                total += f.exec.tape.value(loss).data()[0];
                steps += 1;
                let grads = f.exec.tape.backward(loss);
                grads.into_param_grads(&f.exec.tape)
            };
            model.store_mut().accumulate(pairs);
            model.store_mut().clip_grad_norm(5.0);
            opt.step(model.store_mut());
        }
        losses.push(total / steps.max(1) as f32);
    }
    losses
}
