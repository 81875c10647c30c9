//! Pair regression: the objective of the paper's Table X (§V-F). Fine-tuned
//! TrajCL and the supervised NeuTraj-family baselines both train through
//! [`train_pairs`], so the two sides of that comparison share one loop.
//!
//! Loss: `(‖e_a − e_b‖₁ − d(a, b)/σ)²` with σ the mean of `d` over a sample
//! of pairs. It matches `ŝ = exp(−‖e_a − e_b‖₁)` to `s = exp(−d/σ)` in
//! log-similarity space, which needs no exp op on the tape and weights near
//! and far pairs evenly; ranking by embedding L1 distance then approximates
//! ranking by `d`.

use crate::{Adam, Fwd, ParamStore};
use rand::Rng;
use trajcl_tensor::{Shape, TapeExec, Tensor, Var};

/// Pair-regression hyper-parameters.
#[derive(Debug, Clone)]
pub struct PairRegression {
    /// Pairs sampled per epoch.
    pub pairs_per_epoch: usize,
    /// Pairs per optimisation step.
    pub batch_pairs: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for PairRegression {
    fn default() -> Self {
        PairRegression {
            pairs_per_epoch: 512,
            batch_pairs: 32,
            epochs: 5,
            lr: 1e-3,
        }
    }
}

/// Two distinct indices below `n`.
fn draw_pair(rng: &mut impl Rng, n: usize) -> (usize, usize) {
    let i = rng.gen_range(0..n);
    let mut j = rng.gen_range(0..n);
    if i == j {
        j = (j + 1) % n;
    }
    (i, j)
}

/// Trains `store` so that `‖encode(a) − encode(b)‖₁` regresses
/// `dist(a, b) / σ` over pairs drawn from `pool`; returns σ and the mean
/// loss of each epoch.
///
/// σ is the mean of `dist` over `min(64, n(n−1)/2)` drawn pairs, floored at
/// 1e-9. Each step encodes its left and right items on a fresh tape
/// (`encode` must read parameters only through its [`Fwd`]), accumulates
/// the gradients, zeroes those of every parameter whose name fails
/// `trainable`, clips the global norm at 5 and takes an Adam step. The RNG
/// is drawn in that order too: the σ sample, then per step its pairs, then
/// the tape's dropout.
///
/// # Panics
/// If `pool` has fewer than two items.
pub fn train_pairs<T: Clone>(
    store: &mut ParamStore,
    pool: &[T],
    mut dist: impl FnMut(&T, &T) -> f64,
    mut encode: impl FnMut(&mut Fwd<TapeExec>, &[T]) -> Var,
    trainable: impl Fn(&str) -> bool,
    cfg: &PairRegression,
    rng: &mut impl Rng,
) -> (f64, Vec<f32>) {
    let n = pool.len();
    assert!(n >= 2, "need at least two items to form pairs");
    let draws = 64.min(n * (n - 1) / 2);
    let mut sum = 0.0;
    for _ in 0..draws {
        let (i, j) = draw_pair(rng, n);
        sum += dist(&pool[i], &pool[j]);
    }
    let sigma = (sum / draws as f64).max(1e-9);

    let mut opt = Adam::new(cfg.lr);
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let (mut total, mut steps) = (0.0, 0);
        let mut remaining = cfg.pairs_per_epoch;
        while remaining > 0 {
            let b = cfg.batch_pairs.min(remaining);
            remaining -= b;
            let mut lefts = Vec::with_capacity(b);
            let mut rights = Vec::with_capacity(b);
            let mut labels = Vec::with_capacity(b);
            for _ in 0..b {
                let (i, j) = draw_pair(rng, n);
                lefts.push(pool[i].clone());
                rights.push(pool[j].clone());
                labels.push((dist(&pool[i], &pool[j]) / sigma) as f32);
            }
            let mut exec = TapeExec::new(rng, true);
            let mut f = Fwd::new(&mut exec, store);
            let ea = encode(&mut f, &lefts);
            let eb = encode(&mut f, &rights);
            let tape = &mut exec.tape;
            let diff = tape.sub(ea, eb);
            let absd = tape.abs_op(diff);
            let ones = tape.input(Tensor::ones(Shape::d2(tape.shape(absd)[1], 1)));
            let l1 = tape.matmul(absd, ones, false, false); // (b, 1)
            let target = tape.input(Tensor::from_vec(labels, Shape::d2(b, 1)));
            let err = tape.sub(l1, target);
            let sq = tape.mul(err, err);
            let loss = tape.mean_all(sq);
            total += tape.value(loss).data()[0];
            steps += 1;
            let grads = tape.backward(loss);
            store.accumulate(grads.into_param_grads(tape));
            store.zero_grads_where_not(&trainable);
            store.clip_grad_norm(5.0);
            opt.step(store);
        }
        losses.push(total / steps.max(1) as f32);
    }
    (sigma, losses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sigma_is_the_mean_of_min_64_or_all_pairs_distances() {
        for n in [2usize, 3, 8, 12, 40] {
            let pool: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
            let mut calls = Vec::new();
            let cfg = PairRegression {
                epochs: 0,
                ..PairRegression::default()
            };
            let (sigma, losses) = train_pairs(
                &mut ParamStore::new(),
                &pool,
                |a, b| {
                    calls.push((a - b).abs());
                    (a - b).abs()
                },
                |_, _| unreachable!("no epoch encodes"),
                |_| true,
                &cfg,
                &mut StdRng::seed_from_u64(n as u64),
            );
            assert!(losses.is_empty());
            assert_eq!(calls.len(), 64.min(n * (n - 1) / 2), "n = {n}");
            let mean = calls.iter().sum::<f64>() / calls.len() as f64;
            assert_eq!(sigma, mean.max(1e-9), "n = {n}");
        }
        // Identical items: every distance is 0, so σ takes its floor.
        let (sigma, _) = train_pairs(
            &mut ParamStore::new(),
            &[1.0f64, 1.0],
            |a, b| (a - b).abs(),
            |_, _| unreachable!("no epoch encodes"),
            |_| true,
            &PairRegression {
                epochs: 0,
                ..PairRegression::default()
            },
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(sigma, 1e-9);
    }

    #[test]
    fn only_trainable_parameters_move() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let first = Linear::new(&mut store, "free", 1, 4, &mut rng);
        let second = Linear::new(&mut store, "frozen", 4, 4, &mut rng);
        let before = store.clone();
        let pool: Vec<f32> = (0..10).map(|i| i as f32 * 0.3).collect();
        let cfg = PairRegression {
            pairs_per_epoch: 16,
            batch_pairs: 4,
            epochs: 2,
            lr: 1e-2,
        };
        let (_, losses) = train_pairs(
            &mut store,
            &pool,
            |a, b| f64::from((a - b).abs()),
            |f, xs| {
                let x = f
                    .exec
                    .tape
                    .input(Tensor::from_vec(xs.to_vec(), Shape::d2(xs.len(), 1)));
                let h = first.forward(f, &x);
                second.forward(f, &h)
            },
            |name| name.starts_with("free"),
            &cfg,
            &mut rng,
        );
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|l| l.is_finite()));
        let mut moved = false;
        for id in store.ids() {
            let (name, after) = (store.name(id), store.value(id));
            if name.starts_with("frozen") {
                assert_eq!(after.data(), before.value(id).data(), "{name} moved");
            } else {
                moved |= after.data() != before.value(id).data();
            }
        }
        assert!(moved, "no trainable parameter moved");
    }
}
