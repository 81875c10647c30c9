//! Supervised training for the Table X baselines: regress pairwise
//! heuristic distances in embedding space (the NeuTraj-family objective
//! that Traj2SimVec, T3S and TrajGAT all optimise variants of). The loop is
//! [`trajcl_nn::regress`]'s, the one fine-tuned TrajCL trains with.

use crate::common::TrajectoryEncoder;
use rand::Rng;
use trajcl_geo::Trajectory;
use trajcl_measures::HeuristicMeasure;
use trajcl_nn::{train_pairs, PairRegression};

/// Trains every parameter of `model` to approximate `measure` on `pool`;
/// returns per-epoch mean losses.
///
/// # Panics
/// If `pool` has fewer than two trajectories.
pub fn train_pair_regression<E: TrajectoryEncoder>(
    model: &mut E,
    pool: &[Trajectory],
    measure: HeuristicMeasure,
    cfg: &PairRegression,
    rng: &mut impl Rng,
) -> Vec<f32> {
    let mut store = std::mem::take(model.store_mut());
    let (_, losses) = train_pairs(
        &mut store,
        pool,
        |a, b| measure.distance(a, b),
        |f, batch| model.encode(f, batch),
        |_| true,
        cfg,
        rng,
    );
    *model.store_mut() = store;
    losses
}
