//! Every baseline embeds on the tape-free executor with the bits of its
//! tape forward. Each of the eight is trained a few steps, then one padded
//! batch of ragged lengths (one of them past `max_len`) is encoded on a
//! `TapeExec` and on an `InferCtx` at every dispatch level; all must agree
//! bit for bit. `TrajectoryEncoder::embed` runs one forward per trajectory,
//! so its check is the check of those per-trajectory forwards against the
//! padded batch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_baselines::{
    train_pair_regression, Cstrm, CstrmConfig, E2dtc, E2dtcConfig, Neutraj, T2Vec, T2VecConfig,
    T3s, TokenFeaturizer, Traj2SimVec, TrajGat, TrajectoryEncoder, TrjSr, TrjSrConfig,
};
use trajcl_geo::{Bbox, Point, Trajectory};
use trajcl_measures::HeuristicMeasure;
use trajcl_nn::{Fwd, PairRegression};
use trajcl_tensor::cpu::DispatchLevel;
use trajcl_tensor::{InferCtx, TapeExec, Tensor};

const DIM: usize = 16;

fn region() -> Bbox {
    Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0))
}

fn tokens() -> TokenFeaturizer {
    TokenFeaturizer::new(region(), 200.0, 32)
}

/// Wandering trajectories of `len` points each.
fn trajs(lens: &[usize], rng: &mut StdRng) -> Vec<Trajectory> {
    lens.iter()
        .map(|&len| {
            let (x0, y) = (rng.gen_range(0.0..600.0), rng.gen_range(100.0..1900.0));
            (0..len)
                .map(|i| Point::new(x0 + i as f64 * 90.0, y + rng.gen_range(-60.0..60.0)))
                .collect()
        })
        .collect()
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_executors_agree(model: &impl TrajectoryEncoder, batch: &[Trajectory]) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut exec = TapeExec::new(&mut rng, false);
    let taped = model.encode(&mut Fwd::new(&mut exec, model.store()), batch);
    let taped = exec.tape.value(taped);
    assert_eq!(taped.shape().dims(), [batch.len(), model.dim()]);
    for level in [
        DispatchLevel::Scalar,
        DispatchLevel::Avx2,
        DispatchLevel::Avx512,
    ] {
        let mut ctx = InferCtx::with_level(level);
        let served = model.encode(&mut Fwd::new(&mut ctx, model.store()), batch);
        assert!(
            same_bits(&served, taped),
            "{}: InferCtx at {level:?} differs from the tape",
            model.name()
        );
    }
    assert!(
        same_bits(&model.embed(batch), taped),
        "{}: embed differs from the tape",
        model.name()
    );
}

#[test]
fn every_baseline_embeds_the_bits_of_its_tape_forward() {
    let mut rng = StdRng::seed_from_u64(17);
    let pool = trajs(&[14, 9, 12, 6, 11, 14, 8, 10, 13, 7, 12, 9], &mut rng);
    let mut batch = trajs(&[5, 12, 2, 8, 1, 9], &mut rng);
    // Longer than the token featurizer's `max_len` (32), so `embed`'s
    // one forward per trajectory meets the padded batch across truncation.
    batch.push(
        (0..40)
            .map(|i| Point::new(100.0 + (i % 20) as f64 * 90.0, 300.0 + i as f64 * 35.0))
            .collect(),
    );

    let backbone = T2VecConfig {
        dim: DIM,
        epochs: 1,
        batch_size: 6,
        ..Default::default()
    };
    let mut t2vec = T2Vec::new(tokens(), DIM, &mut rng);
    t2vec.train(&pool, &backbone, &mut rng);
    assert_executors_agree(&t2vec, &batch);

    let mut e2dtc = E2dtc::new(tokens(), DIM, 3, &mut rng);
    let cfg = E2dtcConfig {
        backbone,
        clusters: 3,
        cluster_epochs: 1,
        cluster_weight: 0.1,
    };
    e2dtc.train(&pool, &cfg, &mut rng);
    assert_executors_agree(&e2dtc, &batch);

    let cfg = TrjSrConfig {
        dim: DIM,
        res: 12,
        epochs: 1,
        batch_size: 5,
        ..Default::default()
    };
    let mut trjsr = TrjSr::new(region(), &cfg, &mut rng);
    trjsr.train(&pool, &cfg, &mut rng);
    assert_executors_agree(&trjsr, &batch);

    let cfg = CstrmConfig {
        dim: DIM,
        heads: 2,
        layers: 2,
        epochs: 1,
        batch_size: 6,
        ..Default::default()
    };
    let mut cstrm = Cstrm::new(tokens(), &cfg, &mut rng);
    cstrm.train(&pool, &cfg, &mut rng);
    assert_executors_agree(&cstrm, &batch);

    let pairs = PairRegression {
        pairs_per_epoch: 16,
        batch_pairs: 8,
        epochs: 1,
        lr: 2e-3,
    };
    let measure = HeuristicMeasure::Hausdorff;
    let mut neutraj = Neutraj::new(tokens(), DIM, &mut rng);
    train_pair_regression(&mut neutraj, &pool, measure, &pairs, &mut rng);
    assert_executors_agree(&neutraj, &batch);

    let mut t3s = T3s::new(tokens(), DIM, 2, &mut rng);
    train_pair_regression(&mut t3s, &pool, measure, &pairs, &mut rng);
    assert_executors_agree(&t3s, &batch);

    let mut t2sv = Traj2SimVec::new(tokens(), DIM, &mut rng);
    train_pair_regression(&mut t2sv, &pool, measure, &pairs, &mut rng);
    assert_executors_agree(&t2sv, &batch);

    let mut trajgat = TrajGat::new(tokens(), DIM, 2, 2, &mut rng);
    train_pair_regression(&mut trajgat, &pool, measure, &pairs, &mut rng);
    assert_executors_agree(&trajgat, &batch);
}
