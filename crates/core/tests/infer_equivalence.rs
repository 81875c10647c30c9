//! Executor equivalence: the one encoder `forward` must compute the same
//! embedding bits on the tape executor and on the serving executor for
//! every encoder variant, and the `InferCtx` scratch arena must never leak
//! state between batches. On the serving executor the agreement is exact: an
//! embedding's bits depend neither on what the trajectory was batched
//! with nor on the CPU dispatch level the kernels ran at.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_nn::Fwd;
use trajcl_tensor::cpu::select;
use trajcl_tensor::{CtxPool, InferCtx, Shape, TapeExec, Tensor};

const VARIANTS: [EncoderVariant; 3] = [
    EncoderVariant::Dual,
    EncoderVariant::VanillaMsm,
    EncoderVariant::Concat,
];

/// One model + featurizer per encoder variant, built once.
fn models() -> &'static Vec<(TrajClModel, Featurizer)> {
    static MODELS: OnceLock<Vec<(TrajClModel, Featurizer)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        VARIANTS
            .iter()
            .map(|&variant| {
                let mut rng = StdRng::seed_from_u64(7);
                let cfg = TrajClConfig::test_default();
                let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
                let grid = Grid::new(region, 100.0);
                let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
                let feat =
                    Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
                let model = TrajClModel::new(&cfg, variant, &mut rng);
                (model, feat)
            })
            .collect()
    })
}

fn traj(n: usize, y: f64) -> Trajectory {
    (0..n)
        .map(|i| Point::new(30.0 + i as f64 * 35.0, y + (i % 3) as f64 * 15.0))
        .collect()
}

fn batch_of(lens: &[usize], y0: f64) -> Vec<Trajectory> {
    lens.iter()
        .enumerate()
        .map(|(i, &n)| traj(n, y0 + i as f64 * 70.0))
        .collect()
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn embedding_bits_do_not_depend_on_the_batch() {
    // The property the ladder's byte-exact oracle relies on: a query
    // embedded alone (how it is served) equals its row in a padded batch
    // (how the oracle embeds its pool).
    let trajs = batch_of(&[5, 13, 2, 9, 13, 7, 11], 90.0);
    for (model, feat) in models() {
        let mut ctx = InferCtx::new();
        let batch = feat.featurize(&trajs).expect("featurize");
        let together = model.infer_h(&mut ctx, &batch);
        for (i, traj) in trajs.iter().enumerate() {
            let solo = feat
                .featurize(std::slice::from_ref(traj))
                .expect("featurize");
            let alone = model.infer_h(&mut ctx, &solo);
            assert_eq!(
                bits(alone.row(0)),
                bits(together.row(i)),
                "{}: trajectory {i} embeds differently alone and in a batch",
                model.encoder.variant().name()
            );
        }
    }
}

#[test]
fn one_forward_per_trajectory_equals_one_padded_batch() {
    // The bulk path (`embed_with`: each trajectory's own unpadded
    // forward, split across the pool lanes) against `infer_h` over all
    // of them padded together, from one point to past `max_len`, where
    // both truncate. Twice on one pool: warm contexts leak nothing.
    let lens = [1, 2, 3, 7, 16, 33, 63, 64, 65, 97, 5, 12];
    let ctxs = CtxPool::new();
    for (model, feat) in models() {
        assert!(lens.iter().any(|&n| n > feat.max_len()));
        let trajs = batch_of(&lens, 40.0);
        let batch = feat.featurize(&trajs).expect("featurize");
        let padded = model.infer_h(&mut InferCtx::new(), &batch);
        for pass in 0..2 {
            let each = model.embed_with(&ctxs, feat, &trajs);
            assert_eq!(
                bits(each.data()),
                bits(padded.data()),
                "{}: pass {pass} differs from the padded batch",
                model.encoder.variant().name()
            );
        }
    }
}

#[test]
fn embedding_bits_do_not_depend_on_the_dispatch_level() {
    // Both dispatch outcomes of this host in one process: the forced
    // scalar level and whatever the CPU supports.
    let trajs = batch_of(&[5, 13, 2, 9, 13, 7, 11], 240.0);
    for (model, feat) in models() {
        let batch = feat.featurize(&trajs).expect("featurize");
        let scalar = model.infer_h(&mut InferCtx::with_level(select(true)), &batch);
        let native = model.infer_h(&mut InferCtx::with_level(select(false)), &batch);
        assert_eq!(
            bits(scalar.data()),
            bits(native.data()),
            "{}: scalar and {:?} kernels disagree",
            model.encoder.variant().name(),
            select(false)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn executors_agree_on_all_variants(
        lens in prop::collection::vec(2usize..14, 1..5),
        y0 in 50.0f64..800.0,
    ) {
        let trajs = batch_of(&lens, y0);
        for (model, feat) in models() {
            let batch = feat.featurize(&trajs).expect("featurize");

            let mut rng = StdRng::seed_from_u64(0);
            let mut exec = TapeExec::new(&mut rng, false);
            let h_tape = model
                .encoder
                .forward(&mut Fwd::new(&mut exec, &model.store), &batch);

            let mut ctx = InferCtx::new();
            let h_infer = model.infer_h(&mut ctx, &batch);

            prop_assert!(
                h_infer.approx_eq(exec.tape.value(h_tape), 0.0),
                "{}: serving executor diverged from tape executor (lens {lens:?})",
                model.encoder.variant().name()
            );
        }
    }

    #[test]
    fn scratch_reuse_across_batches_leaks_nothing(
        lens in prop::collection::vec(2usize..14, 1..5),
        stir in prop::collection::vec(2usize..20, 1..7),
    ) {
        // One shared InferCtx serves several differently-shaped batches;
        // re-embedding the first batch must reproduce identical bytes.
        for (model, feat) in models() {
            let trajs = batch_of(&lens, 120.0);
            let other = batch_of(&stir, 430.0);
            let mut ctx = InferCtx::new();
            let first = model.embed_chunked_with(&mut ctx, feat, &trajs, 64);
            let _ = model.embed_chunked_with(&mut ctx, feat, &other, 64);
            let again = model.embed_chunked_with(&mut ctx, feat, &trajs, 64);
            prop_assert!(
                first.approx_eq(&again, 0.0),
                "{}: recycled scratch buffers changed the embedding",
                model.encoder.variant().name()
            );
        }
    }
}
