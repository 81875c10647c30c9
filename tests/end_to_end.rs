//! Cross-crate integration tests: the full pipeline from synthetic data
//! through contrastive training to similarity queries and fine-tuning.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl::core::{
    build_featurizer, finetune, l1_distances, train, EncoderVariant, Featurizer, FinetuneConfig,
    FinetuneScope, MocoState, TrajClConfig,
};
use trajcl::data::{
    downsample, hit_ratio, mean_rank, Dataset, DatasetProfile, QueryProtocol, Splits,
};
use trajcl::index::{IvfIndex, Metric};
use trajcl::measures::HeuristicMeasure;
use trajcl::nn::{PairRegression, ParamStore, StepDecay};

struct Pipeline {
    featurizer: Featurizer,
    splits: Splits,
    moco: MocoState,
    rng: StdRng,
}

/// Trains a tiny TrajCL once for all tests in this file (they share it via
/// `OnceLock` to keep the suite fast).
fn pipeline() -> &'static Pipeline {
    use std::sync::OnceLock;
    static PIPE: OnceLock<Pipeline> = OnceLock::new();
    PIPE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(99);
        let dataset = Dataset::generate(DatasetProfile::porto(), 420, 17);
        let splits = dataset.split(120, &mut rng);
        let cfg = TrajClConfig::test_default();
        let featurizer = build_featurizer(&dataset, cfg.dim, cfg.max_len, &mut rng);
        let mut moco = MocoState::new(&cfg, EncoderVariant::Dual, &mut rng);
        let report = train(
            &mut moco,
            &featurizer,
            &splits.train,
            &StepDecay::trajcl_default(),
            &mut rng,
        );
        assert!(report.epochs_run >= 1);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        Pipeline {
            featurizer,
            splits,
            moco,
            rng,
        }
    })
}

#[test]
fn trained_model_beats_random_ranking() {
    let p = pipeline();
    let mut rng = p.rng.clone();
    let proto = QueryProtocol::build(&p.splits.test, 15, 100, &mut rng);
    let q = p.moco.online.embed(&p.featurizer, &proto.queries);
    let d = p.moco.online.embed(&p.featurizer, &proto.database);
    let mr = mean_rank(
        &l1_distances(&q, &d),
        proto.database.len(),
        &proto.ground_truth,
    );
    // Random ranking would give ~ |D|/2 = 50.
    assert!(
        mr < 10.0,
        "trained TrajCL mean rank {mr} not far from random"
    );
}

#[test]
fn model_is_robust_to_downsampling() {
    let p = pipeline();
    let mut rng = p.rng.clone();
    let proto = QueryProtocol::build(&p.splits.test, 15, 100, &mut rng);
    let mut drng = StdRng::seed_from_u64(5);
    let degraded = proto.degrade(|t| downsample(t, 0.3, &mut drng));
    let q = p.moco.online.embed(&p.featurizer, &degraded.queries);
    let d = p.moco.online.embed(&p.featurizer, &degraded.database);
    let mr = mean_rank(
        &l1_distances(&q, &d),
        degraded.database.len(),
        &degraded.ground_truth,
    );
    assert!(mr < 25.0, "downsampled mean rank {mr} collapsed to random");
}

#[test]
fn embeddings_round_trip_through_serialization() {
    let p = pipeline();
    let trajs = &p.splits.test[..5];
    let before = p.moco.online.embed(&p.featurizer, trajs);

    let bytes = p.moco.online.store.to_bytes();
    let restored = ParamStore::from_bytes(&bytes).expect("valid serialization");
    let mut clone = p.moco.online.clone();
    clone.store.copy_values_from(&restored);
    let after = clone.embed(&p.featurizer, trajs);
    assert!(
        before.approx_eq(&after, 1e-6),
        "serialization changed the model's embeddings"
    );
}

#[test]
fn ivf_index_finds_planted_match() {
    let p = pipeline();
    let mut rng = p.rng.clone();
    let proto = QueryProtocol::build(&p.splits.test, 10, 80, &mut rng);
    let db_emb = p.moco.online.embed(&p.featurizer, &proto.database);
    let index = IvfIndex::build(&db_emb, 8, Metric::L1, &mut rng);
    let q_emb = p.moco.online.embed(&p.featurizer, &proto.queries);
    let mut hits_at_5 = 0;
    for (qi, &gt) in proto.ground_truth.iter().enumerate() {
        let knn = index.search(q_emb.row(qi), 5, index.nlist());
        if knn.iter().any(|(id, _)| *id as usize == gt) {
            hits_at_5 += 1;
        }
    }
    assert!(
        hits_at_5 >= 7,
        "only {hits_at_5}/10 planted matches in top-5 via the IVF index"
    );
}

#[test]
fn finetuning_tracks_hausdorff_better_than_raw() {
    let p = pipeline();
    let mut rng = p.rng.clone();
    let pool = &p.splits.downstream;
    let split = pool.len() * 7 / 10;
    // Budget sized so the regression reliably beats the raw encoder: with
    // very few pairs the comparison degenerates into seed luck.
    let cfg = FinetuneConfig {
        scope: FinetuneScope::AllLayers,
        train: PairRegression {
            pairs_per_epoch: 160,
            batch_pairs: 16,
            epochs: 5,
            lr: 2e-3,
        },
    };
    let measure = HeuristicMeasure::Hausdorff;
    let est = finetune(
        &p.moco.online,
        &p.featurizer,
        &pool[..split],
        measure,
        &cfg,
        &mut rng,
    );

    let eval = &pool[split..];
    let nq = 4.min(eval.len() / 2);
    let (queries, database) = eval.split_at(nq);
    let true_d = trajcl::measures::pairwise_distances(queries, database, measure);

    let qe = est.embed(&p.featurizer, queries);
    let de = est.embed(&p.featurizer, database);
    let tuned = l1_distances(&qe, &de);
    let qr = p.moco.online.embed(&p.featurizer, queries);
    let dr = p.moco.online.embed(&p.featurizer, database);
    let raw = l1_distances(&qr, &dr);

    let db = database.len();
    let (mut hr_t, mut hr_r) = (0.0, 0.0);
    for q in 0..nq {
        hr_t += hit_ratio(
            &true_d[q * db..(q + 1) * db],
            &tuned[q * db..(q + 1) * db],
            5,
        );
        hr_r += hit_ratio(&true_d[q * db..(q + 1) * db], &raw[q * db..(q + 1) * db], 5);
    }
    assert!(
        hr_t >= hr_r - 1e-9,
        "fine-tuning reduced HR@5: tuned {hr_t} vs raw {hr_r}"
    );
}

#[test]
fn ablation_variants_all_train() {
    // The Fig. 7 variants must all be trainable end-to-end.
    let p = pipeline();
    for variant in [EncoderVariant::VanillaMsm, EncoderVariant::Concat] {
        let mut rng = StdRng::seed_from_u64(55);
        let cfg = TrajClConfig::test_default();
        let mut moco = MocoState::new(&cfg, variant, &mut rng);
        let report = train(
            &mut moco,
            &p.featurizer,
            &p.splits.train[..40],
            &StepDecay::trajcl_default(),
            &mut rng,
        );
        assert!(
            report.epoch_losses.iter().all(|l| l.is_finite()),
            "{} diverged",
            variant.name()
        );
    }
}
