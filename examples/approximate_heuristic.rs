//! §V-F as a program: fine-tune a pre-trained TrajCL encoder into a fast
//! estimator of the (expensive) EDwP measure with a handful of labelled
//! pairs — via `Engine::approximate_measure` — then compare ranking
//! quality and speed against computing EDwP exactly.
//!
//! ```sh
//! cargo run --release --example approximate_heuristic
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use trajcl::core::{l1_distances, FinetuneConfig, FinetuneScope, TrajClConfig};
use trajcl::data::{hit_ratio, Dataset, DatasetProfile};
use trajcl::engine::Engine;
use trajcl::measures::{pairwise_distances, HeuristicMeasure};
use trajcl::nn::PairRegression;

fn main() {
    let mut rng = StdRng::seed_from_u64(23);
    println!("pre-training TrajCL (self-supervised, no labels)...");
    let dataset = Dataset::generate(DatasetProfile::porto(), 450, 2);
    let splits = dataset.split(120, &mut rng);
    let cfg = TrajClConfig::test_default();
    let engine = Engine::builder()
        .train_trajcl_on(&dataset, &splits.train, &cfg, &mut rng)
        .expect("training")
        .build()
        .expect("engine build");

    // Fine-tune towards EDwP with a small labelled pool (paper: "minimal
    // supervision data").
    let measure = HeuristicMeasure::Edwp;
    let pool = &splits.downstream;
    let split = pool.len() * 7 / 10;
    println!(
        "fine-tuning towards {} on {} trajectories...",
        measure.name(),
        split
    );
    let ft_cfg = FinetuneConfig {
        scope: FinetuneScope::LastLayer,
        train: PairRegression {
            pairs_per_epoch: 96,
            batch_pairs: 16,
            epochs: 3,
            lr: 2e-3,
        },
    };
    let estimator = engine
        .approximate_measure(measure, &pool[..split], &ft_cfg, &mut rng)
        .expect("fine-tuning");

    // Evaluate: HR@5 of the estimator vs the raw pre-trained encoder.
    let eval = &pool[split..];
    let nq = (eval.len() / 4).max(2);
    let (queries, database) = eval.split_at(nq);
    println!(
        "computing exact {} ground truth ({}x{} pairs)...",
        measure.name(),
        nq,
        database.len()
    );
    let t0 = Instant::now();
    let true_d = pairwise_distances(queries, database, measure);
    let exact_time = t0.elapsed();

    let t0 = Instant::now();
    let qe = estimator.embed_all(queries).expect("embed queries");
    let de = estimator.embed_all(database).expect("embed database");
    let pred_tuned = l1_distances(&qe, &de);
    let est_time = t0.elapsed();

    let qr = engine.embed_all(queries).expect("embed queries");
    let dr = engine.embed_all(database).expect("embed database");
    let pred_raw = l1_distances(&qr, &dr);

    let db = database.len();
    let (mut hr_tuned, mut hr_raw) = (0.0, 0.0);
    for q in 0..nq {
        hr_tuned += hit_ratio(
            &true_d[q * db..(q + 1) * db],
            &pred_tuned[q * db..(q + 1) * db],
            5,
        );
        hr_raw += hit_ratio(
            &true_d[q * db..(q + 1) * db],
            &pred_raw[q * db..(q + 1) * db],
            5,
        );
    }
    println!(
        "\nHR@5 approximating {} (backend {:?}):",
        measure.name(),
        estimator.backend().name()
    );
    println!(
        "  pre-trained encoder (no fine-tuning): {:.3}",
        hr_raw / nq as f64
    );
    println!(
        "  fine-tuned estimator:                 {:.3}",
        hr_tuned / nq as f64
    );
    println!(
        "\nwall-clock for the {}x{} similarity matrix: exact {} = {exact_time:?}, estimator = {est_time:?}",
        nq,
        db,
        measure.name()
    );
}
