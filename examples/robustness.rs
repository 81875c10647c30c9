//! Robustness demo (the Tables IV/V story): degrade a query workload by
//! down-sampling and distortion and watch how the heuristic measures fall
//! apart while TrajCL keeps finding the planted ground-truth match. TrajCL
//! ranks by L1 between engine embeddings, the heuristics by the exact
//! measure (`pairwise_distances`).
//!
//! ```sh
//! cargo run --release --example robustness
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl::core::{l1_distances, TrajClConfig};
use trajcl::data::{distort, downsample, mean_rank, Dataset, DatasetProfile, QueryProtocol};
use trajcl::engine::Engine;
use trajcl::measures::{pairwise_distances, HeuristicMeasure};

/// Mean rank of the planted matches under the engine's embeddings.
fn engine_mean_rank(engine: &Engine, proto: &QueryProtocol) -> f64 {
    let q = engine.embed_all(&proto.queries).expect("embed queries");
    let d = engine.embed_all(&proto.database).expect("embed database");
    mean_rank(
        &l1_distances(&q, &d),
        proto.database.len(),
        &proto.ground_truth,
    )
}

/// Mean rank of the planted matches under an exact heuristic measure.
fn measure_mean_rank(measure: HeuristicMeasure, proto: &QueryProtocol) -> f64 {
    let dists = pairwise_distances(&proto.queries, &proto.database, measure);
    mean_rank(&dists, proto.database.len(), &proto.ground_truth)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(31);
    println!("training TrajCL on a Porto-like dataset...");
    let dataset = Dataset::generate(DatasetProfile::porto(), 500, 3);
    let splits = dataset.split(150, &mut rng);
    let cfg = TrajClConfig::test_default();
    let trajcl = Engine::builder()
        .train_trajcl_on(&dataset, &splits.train, &cfg, &mut rng)
        .expect("training")
        .build()
        .expect("engine build");

    let base = QueryProtocol::build(&splits.test, 20, 120, &mut rng);
    let mut drng = StdRng::seed_from_u64(32);
    let settings: Vec<(&str, QueryProtocol)> = vec![
        ("clean", base.clone()),
        (
            "down-sampled ρs=0.4",
            base.degrade(|t| downsample(t, 0.4, &mut drng)),
        ),
        (
            "distorted ρd=0.4",
            base.degrade(|t| distort(t, 0.4, 100.0, 0.5, &mut drng)),
        ),
    ];

    println!("\nmean rank of the planted match (1.0 = perfect, db = 120):");
    println!(
        "{:24} {:>10} {:>10} {:>10}",
        "", "Hausdorff", "EDR", "TrajCL"
    );
    for (name, proto) in &settings {
        let h = measure_mean_rank(HeuristicMeasure::Hausdorff, proto);
        let e = measure_mean_rank(HeuristicMeasure::Edr(100.0), proto);
        let t = engine_mean_rank(&trajcl, proto);
        println!("{name:24} {h:>10.2} {e:>10.2} {t:>10.2}");
    }
    println!("\n(the contrastive views — masking & truncation — are exactly what make");
    println!(" TrajCL stable under missing and shifted points; see paper §IV-A)");
}
