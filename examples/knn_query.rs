//! The Fig. 1 scenario: k-nearest-neighbour trajectory queries, comparing
//! the heuristic Hausdorff measure (an exact scan with
//! `pairwise_distances`, cross-checked against the segment-based
//! Hausdorff index) with learned TrajCL embeddings served from an IVF
//! index by `trajcl::serve::Server`.
//!
//! ```sh
//! cargo run --release --example knn_query
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use trajcl::core::TrajClConfig;
use trajcl::data::{Dataset, DatasetProfile};
use trajcl::engine::{Engine, IndexOptions};
use trajcl::index::SegmentHausdorffIndex;
use trajcl::measures::{pairwise_distances, HeuristicMeasure};
use trajcl::serve::{ServeConfig, Server};

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    println!("preparing data + model...");
    let dataset = Dataset::generate(DatasetProfile::porto(), 500, 1);
    let splits = dataset.split(150, &mut rng);
    let cfg = TrajClConfig::test_default();

    let db = splits.test.clone();
    let query = &splits.downstream[0];
    let k = 3;

    // Heuristic route: the exact measure against every database entry,
    // plus the segment index as the specialised accelerator for it.
    let t0 = Instant::now();
    let dists = pairwise_distances(
        std::slice::from_ref(query),
        &db,
        HeuristicMeasure::Hausdorff,
    );
    let mut hausdorff_knn: Vec<(u32, f64)> = (0u32..).zip(dists).collect();
    hausdorff_knn.sort_by(|a, b| a.1.total_cmp(&b.1));
    hausdorff_knn.truncate(k);
    let heur_query = t0.elapsed();
    let t0 = Instant::now();
    let seg_index = SegmentHausdorffIndex::build(&db);
    let seg_build = t0.elapsed();
    let t0 = Instant::now();
    let seg_knn = seg_index.knn(query, k);
    let seg_query = t0.elapsed();

    // Learned route: train TrajCL and embed the database once (one
    // builder chain), then serve kNN from the IVF index the server builds
    // from the engine's description.
    let t0 = Instant::now();
    let trajcl_engine = Engine::builder()
        .train_trajcl_on(&dataset, &splits.train, &cfg, &mut rng)
        .expect("training")
        .database(db.clone())
        .index_options(IndexOptions {
            nlist: Some(16),
            ..IndexOptions::default()
        })
        .nprobe(4)
        .build()
        .expect("trajcl engine");
    let server = Server::new(Arc::new(trajcl_engine), ServeConfig::default()).expect("server");
    let ivf_build = t0.elapsed();
    let t0 = Instant::now();
    let trajcl_knn = server.knn(query, k).expect("trajcl knn");
    let ivf_query = t0.elapsed();

    println!(
        "\nquery trajectory: {} points, {:.1} km",
        query.len(),
        query.length() / 1000.0
    );
    println!("\n{k}NN via an exact Hausdorff scan (query {heur_query:?}):");
    for (rank, (id, d)) in hausdorff_knn.iter().enumerate() {
        let t = &db[*id as usize];
        println!(
            "  #{} db[{id}] dist={d:.0} m   ({} pts, {:.1} km)",
            rank + 1,
            t.len(),
            t.length() / 1000.0
        );
    }
    println!(
        "(segment-index reference: build {seg_build:?}, query {seg_query:?}, same ids: {})",
        seg_knn
            .iter()
            .map(|(i, _)| *i)
            .eq(hausdorff_knn.iter().map(|(i, _)| *i))
    );
    println!("\n{k}NN via TrajCL engine + IVF (train+build {ivf_build:?}, query {ivf_query:?}):");
    for (rank, (id, d)) in trajcl_knn.iter().enumerate() {
        let t = &db[*id as usize];
        println!(
            "  #{} db[{id}] L1={d:.3}       ({} pts, {:.1} km)",
            rank + 1,
            t.len(),
            t.length() / 1000.0
        );
    }
    let overlap = trajcl_knn
        .iter()
        .filter(|(i, _)| hausdorff_knn.iter().any(|(j, _)| *i == u64::from(*j)))
        .count();
    println!("\nresult overlap between the two measures: {overlap}/{k}");
    println!("(embedding kNN answers from the compact index; Hausdorff re-reads full geometry)");
}
