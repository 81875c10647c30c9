//! Fig. 6 — kNN query response time: TrajCL embeddings + IVF index vs the
//! segment-based Hausdorff index, across database sizes.
//!
//! Expected shape: both grow with |D|; TrajCL/IVF is about two orders of
//! magnitude faster (embedding-space scan + Voronoi probing vs exact
//! quadratic Hausdorff with pruning).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use trajcl_bench::{train_all, ExperimentEnv, Scale, Table};
use trajcl_core::TrajClConfig;
use trajcl_data::{distort, DatasetProfile};
use trajcl_geo::Trajectory;
use trajcl_index::{IvfIndex, Metric, SegmentHausdorffIndex};

fn main() {
    let scale = Scale::from_args();
    let mut cfg = TrajClConfig::scaled_default();
    cfg.dim = 32;
    cfg.max_epochs = 2;
    let profile = DatasetProfile::xian();
    let env = ExperimentEnv::new(profile, &scale, cfg.dim, cfg.max_len, 27);
    eprintln!("[{}] training TrajCL...", profile.name());
    let models = train_all(&env, &cfg, 27);

    let base = &env.splits.test;
    let k = 10;
    let n_queries = scale.n_queries.min(base.len() / 4);
    let queries: Vec<Trajectory> = base[..n_queries].to_vec();
    let sizes = [base.len() / 4, base.len() / 2, base.len()];

    // On a V100 the query-encoding term of the learned route is negligible
    // (0.14 µs/pair amortised); on CPU at reproduction scale it dominates,
    // so encode and index-search phases are reported separately — the
    // |D|-dependent term (search) is what Fig. 6 scales.
    let mut table = Table::new(
        format!("Fig. 6 — {k}NN query costs, {n_queries} queries (Xi'an, ρd=0.2)"),
        &[
            "Hausdorff/segment (s)",
            "TrajCL encode (s)",
            "TrajCL IVF search (s)",
            "search speedup",
        ],
    );
    for &n in &sizes {
        let mut drng = StdRng::seed_from_u64(29);
        let db: Vec<Trajectory> = base[..n]
            .iter()
            .map(|t| distort(t, 0.2, 100.0, 0.5, &mut drng))
            .collect();

        let seg = SegmentHausdorffIndex::build(&db);
        let t0 = Instant::now();
        let _ = seg.batch_knn(&queries, k);
        let seg_time = t0.elapsed().as_secs_f64();

        // The learned route: the engine embeds the database at
        // construction, an IVF index is built over its table, then
        // encode/search per query batch.
        let engine = models
            .trajcl_engine(&env.featurizer, db, 4)
            .expect("engine build");
        let db_emb = engine.embeddings().expect("database embeddings");
        let mut rng = StdRng::seed_from_u64(0);
        let index = IvfIndex::build(db_emb, (n / 32).max(4), Metric::L1, &mut rng);
        let t0 = Instant::now();
        let q_emb = engine.embed_all(&queries).expect("encode queries");
        let encode_time = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = index.batch_search(&q_emb, k, engine.nprobe());
        let search_time = t0.elapsed().as_secs_f64();

        table.row(
            format!("|D|={n}"),
            vec![
                trajcl_bench::fmt_secs(seg_time),
                trajcl_bench::fmt_secs(encode_time),
                format!("{:.5}", search_time),
                format!("{:.0}x", seg_time / search_time.max(1e-9)),
            ],
        );
    }
    table.print();
    table.save_json("fig6");
    println!(
        "paper shape check: the |D|-dependent search term is orders faster than the segment scan \
         and both grow with |D|; query encoding is a fixed cost (GPU-trivial in the paper)."
    );
}
