//! The indexed kNN a [`Server`] builds from an engine's description
//! (`Engine::index_options`, `Engine::nprobe`) over the engine's cached
//! table: at a full probe it answers exactly what the engine's exact scan
//! answers, for every storage, and at a partial probe the quantized
//! storages keep the recall of the served f32 index.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_data::{distort, downsample, Dataset, DatasetProfile};
use trajcl_engine::{Engine, IndexOptions, Quantization};
use trajcl_geo::{Grid, SpatialNorm, Trajectory};
use trajcl_serve::{ServeConfig, Server};
use trajcl_tensor::{Shape, Tensor};

/// An untrained TrajCL encoder over the dataset's region — weights are
/// random but deterministic.
fn untrained_trajcl(dataset: &Dataset) -> (TrajClModel, Featurizer) {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = TrajClConfig::test_default();
    let cell_side = dataset.profile.cell_side();
    let grid = Grid::new(dataset.region, cell_side);
    let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
    let feat = Featurizer::new(
        grid,
        table,
        SpatialNorm::new(dataset.region, cell_side),
        cfg.max_len,
    );
    let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
    (model, feat)
}

/// An engine over `database` that describes the index `opts` and a probe
/// of `nprobe` cells.
fn engine(ds: &Dataset, database: &[Trajectory], opts: IndexOptions, nprobe: usize) -> Engine {
    let (model, feat) = untrained_trajcl(ds);
    Engine::builder()
        .trajcl(model, feat)
        .database(database.to_vec())
        .index_options(opts)
        .nprobe(nprobe)
        .build()
        .expect("engine")
}

// Full probe (8 of 8 cells): every storage answers what the engine's
// exact scan answers, ids and distance bits. f32 distances are exact;
// SQ8 (r = 4) and PQ (m = 4, r = 16) hits are rescored against the
// engine's table.
#[test]
fn served_index_matches_the_engines_exact_knn_for_every_storage() {
    let ds = Dataset::generate(DatasetProfile::porto(), 60, 3);
    for (quantization, rescore_factor) in [
        (Quantization::None, 4),
        (Quantization::Sq8, 4),
        (Quantization::Pq { m: 4 }, 16),
    ] {
        let opts = IndexOptions {
            seed: 3,
            quantization,
            rescore_factor,
            ..IndexOptions::default()
        };
        let engine = Arc::new(engine(&ds, &ds.trajectories, opts, 8));
        let cfg = ServeConfig {
            ivf_nlist: Some(8),
            ..ServeConfig::default()
        };
        let server = Server::new(Arc::clone(&engine), cfg).expect("server");
        assert_eq!(server.index().shard(0).options().nlist, Some(8));
        for qi in [0usize, 17, 42] {
            let want: Vec<(u64, u64)> = engine
                .knn(&ds.trajectories[qi], 5)
                .unwrap()
                .into_iter()
                .map(|(id, d)| (u64::from(id), d.to_bits()))
                .collect();
            let got: Vec<(u64, u64)> = server
                .knn(&ds.trajectories[qi], 5)
                .unwrap()
                .into_iter()
                .map(|(id, d)| (id, d.to_bits()))
                .collect();
            assert_eq!(got, want, "{quantization:?}: query {qi}");
        }
        server.shutdown();
    }
}

// The safety net under the three storages: over an engine's own table —
// the unnormalised backbone `h` of the tiny test model, where one shared
// SQ8 scale is coarsest on low-range dimensions — the served SQ8 (r = 4)
// and 4-bit PQ (m = d/4, r = 128) indexes keep recall@10 against the
// served f32 index with the same cells, seed and probe. Queries: half
// distorted or down-sampled database rows, half held out.
#[test]
fn quantized_served_indexes_keep_the_recall_of_the_served_f32_index() {
    let ds = Dataset::generate(DatasetProfile::porto(), 5200, 18);
    let (db, held_out) = ds.trajectories.split_at(5000);
    // Half the cells probed: ~2500 rows scanned per query, about twice
    // PQ's 1280-candidate over-fetch, so its codes really rank.
    let (nlist, nprobe, k) = (16, 8, 10);
    let f32_opts = IndexOptions {
        nlist: Some(nlist),
        seed: 5,
        ..IndexOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(19);
    let mut queries = held_out.to_vec();
    for (i, t) in db.iter().step_by(25).enumerate() {
        queries.push(match i % 2 {
            0 => distort(t, 0.3, 100.0, 0.5, &mut rng),
            _ => downsample(t, 0.3, &mut rng),
        });
    }
    // One database embed: each storage is the same engine re-described.
    let served = |engine: Engine, opts: IndexOptions| {
        let engine = Arc::new(engine.with_index_options(opts));
        let server = Server::new(Arc::clone(&engine), ServeConfig::default()).expect("server");
        assert_eq!(server.stats().index_len, db.len());
        let hits: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| server.knn(q, k).unwrap().iter().map(|h| h.0).collect())
            .collect();
        drop(server);
        let engine = Arc::try_unwrap(engine).ok().expect("the server is gone");
        (engine, hits)
    };
    let (mut engine, truth) = served(engine(&ds, db, f32_opts, nprobe), f32_opts);
    let pq_m = engine.dim() / 4;
    for (quantization, rescore_factor, floor) in [
        (Quantization::Sq8, 4, 0.99),
        (Quantization::Pq { m: pq_m }, 128, 0.95),
    ] {
        let opts = IndexOptions {
            quantization,
            rescore_factor,
            ..f32_opts
        };
        let (back, got) = served(engine, opts);
        engine = back;
        let hits: usize = got
            .iter()
            .zip(&truth)
            .map(|(g, t)| g.iter().filter(|id| t.contains(id)).count())
            .sum();
        let recall = hits as f64 / (k * queries.len()) as f64;
        eprintln!("{quantization:?} r={rescore_factor}: served recall@10 {recall:.4}");
        assert!(
            recall >= floor,
            "{quantization:?}: recall@10 {recall:.4} < {floor}"
        );
    }
}
