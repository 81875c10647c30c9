//! Integration tests for the unified engine: builder flows, kNN routing,
//! heuristic fallback, fine-tuning, and whole-engine persistence.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_core::{
    EncoderVariant, Featurizer, FinetuneConfig, FinetuneScope, TrajClConfig, TrajClModel,
};
use trajcl_data::{distort, downsample, Dataset, DatasetProfile};
use trajcl_engine::{
    Engine, EngineBuilder, EngineError, HeuristicBackend, IndexOptions, Quantization,
    SimilarityBackend,
};
use trajcl_geo::{Grid, SpatialNorm, Trajectory};
use trajcl_index::{IvfIndex, Metric};
use trajcl_measures::HeuristicMeasure;
use trajcl_tensor::{Shape, Tensor};

/// An untrained TrajCL backend over the dataset's region — weights are
/// random but deterministic, which is all routing/persistence tests need.
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

/// An index description with `nlist` cells and defaults elsewhere.
fn ivf(nlist: usize) -> IndexOptions {
    IndexOptions {
        nlist: Some(nlist),
        ..IndexOptions::default()
    }
}

fn dataset(n: usize, seed: u64) -> Dataset {
    Dataset::generate(DatasetProfile::porto(), n, seed)
}

#[test]
fn builder_requires_a_backend() {
    let err = EngineBuilder::new()
        .build()
        .err()
        .expect("no backend must fail");
    assert!(matches!(err, EngineError::InvalidInput(_)));
}

#[test]
fn boxed_dyn_backend_flows_through_builder() {
    // The acceptance criterion in one test: Box<dyn SimilarityBackend>
    // compiles and drives an Engine.
    let ds = dataset(20, 1);
    let backend: Box<dyn SimilarityBackend> =
        Box::new(HeuristicBackend::new(HeuristicMeasure::Dtw));
    let engine = Engine::builder()
        .backend(backend)
        .database(ds.trajectories.clone())
        .build()
        .unwrap();
    assert_eq!(engine.backend().name(), "DTW");
    assert_eq!(engine.backend().dim(), 0);
    let hits = engine.knn(&ds.trajectories[3], 4).unwrap();
    assert_eq!(
        hits[0].0, 3,
        "self-query returns itself under an exact measure"
    );
    assert_eq!(hits.len(), 4);
}

#[test]
fn heuristic_engine_matches_direct_measure_ranking() {
    let ds = dataset(25, 2);
    let engine = Engine::builder()
        .heuristic(HeuristicMeasure::Hausdorff)
        .database(ds.trajectories.clone())
        .build()
        .unwrap();
    let q = &ds.trajectories[0];
    let hits = engine.knn(q, 5).unwrap();
    let mut exact: Vec<(u32, f64)> = ds
        .trajectories
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, HeuristicMeasure::Hausdorff.distance(q, t)))
        .collect();
    exact.sort_by(|a, b| a.1.total_cmp(&b.1));
    exact.truncate(5);
    assert_eq!(hits, exact);
}

#[test]
fn indexed_and_brute_force_routes_agree_at_full_probe() {
    let ds = dataset(60, 3);
    let (model, feat) = untrained_trajcl(&ds);
    let brute = Engine::builder()
        .trajcl(model.clone(), feat.clone())
        .database(ds.trajectories.clone())
        .build()
        .unwrap();
    let indexed = Engine::builder()
        .trajcl(model, feat)
        .database(ds.trajectories.clone())
        .index_options(ivf(8))
        .nprobe(8) // full probe -> exact
        .build()
        .unwrap();
    assert!(brute.index().is_none() && indexed.index().is_some());
    for qi in [0usize, 17, 42] {
        let a = brute.knn(&ds.trajectories[qi], 5).unwrap();
        let b = indexed.knn(&ds.trajectories[qi], 5).unwrap();
        assert_eq!(
            a.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            b.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            "routes disagree on query {qi}"
        );
    }
}

#[test]
fn quantized_index_route_matches_brute_force_and_persists() {
    // SQ8 storage with exact rescoring: at full probe the quantized route
    // must return the same ids AND the same (exact, rescored) distances
    // as the brute-force route, in a 4x-smaller index.
    let ds = dataset(60, 15);
    let (model, feat) = untrained_trajcl(&ds);
    let brute = Engine::builder()
        .trajcl(model.clone(), feat.clone())
        .database(ds.trajectories.clone())
        .build()
        .unwrap();
    let quantized = Engine::builder()
        .trajcl(model, feat)
        .database(ds.trajectories.clone())
        .index_options(IndexOptions {
            seed: 3,
            quantization: Quantization::Sq8,
            rescore_factor: 4,
            ..ivf(8)
        })
        .nprobe(8) // full probe
        .build()
        .unwrap();
    let index = quantized.index().expect("index built");
    assert_eq!(index.quantization(), Quantization::Sq8);
    for qi in [0usize, 17, 42] {
        let a = brute.knn(&ds.trajectories[qi], 5).unwrap();
        let b = quantized.knn(&ds.trajectories[qi], 5).unwrap();
        assert_eq!(a, b, "quantized route diverged on query {qi}");
    }

    // Persistence carries the index section and the index description.
    let restored = Engine::from_bytes(&quantized.to_bytes().unwrap()).unwrap();
    assert_eq!(restored.index_options(), quantized.index_options());
    assert_eq!(
        restored.index().expect("index persisted").quantization(),
        Quantization::Sq8
    );
    for qi in [0usize, 17, 42] {
        assert_eq!(
            quantized.knn(&ds.trajectories[qi], 5).unwrap(),
            restored.knn(&ds.trajectories[qi], 5).unwrap(),
            "kNN diverged after reload on query {qi}"
        );
    }
}

#[test]
fn pq_index_route_matches_brute_force_and_persists() {
    // PQ storage with exact rescoring: at full probe with a generous
    // over-fetch the product-quantized route must return the same ids AND
    // the same (exact, rescored) distances as the brute-force route.
    let ds = dataset(60, 16);
    let (model, feat) = untrained_trajcl(&ds);
    let brute = Engine::builder()
        .trajcl(model.clone(), feat.clone())
        .database(ds.trajectories.clone())
        .build()
        .unwrap();
    let quant = Quantization::Pq { m: 4 };
    let pq = Engine::builder()
        .trajcl(model, feat)
        .database(ds.trajectories.clone())
        .index_options(IndexOptions {
            seed: 3,
            quantization: quant,
            rescore_factor: 16,
            ..ivf(8)
        })
        .nprobe(8) // full probe
        .build()
        .unwrap();
    let index = pq.index().expect("index built");
    assert_eq!(index.quantization(), quant);
    for qi in [0usize, 17, 42] {
        let a = brute.knn(&ds.trajectories[qi], 5).unwrap();
        let b = pq.knn(&ds.trajectories[qi], 5).unwrap();
        assert_eq!(a, b, "pq route diverged on query {qi}");
    }

    // Persistence carries the index section and the PQ configuration tail.
    let restored = Engine::from_bytes(&pq.to_bytes().unwrap()).unwrap();
    assert_eq!(restored.index_options(), pq.index_options());
    assert_eq!(
        restored.index().expect("index persisted").quantization(),
        quant
    );
    for qi in [0usize, 17, 42] {
        assert_eq!(
            pq.knn(&ds.trajectories[qi], 5).unwrap(),
            restored.knn(&ds.trajectories[qi], 5).unwrap(),
            "kNN diverged after reload on query {qi}"
        );
    }
}

// The safety net under the three storages: over an engine's own table —
// the unnormalised backbone `h` of the tiny test model, where one shared
// SQ8 scale is coarsest on low-range dimensions — SQ8 (r = 4) and 4-bit
// PQ (m = d/4, r = 128) keep recall@10 against the same engine's f32 IVF
// route. The quantized indexes are built exactly as the engine builds its
// own (same cells, same seed) and searched as `Engine::knn_batch` does.
// Queries: half distorted or down-sampled database rows, half held out.
#[test]
fn quantized_routes_keep_the_recall_of_the_engines_f32_route() {
    let ds = dataset(5200, 18);
    let (db, held_out) = ds.trajectories.split_at(5000);
    let (model, feat) = untrained_trajcl(&ds);
    // Half the cells probed: ~2500 rows scanned per query, about twice
    // PQ's 1280-candidate over-fetch, so its codes really rank.
    let (nlist, nprobe, k) = (16, 8, 10);
    let f32_opts = IndexOptions {
        seed: 5,
        ..ivf(nlist)
    };
    let engine = Engine::builder()
        .trajcl(model, feat)
        .database(db.to_vec())
        .index_options(f32_opts)
        .nprobe(nprobe)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(19);
    let mut queries = held_out.to_vec();
    for (i, t) in db.iter().step_by(25).enumerate() {
        queries.push(match i % 2 {
            0 => distort(t, 0.3, 100.0, 0.5, &mut rng),
            _ => downsample(t, 0.3, &mut rng),
        });
    }
    let truth = engine.knn_batch(&queries, k).unwrap();
    let (table, q) = (
        engine.embeddings().unwrap(),
        engine.embed_all(&queries).unwrap(),
    );
    let pq_m = table.shape().last() / 4;
    // Measured at 5000 rows: SQ8 1.000, PQ 1.000 (without over-fetch,
    // r = 1: SQ8 0.940, PQ 0.198).
    for (quantization, rescore_factor, floor) in [
        (Quantization::Sq8, 4, 0.99),
        (Quantization::Pq { m: pq_m }, 128, 0.95),
    ] {
        let opts = IndexOptions {
            quantization,
            rescore_factor,
            ..f32_opts
        };
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let index = IvfIndex::build_with(table, Metric::L1, &opts, &mut rng);
        let got = index.batch_search_rescored(&q, k, nprobe, Some(table));
        let hits: usize = got
            .iter()
            .zip(&truth)
            .map(|(g, t)| g.iter().filter(|h| t.iter().any(|x| x.0 == h.0)).count())
            .sum();
        let recall = hits as f64 / (k * queries.len()) as f64;
        assert!(
            recall >= floor,
            "{quantization:?}: recall@10 {recall:.4} < {floor}"
        );
    }
}

#[test]
fn embed_all_chunking_is_invisible() {
    let ds = dataset(30, 4);
    let (model, feat) = untrained_trajcl(&ds);
    let big = Engine::builder()
        .trajcl(model.clone(), feat.clone())
        .batch_size(64)
        .build()
        .unwrap();
    let small = Engine::builder()
        .trajcl(model, feat)
        .batch_size(3)
        .build()
        .unwrap();
    let e1 = big.embed_all(&ds.trajectories).unwrap();
    let e2 = small.embed_all(&ds.trajectories).unwrap();
    assert_eq!(e1.shape(), Shape::d2(30, big.backend().dim()));
    assert!(
        e1.approx_eq(&e2, 1e-5),
        "batch size must not change embeddings"
    );
}

#[test]
fn empty_and_degenerate_batches_error_cleanly() {
    let ds = dataset(10, 5);
    let (model, feat) = untrained_trajcl(&ds);
    let engine = Engine::builder().trajcl(model, feat).build().unwrap();
    assert!(matches!(
        engine.embed_all(&[]),
        Err(EngineError::EmptyBatch)
    ));
    let mut batch = ds.trajectories.clone();
    batch.insert(2, Trajectory::new(Vec::new()));
    assert!(matches!(
        engine.embed_all(&batch),
        Err(EngineError::EmptyTrajectory { index: 2 })
    ));
    assert!(matches!(
        engine.knn(&ds.trajectories[0], 3),
        Err(EngineError::NoDatabase)
    ));
    assert!(matches!(
        engine.knn(&Trajectory::new(Vec::new()), 3),
        Err(EngineError::EmptyTrajectory { index: 0 })
    ));
}

#[test]
fn knn_by_index_validates_and_excludes_self() {
    let ds = dataset(15, 6);
    let (model, feat) = untrained_trajcl(&ds);
    let engine = Engine::builder()
        .trajcl(model, feat)
        .database(ds.trajectories.clone())
        .build()
        .unwrap();
    assert!(matches!(
        engine.knn_by_index(99, 3),
        Err(EngineError::QueryOutOfRange { index: 99, len: 15 })
    ));
    let hits = engine.knn_by_index(4, 3).unwrap();
    assert_eq!(hits.len(), 3);
    assert!(hits.iter().all(|(id, _)| *id != 4), "self must be excluded");
}

#[test]
fn persistence_round_trip_is_bit_exact() {
    // The satellite acceptance test: save an Engine (model + featurizer +
    // IVF index), reload it, and require identical kNN results and
    // bit-for-bit embeddings.
    let ds = dataset(50, 8);
    let (model, feat) = untrained_trajcl(&ds);
    let engine = Engine::builder()
        .trajcl(model, feat)
        .database(ds.trajectories.clone())
        .index_options(IndexOptions { seed: 11, ..ivf(6) })
        .nprobe(3)
        .build()
        .unwrap();
    let bytes = engine.to_bytes().unwrap();
    let restored = Engine::from_bytes(&bytes).unwrap();

    // Embeddings: bit-for-bit (tolerance 0.0).
    let before = engine.embed_all(&ds.trajectories).unwrap();
    let after = restored.embed_all(&ds.trajectories).unwrap();
    assert!(
        before.approx_eq(&after, 0.0),
        "embeddings changed across persistence"
    );
    let cached = restored.embeddings().expect("embedding table persisted");
    assert_eq!(
        cached.data(),
        before.data(),
        "cached table differs from recompute"
    );

    // kNN: identical ids AND distances through the persisted index.
    assert!(restored.index().is_some(), "index must survive persistence");
    for qi in [0usize, 13, 37] {
        let a = engine.knn(&ds.trajectories[qi], 5).unwrap();
        let b = restored.knn(&ds.trajectories[qi], 5).unwrap();
        assert_eq!(a, b, "kNN diverged after reload on query {qi}");
    }
}

// TCE1 ends at the quantization tail, `tag | rescore | [PQ: m]`:
// nothing about serving (shard count, WAL durability) is in the file.
// Earlier layouts are corrupt, never loaded with defaulted settings: the
// one that carried the `shards u32 | durability u8` serving bytes, and
// the one with a scan byte after the tail (and PQ's code-width byte before
// it).
#[test]
fn engine_file_ends_at_the_quantization_tail() {
    let ds = dataset(12, 9);
    for quantization in [Quantization::Sq8, Quantization::Pq { m: 3 }] {
        let (model, feat) = untrained_trajcl(&ds);
        let engine = Engine::builder()
            .trajcl(model, feat)
            .database(ds.trajectories.clone())
            .index_options(IndexOptions {
                quantization,
                rescore_factor: 5,
                ..ivf(3)
            })
            .build()
            .unwrap();
        let bytes = engine.to_bytes().unwrap();
        let tail: &[u8] = match quantization {
            Quantization::Pq { m } => &[2, 5, 0, 0, 0, m as u8, 0, 0, 0],
            _ => &[1, 5, 0, 0, 0],
        };
        assert!(bytes.ends_with(tail), "{quantization:?}");
        let restored = Engine::from_bytes(&bytes).unwrap();
        assert_eq!(restored.to_bytes().unwrap(), bytes, "bit-exact round trip");

        let mut serving_format = bytes.clone();
        serving_format.extend_from_slice(&4u32.to_le_bytes()); // shards
        serving_format.push(2); // durability: fsync
        let mut scan_format = bytes.clone();
        if let Quantization::Pq { .. } = quantization {
            scan_format.push(4); // PQ code width: 4 bits
        }
        scan_format.push(1); // scan: symmetric
        for parent in [serving_format, scan_format] {
            assert!(matches!(
                Engine::from_bytes(&parent),
                Err(EngineError::CorruptEngineFile("trailing bytes"))
            ));
        }
    }
}

// The index description travels as one value: every storage (PQ
// geometry included) survives the engine file, with and without a built
// index section beside it.
#[test]
fn index_options_survive_persistence_for_every_storage() {
    let ds = dataset(40, 17);
    for quantization in [
        Quantization::None,
        Quantization::Sq8,
        Quantization::Pq { m: 3 },
    ] {
        for nlist in [None, Some(5)] {
            let opts = IndexOptions {
                nlist,
                seed: 21,
                quantization,
                rescore_factor: 6,
            };
            let (model, feat) = untrained_trajcl(&ds);
            let engine = Engine::builder()
                .trajcl(model, feat)
                .database(ds.trajectories.clone())
                .index_options(opts)
                .build()
                .unwrap();
            assert_eq!(engine.index().is_some(), nlist.is_some());
            let bytes = engine.to_bytes().unwrap();
            let restored = Engine::from_bytes(&bytes).unwrap();
            assert_eq!(restored.index_options(), &opts, "{opts:?}");
            assert_eq!(restored.to_bytes().unwrap(), bytes, "{opts:?}");
            assert_eq!(
                restored.knn(&ds.trajectories[3], 4).unwrap(),
                engine.knn(&ds.trajectories[3], 4).unwrap(),
                "{opts:?}"
            );
        }
    }
}

#[test]
fn persistence_rejects_garbage_and_heuristic_backends() {
    assert!(matches!(
        Engine::from_bytes(b"not an engine"),
        Err(EngineError::CorruptEngineFile(_))
    ));
    let engine = Engine::builder()
        .heuristic(HeuristicMeasure::Edwp)
        .build()
        .unwrap();
    assert!(matches!(
        engine.to_bytes(),
        Err(EngineError::Unsupported(_))
    ));

    let ds = dataset(12, 9);
    let (model, feat) = untrained_trajcl(&ds);
    let trajcl = Engine::builder()
        .trajcl(model, feat)
        .database(ds.trajectories)
        .build()
        .unwrap();
    let mut bytes = trajcl.to_bytes().unwrap();
    bytes.truncate(bytes.len() / 3);
    assert!(Engine::from_bytes(&bytes).is_err());

    // Trailing garbage after the (final) quantization tail is corruption.
    let mut bytes = trajcl.to_bytes().unwrap();
    bytes.push(0);
    assert!(Engine::from_bytes(&bytes).is_err());
}

#[test]
fn approximate_measure_produces_a_serving_engine() {
    let ds = dataset(24, 10);
    let (model, feat) = untrained_trajcl(&ds);
    let engine = Engine::builder()
        .trajcl(model, feat)
        .database(ds.trajectories.clone())
        .index_options(IndexOptions {
            quantization: Quantization::Sq8,
            ..ivf(3)
        })
        .build()
        .unwrap();
    let cfg = FinetuneConfig {
        scope: FinetuneScope::HeadOnly,
        pairs_per_epoch: 16,
        batch_pairs: 8,
        epochs: 1,
        lr: 1e-3,
    };
    let mut rng = StdRng::seed_from_u64(12);
    let approx = engine
        .approximate_measure(
            HeuristicMeasure::Hausdorff,
            &ds.trajectories[..16],
            &cfg,
            &mut rng,
        )
        .unwrap();
    assert!(approx.backend().name().contains("Hausdorff"));
    assert_eq!(approx.database().len(), engine.database().len());
    // The index description travels whole.
    assert_eq!(approx.index_options(), engine.index_options());
    let hits = approx.knn(&ds.trajectories[0], 3).unwrap();
    assert_eq!(hits.len(), 3);

    // Heuristic backends cannot be fine-tuned.
    let heuristic = Engine::builder()
        .heuristic(HeuristicMeasure::Dtw)
        .build()
        .unwrap();
    assert!(matches!(
        heuristic.approximate_measure(HeuristicMeasure::Dtw, &ds.trajectories, &cfg, &mut rng),
        Err(EngineError::Unsupported(_))
    ));
}

#[test]
fn trained_engine_end_to_end_via_builder() {
    // The full builder flow: dataset -> featurizer -> trained backend ->
    // IVF index, then self-queries hit themselves.
    let ds = dataset(40, 13);
    let mut rng = StdRng::seed_from_u64(14);
    let mut cfg = TrajClConfig::test_default();
    cfg.max_epochs = 1;
    let engine = Engine::builder()
        .train_trajcl(&ds, &cfg, &mut rng)
        .unwrap()
        .database(ds.trajectories.clone())
        .index_options(ivf(5))
        .nprobe(5)
        .build()
        .unwrap();
    assert!(engine.train_report().is_some());
    assert!(engine.train_report().unwrap().epochs_run >= 1);
    let hits = engine.knn(&ds.trajectories[7], 1).unwrap();
    assert_eq!(hits[0].0, 7, "a trajectory's nearest neighbour is itself");
}
