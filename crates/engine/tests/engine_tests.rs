//! Integration tests for the engine: builder flows, exact kNN,
//! fine-tuning, and engine persistence. The indexed
//! kNN a server builds from an engine is tested in `trajcl-serve`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_core::{
    EncoderVariant, Featurizer, FinetuneConfig, FinetuneScope, TrajClConfig, TrajClModel,
};
use trajcl_data::{Dataset, DatasetProfile};
use trajcl_engine::{Engine, EngineBuilder, EngineError, IndexOptions, Quantization};
use trajcl_geo::{Grid, SpatialNorm, Trajectory};
use trajcl_measures::HeuristicMeasure;
use trajcl_nn::PairRegression;
use trajcl_tensor::{Shape, Tensor};

/// An untrained TrajCL encoder over the dataset's region — weights are
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
fn builder_requires_a_model() {
    let err = EngineBuilder::new()
        .build()
        .err()
        .expect("no model must fail");
    assert!(matches!(err, EngineError::InvalidInput(_)));
}

#[test]
fn embed_all_chunking_is_invisible() {
    let ds = dataset(30, 4);
    let (model, feat) = untrained_trajcl(&ds);
    let tables: Vec<Vec<u32>> = [1, 3, 128]
        .into_iter()
        .map(|batch| {
            let engine = Engine::builder()
                .trajcl(model.clone(), feat.clone())
                .batch_size(batch)
                .build()
                .unwrap();
            let e = engine.embed_all(&ds.trajectories).unwrap();
            assert_eq!(e.shape(), Shape::d2(30, engine.dim()));
            e.data().iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    assert!(
        tables.iter().all(|t| t == &tables[0]),
        "batch size must not change one embedding bit"
    );
}

/// Where [`embed_all_table_for_the_width_check`] writes its table; unset
/// in a plain test run, where that test does nothing.
const WIDTH_CHECK_OUT: &str = "TRAJCL_TEST_EMBED_TABLE_OUT";

/// The child of [`embed_all_bits_do_not_depend_on_the_pool_width`]: embeds
/// a fixed database (7-row calls, so each splits unevenly across two
/// lanes) and writes the table's bytes to `$TRAJCL_TEST_EMBED_TABLE_OUT`.
#[test]
fn embed_all_table_for_the_width_check() {
    let Some(out) = std::env::var_os(WIDTH_CHECK_OUT) else {
        return;
    };
    let ds = dataset(40, 6);
    let (model, feat) = untrained_trajcl(&ds);
    let engine = Engine::builder()
        .trajcl(model, feat)
        .batch_size(7)
        .build()
        .unwrap();
    let e = engine.embed_all(&ds.trajectories).unwrap();
    let bytes: Vec<u8> = e.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(out, bytes).expect("write the table");
}

#[test]
fn embed_all_bits_do_not_depend_on_the_pool_width() {
    // The pool's width is fixed at its first use in a process, so each
    // width runs in a child: this test binary, filtered to the test above.
    let dir = std::env::temp_dir().join(format!("trajcl_width_bits_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tables: Vec<Vec<u8>> = ["1", "2"]
        .into_iter()
        .map(|lanes| {
            let out = dir.join(format!("lanes{lanes}.bin"));
            let run = std::process::Command::new(std::env::current_exe().expect("test binary"))
                .args(["--exact", "embed_all_table_for_the_width_check"])
                .args(["--test-threads", "1", "-q"])
                .env("TRAJCL_THREADS", lanes)
                .env_remove("TRAJCL_FORCE_SCALAR")
                .env(WIDTH_CHECK_OUT, &out)
                .output()
                .expect("run the child");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(run.status.success(), "TRAJCL_THREADS={lanes}: {stderr}");
            std::fs::read(&out).expect("the child wrote its table")
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(tables[0].len(), 40 * 16 * 4, "40 rows of 16 f32");
    assert!(
        tables[0] == tables[1],
        "embed_all at two pool lanes differs from one lane"
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
fn persistence_round_trip_is_bit_exact() {
    // Save an Engine (model + featurizer + query settings), reload it,
    // and require bit-for-bit embeddings and, once the database is
    // re-attached, identical kNN results.
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
    assert!(restored.embeddings().is_none(), "no table is persisted");
    let restored = restored.with_database(ds.trajectories.clone()).unwrap();
    assert_eq!(
        restored.embeddings().unwrap().data(),
        engine.embeddings().unwrap().data(),
        "re-embedded table differs"
    );

    // kNN: identical ids AND distances.
    for qi in [0usize, 13, 37] {
        let a = engine.knn(&ds.trajectories[qi], 5).unwrap();
        let b = restored.knn(&ds.trajectories[qi], 5).unwrap();
        assert_eq!(a, b, "kNN diverged after reload on query {qi}");
    }
}

// TCE1 ends at the quantization tail, `tag | rescore | [PQ: m]`:
// nothing about serving (shard count, WAL durability) is in the file.
// Earlier layouts are corrupt, never loaded with defaulted settings: the
// one that carried the `shards u32 | durability u8` serving bytes, the
// one with a scan byte after the tail (and PQ's code-width byte before
// it), and the one with `has_table u8 | [table] | has_index u8 |
// [section]` before the tail.
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
        let tail_at = bytes.len() - tail.len();
        let data_format = |sections: &[u8]| {
            let mut file = bytes[..tail_at].to_vec();
            file.extend_from_slice(sections);
            file.extend_from_slice(tail);
            file
        };
        let no_sections = data_format(&[0, 0]); // has_table, has_index
        let mut one_row = vec![1]; // has_table
        one_row.extend_from_slice(&1u32.to_le_bytes()); // rows
        one_row.extend_from_slice(&1u32.to_le_bytes()); // dim
        one_row.extend_from_slice(&0.5f32.to_le_bytes());
        one_row.push(0); // has_index
        let table_format = data_format(&one_row);
        for parent in [serving_format, scan_format, no_sections, table_format] {
            assert!(matches!(
                Engine::from_bytes(&parent),
                Err(EngineError::CorruptEngineFile("trailing bytes"))
            ));
        }
    }
}

// The index description travels as one value: every storage (PQ
// geometry included), with and without cells, survives the engine file.
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
            let bytes = engine.to_bytes().unwrap();
            let restored = Engine::from_bytes(&bytes).unwrap();
            assert_eq!(restored.index_options(), &opts, "{opts:?}");
            assert_eq!(restored.to_bytes().unwrap(), bytes, "{opts:?}");
        }
    }
}

// The file is the model and the query settings only: an engine with a
// database serialises to the same bytes as the same engine without one.
#[test]
fn engine_file_holds_no_database_state() {
    let ds = dataset(30, 19);
    let opts = IndexOptions {
        seed: 4,
        quantization: Quantization::Pq { m: 4 },
        ..ivf(4)
    };
    let build = |database: Vec<Trajectory>| {
        let (model, feat) = untrained_trajcl(&ds);
        Engine::builder()
            .trajcl(model, feat)
            .database(database)
            .index_options(opts)
            .nprobe(2)
            .build()
            .unwrap()
    };
    let with_db = build(ds.trajectories.clone());
    assert!(with_db.embeddings().is_some());
    assert_eq!(
        with_db.to_bytes().unwrap(),
        build(Vec::new()).to_bytes().unwrap()
    );
}

/// The smallest fine-tuning run: one epoch of 8 pairs, head only.
fn tiny_finetune() -> FinetuneConfig {
    FinetuneConfig {
        scope: FinetuneScope::HeadOnly,
        train: PairRegression {
            pairs_per_epoch: 8,
            batch_pairs: 4,
            epochs: 1,
            lr: 1e-3,
        },
    }
}

#[test]
fn persistence_rejects_garbage_and_finetuned_engines() {
    assert!(matches!(
        Engine::from_bytes(b"not an engine"),
        Err(EngineError::CorruptEngineFile(_))
    ));

    let ds = dataset(12, 9);
    let (model, feat) = untrained_trajcl(&ds);
    let trajcl = Engine::builder()
        .trajcl(model, feat)
        .database(ds.trajectories.clone())
        .build()
        .unwrap();
    let finetuned = trajcl
        .approximate_measure(
            HeuristicMeasure::Edwp,
            &ds.trajectories,
            &tiny_finetune(),
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
    assert!(matches!(
        finetuned.to_bytes(),
        Err(EngineError::Unsupported(_))
    ));
    let mut bytes = trajcl.to_bytes().unwrap();
    bytes.truncate(bytes.len() / 3);
    assert!(Engine::from_bytes(&bytes).is_err());

    // Trailing garbage after the (final) quantization tail is corruption.
    let mut bytes = trajcl.to_bytes().unwrap();
    bytes.push(0);
    assert!(Engine::from_bytes(&bytes).is_err());
}

// Every count travels as a u32: one that does not fit is refused by
// name, never written truncated (nprobe 2^32 as 0).
#[test]
fn to_bytes_refuses_counts_that_do_not_fit_a_u32() {
    let ds = dataset(8, 23);
    let too_big = u32::MAX as usize + 1;
    let (model, feat) = untrained_trajcl(&ds);
    let trajcl = || Engine::builder().trajcl(model.clone(), feat.clone());
    let rescore = IndexOptions {
        rescore_factor: too_big,
        ..IndexOptions::default()
    };
    for (field, builder) in [
        ("nprobe", trajcl().nprobe(too_big)),
        ("batch_size", trajcl().batch_size(too_big)),
        ("rescore_factor", trajcl().index_options(rescore)),
    ] {
        let engine = builder.build().unwrap();
        match engine.to_bytes() {
            Err(EngineError::InvalidInput(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!(
                "{field} = 2^32 must be refused, got {:?}",
                other.map(|file| file.len())
            ),
        }
    }
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
        train: PairRegression {
            pairs_per_epoch: 16,
            batch_pairs: 8,
            epochs: 1,
            lr: 1e-3,
        },
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
    assert!(approx.name().contains("Hausdorff"));
    assert_eq!(approx.database().len(), engine.database().len());
    // The index description travels whole.
    assert_eq!(approx.index_options(), engine.index_options());
    let hits = approx.knn(&ds.trajectories[0], 3).unwrap();
    assert_eq!(hits.len(), 3);

    // A fine-tuned engine is not fine-tuned again.
    assert!(matches!(
        approx.approximate_measure(HeuristicMeasure::Dtw, &ds.trajectories, &cfg, &mut rng),
        Err(EngineError::Unsupported(_))
    ));
}

#[test]
fn trained_engine_end_to_end_via_builder() {
    // The full builder flow: dataset -> featurizer -> trained model ->
    // embedded database, then self-queries hit themselves.
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
