//! Concurrency suite for `trajcl-serve`: mixed mutation/query traffic
//! against a brute-force oracle, compaction-preserves-kNN properties, and
//! barrier-based snapshot-consistency (no torn reads).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_engine::Engine;
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_index::{IndexOptions, Metric, MutableIndex, Quantization};
use trajcl_serve::{ServeConfig, Server};
use trajcl_tensor::{Shape, Tensor};

/// A tiny deterministic TrajCL model and its featurizer, taking inputs
/// of up to `max_len` points.
fn tiny_parts(max_len: usize) -> (TrajClModel, Featurizer) {
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = TrajClConfig {
        max_len,
        ..TrajClConfig::test_default()
    };
    let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
    let grid = Grid::new(region, 100.0);
    let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
    let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
    let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
    (model, feat)
}

/// A tiny deterministic TrajCL engine (no pre-loaded database).
fn tiny_engine() -> Engine {
    tiny_engine_storing(Quantization::None)
}

/// [`tiny_engine`] whose index description — which the server takes
/// whole — stores sealed rows under `quantization`.
fn tiny_engine_storing(quantization: Quantization) -> Engine {
    let (model, feat) = tiny_parts(TrajClConfig::test_default().max_len);
    Engine::builder()
        .trajcl(model, feat)
        .index_options(IndexOptions {
            quantization,
            ..IndexOptions::default()
        })
        .build()
        .expect("engine")
}

/// A well-separated synthetic trajectory; injective over the id ranges
/// the tests use (`t * 1000 + i`, `i < 1000 / 9.7`), so no two ids share
/// geometry (ties would make kNN rank comparisons ambiguous).
fn traj_for(id: u64) -> Trajectory {
    let y0 = 10.0 + (id % 1000) as f64 * 9.7 + (id / 1000) as f64 * 211.0;
    (0..6)
        .map(|t| Point::new(40.0 + t as f64 * 120.0, y0 + t as f64 * 3.0))
        .collect()
}

fn l1(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs() as f64).sum()
}

/// Conservative worst-case L1 error of SQ8-quantizing any vector drawn
/// from `vecs`: the bound of a codebook trained on the full set (a
/// codebook trained on any SUBSET has a widest span, and so a scale, no
/// larger, so its true bound is no larger either). The scan quantizes the
/// query too, so a scanned distance is within twice this of exact.
fn sq8_l1_bound<'a>(vecs: impl Iterator<Item = &'a Vec<f32>>) -> f64 {
    let mut flat: Vec<f32> = Vec::new();
    let mut d = 0;
    for v in vecs {
        d = v.len();
        flat.extend_from_slice(v);
    }
    trajcl_index::Sq8Codebook::train(&flat, d).l1_error_bound()
}

#[test]
fn mixed_ops_from_many_threads_match_brute_force_oracle() {
    let server =
        Arc::new(Server::new(Arc::new(tiny_engine()), ServeConfig::default()).expect("server"));
    const THREADS: u64 = 4;
    const OPS: u64 = 30;
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Each thread owns the id range [t*1000, t*1000+OPS): the
                // final index state is independent of interleaving.
                for i in 0..OPS {
                    let id = t * 1000 + i;
                    server.upsert(id, &traj_for(id)).expect("upsert");
                    if i % 3 == 0 {
                        let hits = server.knn(&traj_for(id), 5).expect("knn");
                        assert!(hits.len() <= 5);
                        assert!(hits.windows(2).all(|w| w[0].1 <= w[1].1), "sorted hits");
                    }
                    if i % 5 == 4 {
                        assert!(server.remove(id - 2).expect("remove"));
                    }
                    if t == 0 && i % 11 == 10 {
                        server.compact().expect("compact");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }

    // Brute-force oracle over the expected final live set, using the same
    // (cached) embeddings the server serves.
    let mut oracle: HashMap<u64, Vec<f32>> = HashMap::new();
    for t in 0..THREADS {
        for i in 0..OPS {
            let id = t * 1000 + i;
            oracle.insert(id, server.embed(&traj_for(id)).expect("embed"));
        }
        for i in 0..OPS {
            if i % 5 == 4 {
                oracle.remove(&(t * 1000 + i - 2));
            }
        }
    }
    assert_eq!(server.stats().index_len, oracle.len());

    for qid in [0u64, 7, 1003, 2019, 3025] {
        let q = server.embed(&traj_for(qid)).expect("embed");
        let mut want: Vec<(u64, f64)> = oracle.iter().map(|(id, v)| (*id, l1(&q, v))).collect();
        want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let got = server.knn(&traj_for(qid), 5).expect("knn");
        let got_ids: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
        let want_ids: Vec<u64> = want.iter().take(5).map(|(id, _)| *id).collect();
        assert_eq!(got_ids, want_ids, "query {qid} diverged from oracle");
    }

    // And the same ground truth must survive a full compaction.
    server.compact().expect("compact");
    for qid in [0u64, 1003, 3025] {
        let q = server.embed(&traj_for(qid)).expect("embed");
        let mut want: Vec<(u64, f64)> = oracle.iter().map(|(id, v)| (*id, l1(&q, v))).collect();
        want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let got: Vec<u64> = server
            .knn(&traj_for(qid), 5)
            .expect("knn")
            .iter()
            .map(|(id, _)| *id)
            .collect();
        let want_ids: Vec<u64> = want.iter().take(5).map(|(id, _)| *id).collect();
        assert_eq!(got, want_ids, "post-compact query {qid} diverged");
    }
    server.shutdown();
}

#[test]
fn quantized_server_mixed_ops_match_oracle_within_quant_error() {
    // The mixed-op oracle test against an SQ8-quantized MutableIndex: the
    // sealed part holds int8 codes after every compaction and the scan
    // quantizes the query too, so reported distances may deviate from
    // exact f32 by at most twice the codebook's L1 half-step bound — and
    // every returned id must therefore rank within (true kth distance +
    // 2·bound) of the exact ordering.
    let server = Arc::new(
        Server::new(
            Arc::new(tiny_engine_storing(Quantization::Sq8)),
            ServeConfig::default(),
        )
        .expect("server"),
    );
    const THREADS: u64 = 4;
    const OPS: u64 = 24;
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    let id = t * 1000 + i;
                    server.upsert(id, &traj_for(id)).expect("upsert");
                    if i % 5 == 4 {
                        assert!(server.remove(id - 2).expect("remove"));
                    }
                    if t == 1 && i % 9 == 8 {
                        server.compact().expect("compact"); // quantizes the sealed part
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }
    server.compact().expect("compact");

    let mut oracle: HashMap<u64, Vec<f32>> = HashMap::new();
    for t in 0..THREADS {
        for i in 0..OPS {
            let id = t * 1000 + i;
            oracle.insert(id, server.embed(&traj_for(id)).expect("embed"));
        }
        for i in 0..OPS {
            if i % 5 == 4 {
                oracle.remove(&(t * 1000 + i - 2));
            }
        }
    }
    let stats = server.stats();
    assert_eq!(stats.index_len, oracle.len());
    // The quantized sealed part must actually be smaller than its f32
    // footprint (codes + codebook + lists vs 4 bytes/dim alone).
    let dim = server.engine().dim();
    assert!(
        stats.index_memory_bytes < oracle.len() * dim * 4,
        "sq8 index ({} B) not smaller than f32 rows ({} B)",
        stats.index_memory_bytes,
        oracle.len() * dim * 4
    );

    let bound = 2.0 * sq8_l1_bound(oracle.values());
    const K: usize = 5;
    for qid in [0u64, 7, 1003, 2019, 3020] {
        let q = server.embed(&traj_for(qid)).expect("embed");
        let mut want: Vec<(u64, f64)> = oracle.iter().map(|(id, v)| (*id, l1(&q, v))).collect();
        want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let kth = want[K.min(want.len()) - 1].1;
        let got = server.knn(&traj_for(qid), K).expect("knn");
        assert_eq!(got.len(), K.min(oracle.len()));
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "sorted hits");
        for (id, d) in &got {
            let exact = l1(&q, &oracle[id]);
            assert!(
                (d - exact).abs() <= bound + 1e-5,
                "query {qid}: id {id} reported {d}, exact {exact} (bound {bound})"
            );
            assert!(
                exact <= kth + 2.0 * bound + 1e-5,
                "query {qid}: id {id} ranks {exact} past kth {kth} + 2x{bound}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn pq_server_mixed_ops_match_oracle_near_exactly() {
    // The mixed-op oracle test extended to the PQ variant. The live set
    // stays at 16 rows — a sub-quantizer's most centroids — so every
    // sub-quantizer clamps ksub to the table size and k-means reproduces
    // each training subvector as its own centroid: sealed PQ rows decode
    // (near-)exactly and reported distances must match the oracle to f32
    // noise — which is precisely the property that makes repeated PQ
    // re-compactions drift-free. The engine has no database, so there is
    // no table to rescore against: the raw ADC path is what is served.
    let server = Arc::new(
        Server::new(
            Arc::new(tiny_engine_storing(Quantization::Pq { m: 4 })),
            ServeConfig::default(),
        )
        .expect("server"),
    );
    const THREADS: u64 = 4;
    const OPS: u64 = 5; // 4 live ids per thread: 16 rows
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    let id = t * 1000 + i;
                    server.upsert(id, &traj_for(id)).expect("upsert");
                    if i % 5 == 4 {
                        assert!(server.remove(id - 2).expect("remove"));
                    }
                    if t == 1 && i == 2 {
                        server.compact().expect("compact"); // product-quantizes the sealed part
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }
    server.compact().expect("compact");

    let mut oracle: HashMap<u64, Vec<f32>> = HashMap::new();
    for t in 0..THREADS {
        for i in 0..OPS {
            let id = t * 1000 + i;
            oracle.insert(id, server.embed(&traj_for(id)).expect("embed"));
        }
        for i in 0..OPS {
            if i % 5 == 4 {
                oracle.remove(&(t * 1000 + i - 2));
            }
        }
    }
    let stats = server.stats();
    assert_eq!(stats.index_len, oracle.len());
    // (No memory assertion here: with ksub clamped to 16 rows the
    // codebook dominates — PQ's footprint win only amortizes at scale,
    // which the index-scale bench gate measures. The code payload itself
    // is ⌈m/2⌉ = 2 bytes per vector vs 64 for f32.)

    const K: usize = 5;
    const EPS: f64 = 1e-3; // ksub == n ⇒ reconstruction is f32-noise only
    for qid in [0u64, 7, 1003, 2019, 3020] {
        let q = server.embed(&traj_for(qid)).expect("embed");
        let mut want: Vec<(u64, f64)> = oracle.iter().map(|(id, v)| (*id, l1(&q, v))).collect();
        want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let kth = want[K.min(want.len()) - 1].1;
        let got = server.knn(&traj_for(qid), K).expect("knn");
        assert_eq!(got.len(), K.min(oracle.len()));
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "sorted hits");
        for (id, d) in &got {
            let exact = l1(&q, &oracle[id]);
            assert!(
                (d - exact).abs() <= EPS,
                "query {qid}: id {id} reported {d}, exact {exact}"
            );
            assert!(
                exact <= kth + 2.0 * EPS,
                "query {qid}: id {id} ranks {exact} past kth {kth}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn sealed_rescoring_serves_exact_distances_for_clean_ids() {
    // The ROADMAP fix: a quantized sealed part returns quantized
    // distances, but ids seeded from the engine's database still match
    // its cached embedding table, so the server re-ranks those hits
    // against the table and serves EXACT distances. Ids upserted through the server are tracked as dirty
    // and keep their (error-bounded) asymmetric distances.
    let db: Vec<Trajectory> = (0..20).map(traj_for).collect();
    let engine = Arc::new(
        Engine::builder()
            .trajcl(
                {
                    let mut rng = StdRng::seed_from_u64(0);
                    let cfg = TrajClConfig::test_default();
                    TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng)
                },
                {
                    let mut rng = StdRng::seed_from_u64(0);
                    let cfg = TrajClConfig::test_default();
                    let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
                    let grid = Grid::new(region, 100.0);
                    let table =
                        Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
                    Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len)
                },
            )
            .database(db.clone())
            .index_options(IndexOptions {
                quantization: Quantization::Sq8,
                ..IndexOptions::default()
            })
            .build()
            .expect("engine"),
    );
    let table_rows: Vec<Vec<f32>> = {
        let t = engine.embeddings().expect("cached table");
        (0..t.shape().rows()).map(|i| t.row(i).to_vec()).collect()
    };
    let metric = trajcl_index::Metric::L1;
    let server = Server::new(Arc::clone(&engine), ServeConfig::default()).expect("server");

    // Every seeded id is clean: served distances are bit-identical to
    // exact distances against the engine's cached table.
    for qid in [0u64, 7, 13] {
        let q = server.embed(&db[qid as usize]).expect("embed");
        for (id, d) in server.knn(&db[qid as usize], 5).expect("knn") {
            assert_eq!(
                d,
                metric.dist(&q, &table_rows[id as usize]),
                "query {qid}: clean id {id} not rescored to the exact distance"
            );
        }
    }

    // Replace id 3 through the server and seal it: the id is dirty, so
    // its hit keeps a quantized distance (within the codebook bound)
    // while every other id still rescores exactly.
    let new_traj = traj_for(500);
    server.upsert(3, &new_traj).expect("upsert");
    server.compact().expect("compact");
    let new_vec = server.embed(&new_traj).expect("embed");
    let mut live: Vec<Vec<f32>> = Vec::new();
    for (id, row) in table_rows.iter().enumerate() {
        live.push(if id == 3 {
            new_vec.clone()
        } else {
            row.clone()
        });
    }
    let bound = sq8_l1_bound(live.iter());
    let hits = server.knn(&new_traj, 3).expect("knn");
    assert_eq!(hits[0].0, 3, "the replaced vector is its own neighbour");
    assert!(
        (hits[0].1 - 0.0).abs() <= bound + 1e-5,
        "dirty id 3 must stay within the quantization bound"
    );
    for &(id, d) in &hits[1..] {
        assert_eq!(
            d,
            metric.dist(&new_vec, &table_rows[id as usize]),
            "clean id {id} must still rescore exactly"
        );
    }
}

/// A trajectory of [`LONG`] points, one per id below 48: long enough
/// that one forward of [`long_engine`] takes milliseconds.
fn long_traj(id: u64) -> Trajectory {
    let y0 = 20.0 + (id % 48) as f64 * 19.0;
    (0..LONG)
        .map(|t| Point::new(40.0 + t as f64 * 1.8, y0 + t as f64 * 0.1))
        .collect()
}

/// Points per [`long_traj`], and the model's length cap.
const LONG: usize = 512;

/// [`tiny_engine`]'s model over [`LONG`]-point inputs.
fn long_engine() -> Engine {
    let (model, feat) = tiny_parts(LONG);
    Engine::builder()
        .trajcl(model, feat)
        .build()
        .expect("engine")
}

#[test]
fn a_burst_never_runs_more_than_workers_forwards_and_keeps_the_engines_bits() {
    // Every forward checks a context out of the engine's free list and
    // returns it after, and a miss is one trajectory, one context: so the
    // list ends as long as the most forwards that ever ran at once.
    // Forwards of milliseconds make eight callers let through together
    // overlap, on any number of CPUs.
    let engine = Arc::new(long_engine());
    let server = Arc::new(
        Server::new(
            Arc::clone(&engine),
            ServeConfig {
                workers: 2,
                cache_cap: 0, // every request is a miss
                ..ServeConfig::default()
            },
        )
        .expect("server"),
    );
    const THREADS: usize = 8;
    const PER: usize = 6;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (0..PER)
                    .map(|i| {
                        let traj = long_traj((t * PER + i) as u64);
                        (traj.clone(), server.embed(&traj).expect("embed"))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut results = Vec::new();
    for h in handles {
        results.extend(h.join().expect("client thread"));
    }
    // At most `workers` at once is the cap; exactly that many shows the
    // misses still run side by side.
    assert_eq!(engine.idle_contexts(), 2, "forwards running at once");
    let stats = server.stats();
    assert_eq!(stats.batches, (THREADS * PER) as u64);
    assert_eq!(stats.batched_trajs, (THREADS * PER) as u64);
    // Every served row is the engine's own embedding of that trajectory
    // alone, bit for bit.
    let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (traj, served) in results {
        let direct = engine
            .embed_all(std::slice::from_ref(&traj))
            .expect("embed");
        assert_eq!(bits(&served), bits(direct.row(0)));
    }
    server.shutdown();
}

#[test]
fn a_lone_miss_is_one_forward_pass_with_the_engines_own_bits() {
    // One caller at a time never has company to fuse with: every miss
    // runs as a forward pass of its own (on the calling thread, though
    // the counters cannot and need not tell), and what it returns is
    // bit for bit the engine's embedding of that trajectory alone.
    let engine = Arc::new(tiny_engine());
    let config = ServeConfig {
        workers: 2,
        cache_cap: 0,
        ..ServeConfig::default()
    };
    let server = Server::new(Arc::clone(&engine), config).expect("server");
    const N: u64 = 12;
    for id in 0..N {
        let traj = traj_for(id);
        let served = server.embed(&traj).expect("embed");
        let direct = engine
            .embed_all(std::slice::from_ref(&traj))
            .expect("embed");
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&served), bits(direct.row(0)), "trajectory {id}");
    }
    let stats = server.stats();
    assert_eq!(stats.batches, N);
    assert_eq!(stats.batched_trajs, N);
    server.shutdown();
}

#[test]
fn a_caller_racing_shutdown_gets_an_answer_or_an_error_never_a_hang() {
    // Four callers over two forward permits, then over one: with one,
    // three callers are waiting at the gate when shutdown lands.
    for workers in [2, 1] {
        let engine = Arc::new(tiny_engine());
        let config = ServeConfig {
            workers,
            cache_cap: 0,
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::new(engine, config).expect("server"));
        const CALLERS: usize = 4;
        let answered = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..CALLERS)
            .map(|t| {
                let server = Arc::clone(&server);
                let answered = Arc::clone(&answered);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    // Keep asking until shutdown turns the answers into
                    // errors; running and waiting misses are both live
                    // while it lands.
                    for i in 0.. {
                        match server.embed(&traj_for((t * 100 + i % 100) as u64)) {
                            Ok(row) => {
                                assert_eq!(row.len(), server.engine().dim());
                                answered.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                assert!(e.to_string().contains("server is shutting down"), "{e}");
                                break;
                            }
                        }
                    }
                    done_tx.send(()).expect("report");
                })
            })
            .collect();
        // Shut down only once the callers are demonstrably mid-stream.
        while answered.load(Ordering::Relaxed) < 4 * CALLERS {
            std::thread::yield_now();
        }
        server.shutdown();
        for _ in 0..CALLERS {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("a caller hung across shutdown ({workers} workers)"));
        }
        for h in handles {
            h.join().expect("caller thread");
        }
    }
}

#[test]
fn snapshot_readers_never_observe_torn_state() {
    // Writer churns upserts/removes/compactions; readers grab snapshots
    // behind a start barrier and assert (a) internal consistency, (b)
    // immutability of a held snapshot, (c) monotonic generations.
    let index = Arc::new(MutableIndex::new(4, Metric::L1, Some(3), 7));
    for id in 0..16u64 {
        index.upsert(id, vec![id as f32, 0.0, 0.0, 0.0]);
    }
    index.compact();
    const READERS: usize = 4;
    let barrier = Arc::new(Barrier::new(READERS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let index = Arc::clone(&index);
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            barrier.wait();
            for round in 0..60u64 {
                for id in 0..8u64 {
                    index.upsert(
                        1000 + round * 10 + id,
                        vec![round as f32, id as f32, 0.0, 0.0],
                    );
                }
                for id in 0..8u64 {
                    index.remove(1000 + round * 10 + id);
                }
                if round % 7 == 0 {
                    index.compact();
                }
            }
            stop.store(true, Ordering::Release);
        })
    };
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let index = Arc::clone(&index);
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                barrier.wait();
                let mut last_gen = 0u64;
                let query = [3.0f32, 0.0, 0.0, 0.0];
                while !stop.load(Ordering::Acquire) {
                    let snap = index.snapshot();
                    // (a) internal consistency: the live-id set is duplicate
                    // free, matches len(), and a full search returns exactly
                    // min(k, len) hits drawn from it.
                    let ids = snap.live_ids();
                    assert_eq!(ids.len(), snap.len(), "len/live_ids torn");
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "duplicate live id");
                    let hits = snap.search(&query, ids.len() + 4, usize::MAX);
                    assert_eq!(hits.len(), ids.len(), "search size torn");
                    for (id, _) in &hits {
                        assert!(ids.binary_search(id).is_ok(), "hit id {id} not live");
                    }
                    // (b) a held snapshot is immutable under churn.
                    let again = snap.search(&query, ids.len() + 4, usize::MAX);
                    assert_eq!(hits, again, "held snapshot changed");
                    assert_eq!(snap.live_ids(), ids, "held snapshot changed ids");
                    // (c) generations only move forward.
                    assert!(snap.generation() >= last_gen, "generation went backwards");
                    last_gen = snap.generation();
                }
            })
        })
        .collect();
    writer.join().expect("writer");
    for r in readers {
        r.join().expect("reader");
    }
    // The sealed baseline (0..16) survived the churn untouched.
    let ids = index.snapshot().live_ids();
    assert_eq!(ids, (0..16u64).collect::<Vec<_>>());
}

#[test]
fn replaces_with_identical_vectors_never_change_an_answer() {
    // The benchmark's mixed read/write workload rests on this: an upsert
    // stream that rewrites ids with the vectors they already hold leaves
    // the index content constant, so every kNN reply — bytes, not just
    // ids — must equal the one taken before the first write. Many ids
    // share few trajectories, so the reply is decided by tie order, and
    // the writes land in write-buffer chunks the readers' snapshots share.
    let server =
        Arc::new(Server::new(Arc::new(tiny_engine()), ServeConfig::default()).expect("server"));
    const IDS: u64 = 96;
    const SHAPES: u64 = 6;
    for id in 0..IDS {
        server.upsert(id, &traj_for(id % SHAPES)).expect("seed");
    }
    let points: Vec<String> = traj_for(2)
        .points()
        .iter()
        .map(|p| format!("[{},{}]", p.x, p.y))
        .collect();
    let request = format!(
        "{{\"op\":\"knn\",\"traj\":[{}],\"k\":20}}",
        points.join(",")
    );
    let baseline = trajcl_serve::proto::handle(&server, &request);
    assert!(baseline.contains("\"ok\":true"), "{baseline}");

    const READERS: usize = 3;
    let barrier = Arc::new(Barrier::new(READERS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (server, barrier, stop) =
                (Arc::clone(&server), Arc::clone(&barrier), Arc::clone(&stop));
            let (request, baseline) = (request.clone(), baseline.clone());
            std::thread::spawn(move || {
                barrier.wait();
                let mut replies = 0usize;
                // At least a few replies after the writer is done, too.
                while !stop.load(Ordering::Acquire) || replies < 8 {
                    assert_eq!(trajcl_serve::proto::handle(&server, &request), baseline);
                    replies += 1;
                }
            })
        })
        .collect();
    barrier.wait();
    for round in 0..6u64 {
        for id in 0..IDS {
            // A different visiting order each round, the same vector always.
            let id = (id * 7 + round) % IDS;
            assert!(server.upsert(id, &traj_for(id % SHAPES)).expect("replace"));
        }
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        r.join().expect("reader");
    }
    assert_eq!(trajcl_serve::proto::handle(&server, &request), baseline);
    server.shutdown();
}

/// Random vectors as flat f32 rows.
fn random_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // `compact()` must not change full-probe kNN results (rank tolerance
    // zero at full probe: both sides are exact over the same live set),
    // and partial-probe recall against the compacted ground truth stays
    // high.
    #[test]
    fn compaction_preserves_knn(
        n in 20usize..80,
        k in 1usize..8,
        seed in 0u64..1000,
    ) {
        let d = 6;
        let rows = random_rows(n, d, seed);
        let index = MutableIndex::new(d, Metric::L1, Some(5), seed);
        for (i, v) in rows.iter().enumerate() {
            index.upsert(i as u64, v.clone());
        }
        // Remove a deterministic fifth to exercise tombstone folding.
        for i in (0..n).step_by(5) {
            index.remove(i as u64);
        }
        let queries: Vec<Vec<f32>> = random_rows(4, d, seed ^ 0xabcd);
        let live = index.snapshot().live_ids().len();
        let before: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| index.search(q, k, usize::MAX).into_iter().map(|(id, _)| id).collect())
            .collect();
        index.compact();
        for (q, want) in queries.iter().zip(&before) {
            let after: Vec<u64> =
                index.search(q, k, usize::MAX).into_iter().map(|(id, _)| id).collect();
            prop_assert_eq!(&after, want, "full-probe kNN changed across compact()");
            // Partial probe (3 of 5 cells): every hit it returns must rank
            // within 3k of the true ordering — the IVF approximation may
            // shuffle the tail but must not surface far-away vectors.
            let truth: Vec<u64> = index
                .search(q, live, usize::MAX)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            for id in index.search(q, k, 3).into_iter().map(|(id, _)| id) {
                let rank = truth.iter().position(|&t| t == id).unwrap();
                prop_assert!(
                    rank < 3 * k,
                    "nprobe=3 returned id {} at true rank {} (k={})",
                    id,
                    rank,
                    k
                );
            }
        }
    }

    // The same compaction property against an SQ8-quantized MutableIndex:
    // sealing quantizes (and the scan quantizes the query too), so
    // full-probe results are compared to the exact oracle through twice
    // the codebook's worst-case L1 error bound instead of exact rank
    // equality — every reported distance stays within `bound` of the true
    // distance, and no returned id ranks past the true kth distance plus
    // `2·bound`. Distances of buffer (unsealed) vectors stay exact and
    // merge consistently.
    #[test]
    fn quantized_compaction_preserves_knn_within_bound(
        n in 20usize..80,
        k in 1usize..8,
        seed in 0u64..1000,
    ) {
        let d = 6;
        let rows = random_rows(n, d, seed);
        let index = MutableIndex::with_options(
            d,
            Metric::L1,
            IndexOptions {
                nlist: Some(5),
                seed,
                quantization: Quantization::Sq8,
                rescore_factor: 4,
            },
        );
        let mut live: HashMap<u64, Vec<f32>> = HashMap::new();
        for (i, v) in rows.iter().enumerate() {
            index.upsert(i as u64, v.clone());
            live.insert(i as u64, v.clone());
        }
        for i in (0..n).step_by(5) {
            index.remove(i as u64);
            live.remove(&(i as u64));
        }
        let bound = 2.0 * sq8_l1_bound(live.values());
        let queries: Vec<Vec<f32>> = random_rows(4, d, seed ^ 0xabcd);

        // Two compactions: the second re-quantizes already-decoded rows,
        // which must not drift the error past the same single bound.
        for round in 0..2 {
            index.compact();
            prop_assert_eq!(index.len(), live.len());
            for q in &queries {
                let mut want: Vec<(u64, f64)> =
                    live.iter().map(|(id, v)| (*id, l1(q, v))).collect();
                want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let kth = want[k.min(want.len()) - 1].1;
                for (id, dist) in index.search(q, k, usize::MAX) {
                    let exact = l1(q, &live[&id]);
                    prop_assert!(
                        (dist - exact).abs() <= bound + 1e-5,
                        "round {}: id {} reported {} vs exact {} (bound {})",
                        round, id, dist, exact, bound
                    );
                    prop_assert!(
                        exact <= kth + 2.0 * bound + 1e-5,
                        "round {}: id {} at {} ranks past kth {} + 2x{}",
                        round, id, exact, kth, bound
                    );
                }
            }
        }

        // Fresh buffer writes on top of the quantized sealed part: a
        // vector upserted after compaction is exact, so querying it must
        // return itself at distance 0 ahead of quantized competitors.
        let probe: Vec<f32> = (0..d).map(|j| 3.0 + j as f32).collect();
        index.upsert(9999, probe.clone());
        let hits = index.search(&probe, 1, usize::MAX);
        prop_assert_eq!(hits[0], (9999u64, 0.0));
    }
}
