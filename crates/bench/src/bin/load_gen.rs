//! Closed-loop load generator for the serving layer: records p50/p99
//! latency and qps, commit-tagged, into `BENCH_serve.json` — the serve
//! counterpart of `perf_snapshot` / BENCH_embed.json.
//!
//! Scenarios (per client-thread count, default 1/8/32):
//!
//! * `mutex` — clients call `Engine::knn` directly, serialising on the
//!   backend's single serving `Mutex<InferCtx>` (the PR-2 path);
//! * `serve` — clients call `Server::knn` through the micro-batcher, the
//!   per-worker context pool and the LRU embedding cache, against a hot
//!   query pool (repeated queries, the "millions of users" profile);
//! * `serve_cold` — same runtime with the cache disabled and a query pool
//!   larger than any batch, isolating the batcher itself.
//!
//! With `--transport tcp` the scenarios instead run over a live TCP
//! listener (`trajcl_serve::net`), sweeping the shard count 1/4/16:
//!
//! * `tcp_write_sN` — 8 client connections stream upsert frames over a
//!   working set of [`WRITE_IDS`] ids (trajectory pool small enough that
//!   the LRU embedding cache absorbs the encoder — the cell measures the
//!   index write path: per-shard writer locks, chunk copy, publish);
//! * `tcp_knn_sN` — the same connections issue kNN frames against the
//!   hot pool after a compact (the sealed scatter-gather read path).
//!
//! The sweep first asserts sharded kNN is bit-identical to unsharded
//! over the engine's exact table (the merge-correctness leg).
//!
//! With `--transport fleet` the scenarios run through the fault-tolerant
//! front-end router (`trajcl_serve::Fleet`) over four downstream shard
//! servers, all on real sockets:
//!
//! * `fleet_knn_4of4` — healthy fleet; every response is checked
//!   `"partial":false` with all four shards answering;
//! * `fleet_knn_3of4` — shard 0 is SIGKILL-equivalently torn down and
//!   the health machine driven to Down first, then the same read load
//!   runs degraded; every measured response is checked
//!   `"partial":true,"shards_ok":3,"shards_total":4`.
//!
//! With `--transport wal` the scenarios measure what durability costs:
//! the same in-process 8-client upsert cell runs twice — once on a plain
//! server (`wal_off_write`) and once with a write-ahead log configured
//! (`wal_on_write`, every ack preceded by a group-commit fsync) — and
//! the within-run ratio `wal_write_qps_ratio` is recorded, not gated:
//! an ephemeral write is a few microseconds, so the ratio is the disk's
//! fsync latency, not the code's. What the code owes — fsyncs shared
//! across concurrent appends — is a count asserted in `trajcl-index`'s
//! `wal` tests.
//!
//! Usage:
//!   load_gen [--quick] [--label NAME] [--transport inproc|tcp|fleet|wal]
//!            [--out BENCH_serve.json] [--check BENCH_serve.json]
//!
//! * default: measure and append a run entry to `--out`;
//! * `--check FILE`: measure and exit non-zero on a regression; nothing
//!   is written. In-process, the 8-client serving ratios (hot/cold qps
//!   speedup over the in-run mutex baseline, cold p99 tail ratio) are
//!   compared against the last entry in FILE with a 30% budget — ratios,
//!   not raw numbers, so the committed baseline is portable across
//!   machines. Over TCP the shard gate is within-run and absolute
//!   (4-shard write throughput >= 0.75x 1-shard — sharding must not
//!   cost writes; it no longer has to buy them — and 4-shard read p99 no
//!   worse than the tail-noise band), so FILE is not consulted.
//!   `--transport wal` has no gate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_bench::snapfile::{append_run, git_commit, last_value};
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_engine::Engine;
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_index::{IndexOptions, Metric, ShardedIndex};
use trajcl_serve::{Client, Fleet, FleetConfig, ServeConfig, Server, SessionOptions};
use trajcl_tensor::{Shape, Tensor};

/// Maximum tolerated qps-ratio regression vs. the baseline.
const MAX_REGRESSION: f64 = 0.30;
/// Tolerance for the p99 tail ratio, wider than the qps band: p99 over a
/// quick 400 ms window rests on a handful of tail samples and scheduler
/// convoying differs across runner core counts, so the tail gate catches
/// order-of-magnitude regressions without flaking on noise.
const TAIL_REGRESSION: f64 = 1.0;

const THREAD_COUNTS: [usize; 3] = [1, 8, 32];
const K: usize = 10;
/// Distinct queries in the hot pool (cachable working set).
const HOT_QUERIES: usize = 64;
/// Distinct queries in the cold pool (defeats the 0-capacity cache).
const COLD_QUERIES: usize = 512;
const DB_SIZE: usize = 256;
/// Batcher workers, pinned (not `available_parallelism`) so gated numbers
/// are comparable across runners with different core counts.
const WORKERS: usize = 2;

/// Shard counts swept by `--transport tcp`.
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
/// Client connections for the TCP cells (matches the gated in-process
/// thread count).
const TCP_CLIENTS: usize = 8;
/// Distinct ids the write cell cycles through — the steady-state write
/// buffer size, prewarmed in-process before the cell so every measured
/// upsert is a replace into a buffer of `WRITE_IDS / shards` rows (one
/// chunk copy plus a publish of that many rows' worth of chunk
/// pointers).
const WRITE_IDS: usize = 16384;
/// Distinct trajectories behind those ids: small enough that the LRU
/// embedding cache absorbs the encoder after warmup, so the cell
/// measures the index write path (buffer publish + dirty tracking).
const WRITE_POOL: usize = 64;
/// Id offset for write-cell ids, clear of the seeded database rows.
const WRITE_BASE: u64 = 1 << 20;
/// CI floor on 4-shard / 1-shard write throughput: no harm. A write
/// costs one chunk copy whatever the buffer holds, so a single shard
/// already writes at wire speed and four shards have nothing left to
/// win here (they win under writer contention and by bounding a
/// compaction stall to one shard, which this cell does not measure);
/// the floor only catches sharding making writes *slower*.
const SHARD_WRITE_FLOOR: f64 = 0.75;
/// CI ceiling on 4-shard / 1-shard read p99: "does not regress", with
/// the same quick-window tail-noise allowance philosophy as
/// [`TAIL_REGRESSION`] (p99 over a short window rests on a handful of
/// samples).
const SHARD_TAIL_CEILING: f64 = 1.5;

/// Downstream shard servers in the fleet scenario; shard 0 is torn down
/// for the degraded cell.
const FLEET_SHARDS: usize = 4;
/// Rows seeded through the fleet front-end before the read cells.
const FLEET_DB: usize = 256;
/// CI floor on degraded-over-healthy fleet read throughput: once the
/// dead shard is marked Down the scatter skips it entirely, so degraded
/// qps should sit near parity — 0.5 catches "every request burns a
/// retry budget against the corpse" regressions without flaking.
const FLEET_DEGRADED_FLOOR: f64 = 0.5;

fn engine_with(database: Option<Vec<Trajectory>>) -> Engine {
    let mut rng = StdRng::seed_from_u64(0);
    let mut cfg = TrajClConfig::scaled_default();
    cfg.dim = 32;
    cfg.ffn_hidden = 64;
    let region = Bbox::new(Point::new(0.0, 0.0), Point::new(10_000.0, 10_000.0));
    let grid = Grid::new(region, 200.0);
    let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.3, &mut rng);
    let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 200.0), 128);
    let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
    let mut builder = Engine::builder().trajcl(model, feat).batch_size(128);
    if let Some(db) = database {
        builder = builder.database(db);
    }
    builder.build().expect("engine build")
}

fn engine() -> Engine {
    engine_with(Some(workload(DB_SIZE, 0)))
}

/// Deterministic trajectories; `salt` decorrelates pools.
fn workload(n: usize, salt: usize) -> Vec<Trajectory> {
    (0..n)
        .map(|i| {
            (0..48)
                .map(|t| {
                    Point::new(
                        200.0 + t as f64 * 60.0,
                        400.0 + ((i + salt) % 61) as f64 * 150.0 + (t % 7) as f64 * 17.0,
                    )
                })
                .collect()
        })
        .collect()
}

/// Latency distribution + throughput of one scenario cell.
#[derive(Clone, Copy)]
struct Cell {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Runs `op` closed-loop from `threads` clients for `measure` seconds
/// (after `warmup`), returning the merged latency stats.
fn run_cell(
    threads: usize,
    warmup: Duration,
    measure: Duration,
    op: impl Fn(usize, usize) + Sync,
) -> Cell {
    let barrier = Barrier::new(threads);
    let next = AtomicUsize::new(0);
    let mut all: Vec<Vec<u64>> = Vec::new();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|client| {
                let barrier = &barrier;
                let next = &next;
                let op = &op;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(4096);
                    barrier.wait();
                    let start = Instant::now();
                    let warm_until = start + warmup;
                    let until = warm_until + measure;
                    loop {
                        let now = Instant::now();
                        if now >= until {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let t = Instant::now();
                        op(client, i);
                        if now >= warm_until {
                            lat.push(t.elapsed().as_nanos() as u64);
                        }
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            all.push(h.join().expect("client thread"));
        }
    });
    let _ = t0;
    let mut merged: Vec<u64> = all.into_iter().flatten().collect();
    merged.sort_unstable();
    let ops = merged.len();
    Cell {
        qps: ops as f64 / measure.as_secs_f64(),
        p50_us: percentile_us(&merged, 0.50),
        p99_us: percentile_us(&merged, 0.99),
    }
}

struct Snapshot {
    commit: String,
    label: String,
    quick: bool,
    /// Which transport carried the cells (`"inproc"` or `"tcp"`).
    transport: &'static str,
    /// Shard counts the cells cover (`[1]` in-process, the sweep on TCP).
    shards: Vec<usize>,
    /// (scenario, threads, cell)
    cells: Vec<(&'static str, usize, Cell)>,
}

impl Snapshot {
    fn to_json(&self) -> String {
        // `cpu`/`force_scalar` record the integer-kernel dispatch decision
        // (index scans under symmetric SQ8 route through it), keeping rows
        // from different machines comparable.
        let shard_list: Vec<String> = self.shards.iter().map(|s| s.to_string()).collect();
        let mut s = format!(
            "{{\"commit\":\"{}\",\"label\":\"{}\",\"quick\":{},\"transport\":\"{}\",\"shards\":[{}],\"cpu\":\"{}\",\"force_scalar\":{},\"hot\":{HOT_QUERIES},\"db\":{DB_SIZE}",
            self.commit,
            self.label,
            self.quick,
            self.transport,
            shard_list.join(","),
            trajcl_index::kernels::dispatch::description(),
            trajcl_index::kernels::dispatch::forced_scalar()
        );
        for (name, threads, cell) in &self.cells {
            s.push_str(&format!(
                ",\"{name}_{threads}_qps\":{:.1},\"{name}_{threads}_p50_us\":{:.1},\"{name}_{threads}_p99_us\":{:.1}",
                cell.qps, cell.p50_us, cell.p99_us
            ));
        }
        // Within-run ratios vs. the mutex baseline: these cancel machine
        // speed and scheduler effects, so they are what the CI gate
        // compares across runners (raw cells are kept for humans).
        if let (Some(m), Some(sv)) = (self.cell("mutex", 8), self.cell("serve", 8)) {
            s.push_str(&format!(",\"speedup_8\":{:.3}", sv.qps / m.qps));
        }
        if let (Some(m), Some(sc)) = (self.cell("mutex", 8), self.cell("serve_cold", 8)) {
            s.push_str(&format!(
                ",\"cold_speedup_8\":{:.3},\"cold_tail_ratio_8\":{:.3}",
                sc.qps / m.qps,
                sc.p99_us / m.p99_us
            ));
        }
        // Shard-sweep ratios (TCP runs): what the sharding gate reads.
        if let Some((w, r)) = self.shard_ratios() {
            s.push_str(&format!(
                ",\"shard4_write_speedup\":{w:.3},\"shard4_read_tail_ratio\":{r:.3}"
            ));
        }
        // Degraded-over-healthy throughput (fleet runs): what the fleet
        // gate reads.
        if let Some(ratio) = self.fleet_degraded_ratio() {
            s.push_str(&format!(",\"fleet_degraded_qps_ratio\":{ratio:.3}"));
        }
        // Durable-over-ephemeral write throughput (wal runs): recorded
        // for the artifact, not gated.
        if let Some(ratio) = self.wal_write_ratio() {
            s.push_str(&format!(",\"wal_write_qps_ratio\":{ratio:.3}"));
        }
        s.push('}');
        s
    }

    /// 4-shard-over-1-shard (write qps speedup, read p99 tail ratio),
    /// when both sweep points were measured.
    fn shard_ratios(&self) -> Option<(f64, f64)> {
        let w1 = self.cell("tcp_write_s1", TCP_CLIENTS)?;
        let w4 = self.cell("tcp_write_s4", TCP_CLIENTS)?;
        let r1 = self.cell("tcp_knn_s1", TCP_CLIENTS)?;
        let r4 = self.cell("tcp_knn_s4", TCP_CLIENTS)?;
        Some((w4.qps / w1.qps, r4.p99_us / r1.p99_us))
    }

    /// Degraded (3 of 4 shards) over healthy fleet read qps, when both
    /// fleet cells were measured.
    fn fleet_degraded_ratio(&self) -> Option<f64> {
        let healthy = self.cell("fleet_knn_4of4", TCP_CLIENTS)?;
        let degraded = self.cell("fleet_knn_3of4", TCP_CLIENTS)?;
        Some(degraded.qps / healthy.qps)
    }

    /// WAL-on over WAL-off write qps, when both durability cells were
    /// measured.
    fn wal_write_ratio(&self) -> Option<f64> {
        let off = self.cell("wal_off_write", TCP_CLIENTS)?;
        let on = self.cell("wal_on_write", TCP_CLIENTS)?;
        Some(on.qps / off.qps)
    }

    fn cell(&self, name: &str, threads: usize) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|(n, t, _)| *n == name && *t == threads)
            .map(|(_, _, c)| c)
    }
}

fn measure_all(quick: bool, label: &str) -> Snapshot {
    let (warmup, measure) = if quick {
        (Duration::from_millis(100), Duration::from_millis(400))
    } else {
        (Duration::from_millis(250), Duration::from_millis(1500))
    };
    let engine = Arc::new(engine());
    let hot = workload(HOT_QUERIES, 7);
    let cold = workload(COLD_QUERIES, 13);
    let mut cells = Vec::new();

    for &threads in &THREAD_COUNTS {
        // Baseline: Engine::knn through the single serving mutex.
        let cell = run_cell(threads, warmup, measure, |_, i| {
            let hits = engine.knn(&hot[i % hot.len()], K).expect("knn");
            std::hint::black_box(hits);
        });
        eprintln!(
            "mutex      threads={threads:<3} {:>9.1} qps  p50 {:>8.1}us  p99 {:>8.1}us",
            cell.qps, cell.p50_us, cell.p99_us
        );
        cells.push(("mutex", threads, cell));
    }

    for &threads in &THREAD_COUNTS {
        // Batched serving, hot query pool (cache + batcher).
        let server = Server::new(
            Arc::clone(&engine),
            ServeConfig {
                workers: WORKERS,
                ..ServeConfig::default()
            },
        )
        .expect("server");
        let cell = run_cell(threads, warmup, measure, |_, i| {
            let hits = server.knn(&hot[i % hot.len()], K).expect("knn");
            std::hint::black_box(hits);
        });
        let stats = server.stats();
        eprintln!(
            "serve      threads={threads:<3} {:>9.1} qps  p50 {:>8.1}us  p99 {:>8.1}us  (cache {}/{} hit, {} batches)",
            cell.qps, cell.p50_us, cell.p99_us, stats.cache_hits,
            stats.cache_hits + stats.cache_misses, stats.batches
        );
        cells.push(("serve", threads, cell));
        server.shutdown();
    }

    // Cache-off, wide query pool: isolates the micro-batcher.
    let server = Server::new(
        Arc::clone(&engine),
        ServeConfig {
            workers: WORKERS,
            cache_cap: 0,
            ..ServeConfig::default()
        },
    )
    .expect("server");
    let cell = run_cell(8, warmup, measure, |_, i| {
        let hits = server.knn(&cold[i % cold.len()], K).expect("knn");
        std::hint::black_box(hits);
    });
    let stats = server.stats();
    eprintln!(
        "serve_cold threads=8   {:>9.1} qps  p50 {:>8.1}us  p99 {:>8.1}us  ({} trajs / {} batches)",
        cell.qps, cell.p50_us, cell.p99_us, stats.batched_trajs, stats.batches
    );
    cells.push(("serve_cold", 8, cell));
    server.shutdown();

    Snapshot {
        commit: git_commit(),
        label: label.to_string(),
        quick,
        transport: "inproc",
        shards: vec![1],
        cells,
    }
}

/// A trajectory as the wire protocol's `[[x,y],...]` point array.
fn traj_json(t: &Trajectory) -> String {
    let pts: Vec<String> = t
        .points()
        .iter()
        .map(|p| format!("[{},{}]", p.x, p.y))
        .collect();
    format!("[{}]", pts.join(","))
}

/// Static scenario names per sweep point (`Snapshot::cells` keys are
/// `&'static str`).
fn shard_cell_names(shards: usize) -> (&'static str, &'static str) {
    match shards {
        1 => ("tcp_write_s1", "tcp_knn_s1"),
        4 => ("tcp_write_s4", "tcp_knn_s4"),
        16 => ("tcp_write_s16", "tcp_knn_s16"),
        _ => unreachable!("sweep shard counts are fixed"),
    }
}

/// Asserts scatter-gather kNN over N shards is bit-identical to the
/// 1-shard index on the engine's exact embedding table — the
/// merge-correctness leg of the serve gate (exact storage; quantized
/// shards train per-shard codebooks and are equivalence-tested at the
/// recall level elsewhere).
fn verify_sharded_equivalence(engine: &Engine) {
    let table = engine.embeddings().expect("engine has a database");
    let ids: Vec<u64> = (0..table.shape().rows() as u64).collect();
    let opts = IndexOptions::default();
    let baseline = ShardedIndex::from_table_with(ids.clone(), table, Metric::L1, opts, 1);
    for &shards in &SHARD_COUNTS[1..] {
        let sharded = ShardedIndex::from_table_with(ids.clone(), table, Metric::L1, opts, shards);
        for q in (0..table.shape().rows()).step_by(7) {
            let query = table.row(q);
            let want = baseline.search(query, K, usize::MAX);
            let got = sharded.search(query, K, usize::MAX);
            let same = want.len() == got.len()
                && want
                    .iter()
                    .zip(&got)
                    .all(|(w, g)| w.0 == g.0 && w.1.to_bits() == g.1.to_bits());
            assert!(
                same,
                "sharded kNN diverged from unsharded at {shards} shards (query {q}):\n  want {want:?}\n  got  {got:?}"
            );
        }
    }
    eprintln!(
        "equivalence: sharded kNN bit-identical to unsharded at {:?} shards",
        &SHARD_COUNTS[1..]
    );
}

/// The TCP shard sweep: per shard count, a write cell then (after a
/// compact) a read cell, both through [`TCP_CLIENTS`] real socket
/// connections against a listener on a free port.
fn measure_tcp(quick: bool, label: &str) -> Snapshot {
    let (warmup, measure) = if quick {
        (Duration::from_millis(100), Duration::from_millis(400))
    } else {
        (Duration::from_millis(250), Duration::from_millis(1500))
    };
    let engine = Arc::new(engine());
    verify_sharded_equivalence(&engine);
    let hot = workload(HOT_QUERIES, 7);
    let knn_payloads: Vec<String> = hot
        .iter()
        .map(|t| format!("{{\"op\":\"knn\",\"traj\":{},\"k\":{K}}}", traj_json(t)))
        .collect();
    let write_pool = workload(WRITE_POOL, 21);
    let write_trajs: Vec<String> = write_pool.iter().map(traj_json).collect();
    let mut cells = Vec::new();

    for &shards in &SHARD_COUNTS {
        let server = Arc::new(
            Server::new(
                Arc::clone(&engine),
                ServeConfig {
                    workers: WORKERS,
                    shards: Some(shards),
                    ..ServeConfig::default()
                },
            )
            .expect("server"),
        );
        let net =
            trajcl_serve::net::listen(Arc::clone(&server), "127.0.0.1:0", WORKERS).expect("listen");
        let addr = net.local_addr().to_string();
        let clients: Vec<Mutex<Client>> = (0..TCP_CLIENTS)
            .map(|_| Mutex::new(Client::connect(&addr).expect("connect")))
            .collect();
        let (write_name, read_name) = shard_cell_names(shards);

        // Bring the write buffer to its steady-state size in-process (and
        // warm the embedding cache): the cell then measures replaces at a
        // constant buffer size, not inserts into a growing prefix.
        for j in 0..WRITE_IDS {
            server
                .upsert(WRITE_BASE + j as u64, &write_pool[j % write_pool.len()])
                .expect("prewarm upsert");
        }
        let cell = run_cell(TCP_CLIENTS, warmup, measure, |client, i| {
            let payload = format!(
                "{{\"op\":\"upsert\",\"id\":{},\"traj\":{}}}",
                WRITE_BASE + (i % WRITE_IDS) as u64,
                write_trajs[i % write_trajs.len()]
            );
            let reply = clients[client]
                .lock()
                .expect("client mutex")
                .call(&payload)
                .expect("upsert reply");
            assert!(reply.contains("\"ok\":true"), "upsert failed: {reply}");
        });
        eprintln!(
            "{write_name:<12} clients={TCP_CLIENTS:<3} {:>9.1} qps  p50 {:>8.1}us  p99 {:>8.1}us",
            cell.qps, cell.p50_us, cell.p99_us
        );
        cells.push((write_name, TCP_CLIENTS, cell));

        // Seal the buffered writes so the read cell exercises the sealed
        // scatter-gather path, not a brute-force buffer scan.
        server.compact().expect("compact");
        let cell = run_cell(TCP_CLIENTS, warmup, measure, |client, i| {
            let reply = clients[client]
                .lock()
                .expect("client mutex")
                .call(&knn_payloads[i % knn_payloads.len()])
                .expect("knn reply");
            assert!(reply.contains("\"ok\":true"), "knn failed: {reply}");
        });
        eprintln!(
            "{read_name:<12} clients={TCP_CLIENTS:<3} {:>9.1} qps  p50 {:>8.1}us  p99 {:>8.1}us",
            cell.qps, cell.p50_us, cell.p99_us
        );
        cells.push((read_name, TCP_CLIENTS, cell));

        drop(clients);
        net.shutdown();
        server.shutdown();
    }

    Snapshot {
        commit: git_commit(),
        label: label.to_string(),
        quick,
        transport: "tcp",
        shards: SHARD_COUNTS.to_vec(),
        cells,
    }
}

/// The fleet scenario: four downstream shard servers on real sockets,
/// the fault-tolerant front-end router in front, [`TCP_CLIENTS`] client
/// connections against the front-end. Measures healthy reads, then
/// tears one shard down SIGKILL-style and measures the degraded steady
/// state — every degraded response is checked for the documented
/// `"partial":true` marker with correct shard counts.
fn measure_fleet(quick: bool, label: &str) -> Snapshot {
    let (warmup, measure) = if quick {
        (Duration::from_millis(100), Duration::from_millis(400))
    } else {
        (Duration::from_millis(250), Duration::from_millis(1500))
    };

    // Four shard "processes", seeded identically (same model weights, so
    // distances agree across shards) but with EMPTY databases: rows
    // arrive through the front-end, as in production.
    let mut shards: Vec<Option<(Arc<Server>, trajcl_serve::NetServer)>> = (0..FLEET_SHARDS)
        .map(|_| {
            let server = Arc::new(
                Server::new(
                    Arc::new(engine_with(None)),
                    ServeConfig {
                        workers: WORKERS,
                        ..ServeConfig::default()
                    },
                )
                .expect("shard server"),
            );
            let net = trajcl_serve::net::listen(Arc::clone(&server), "127.0.0.1:0", WORKERS)
                .expect("shard listen");
            Some((server, net))
        })
        .collect();
    let addrs: Vec<String> = shards
        .iter()
        .map(|s| s.as_ref().expect("live shard").1.local_addr().to_string())
        .collect();

    let fleet = Arc::new(Fleet::connect(&addrs, FleetConfig::default()).expect("fleet connect"));
    let front = trajcl_serve::net::listen_with(
        Arc::clone(&fleet),
        "127.0.0.1:0",
        WORKERS,
        SessionOptions::default(),
    )
    .expect("front-end listen");
    let addr = front.local_addr().to_string();
    let clients: Vec<Mutex<Client>> = (0..TCP_CLIENTS)
        .map(|_| Mutex::new(Client::connect(&addr).expect("connect")))
        .collect();

    // Seed every row through the front-end (hash-routed to its owner
    // shard), then seal so reads hit the scatter-gather path.
    {
        let mut seeder = clients[0].lock().expect("client mutex");
        for (j, t) in workload(FLEET_DB, 0).iter().enumerate() {
            let reply = seeder
                .call(&format!(
                    "{{\"op\":\"upsert\",\"id\":{j},\"traj\":{}}}",
                    traj_json(t)
                ))
                .expect("seed upsert");
            assert!(reply.contains("\"ok\":true"), "seed failed: {reply}");
        }
        let reply = seeder.call("{\"op\":\"compact\"}").expect("compact");
        assert!(reply.contains("\"ok\":true"), "compact failed: {reply}");
    }

    let hot = workload(HOT_QUERIES, 7);
    let knn_payloads: Vec<String> = hot
        .iter()
        .map(|t| format!("{{\"op\":\"knn\",\"traj\":{},\"k\":{K}}}", traj_json(t)))
        .collect();
    let mut cells = Vec::new();

    // Healthy fleet: all four shards answer every query in full.
    let cell = run_cell(TCP_CLIENTS, warmup, measure, |client, i| {
        let reply = clients[client]
            .lock()
            .expect("client mutex")
            .call(&knn_payloads[i % knn_payloads.len()])
            .expect("knn reply");
        assert!(
            reply.contains("\"partial\":false,\"shards_ok\":4,\"shards_total\":4"),
            "expected a full answer: {reply}"
        );
    });
    eprintln!(
        "fleet_knn_4of4 clients={TCP_CLIENTS:<3} {:>9.1} qps  p50 {:>8.1}us  p99 {:>8.1}us",
        cell.qps, cell.p50_us, cell.p99_us
    );
    cells.push(("fleet_knn_4of4", TCP_CLIENTS, cell));

    // SIGKILL-equivalent teardown of shard 0 (listener gone, every
    // connection severed mid-stream, no protocol goodbye), then drive
    // the health machine to Down so the cell measures the degraded
    // steady state rather than the transition.
    let (server0, net0) = shards[0].take().expect("shard 0 alive");
    net0.shutdown();
    server0.shutdown();
    {
        let mut driver = clients[0].lock().expect("client mutex");
        let mut settled = false;
        for _ in 0..50 {
            let reply = driver.call(&knn_payloads[0]).expect("degraded knn");
            if reply.contains("\"partial\":true,\"shards_ok\":3,\"shards_total\":4") {
                settled = true;
                break;
            }
        }
        assert!(settled, "shard 0 was never marked down by the fleet");
    }
    let cell = run_cell(TCP_CLIENTS, warmup, measure, |client, i| {
        let reply = clients[client]
            .lock()
            .expect("client mutex")
            .call(&knn_payloads[i % knn_payloads.len()])
            .expect("degraded knn reply");
        assert!(
            reply.contains("\"ok\":true"),
            "degraded knn failed: {reply}"
        );
        assert!(
            reply.contains("\"partial\":true,\"shards_ok\":3,\"shards_total\":4"),
            "expected a degraded answer: {reply}"
        );
    });
    eprintln!(
        "fleet_knn_3of4 clients={TCP_CLIENTS:<3} {:>9.1} qps  p50 {:>8.1}us  p99 {:>8.1}us",
        cell.qps, cell.p50_us, cell.p99_us
    );
    cells.push(("fleet_knn_3of4", TCP_CLIENTS, cell));

    drop(clients);
    front.shutdown();
    fleet.shutdown();
    for (server, net) in shards.into_iter().flatten() {
        net.shutdown();
        server.shutdown();
    }

    Snapshot {
        commit: git_commit(),
        label: label.to_string(),
        quick,
        transport: "fleet",
        shards: vec![FLEET_SHARDS],
        cells,
    }
}

/// The durability scenario: the same in-process 8-client upsert cell
/// against a plain server and against one with a write-ahead log, so the
/// ratio isolates exactly what `--wal` adds (group-commit fsync before
/// every ack) with the encoder cache, batcher and index write path held
/// constant.
fn measure_wal(quick: bool, label: &str) -> Snapshot {
    let (warmup, measure) = if quick {
        (Duration::from_millis(100), Duration::from_millis(400))
    } else {
        (Duration::from_millis(250), Duration::from_millis(1500))
    };
    let engine = Arc::new(engine());
    let write_pool = workload(WRITE_POOL, 21);
    let wal_dir = std::env::temp_dir().join(format!("trajcl-walbench-{}", std::process::id()));
    let mut cells = Vec::new();

    for durable in [false, true] {
        let mut cfg = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        if durable {
            cfg.wal = Some(trajcl_serve::WalConfig::new(&wal_dir));
        }
        let server = Server::new(Arc::clone(&engine), cfg).expect("server");
        // Steady-state prewarm, as in the TCP write cells: the measured
        // loop replaces ids at a constant buffer size (and, wal-on, a
        // constant append cadence), instead of growing a prefix. Runs on
        // [`TCP_CLIENTS`] threads so the wal-on prewarm's appends group
        // into shared fsyncs, just like the measured cell.
        std::thread::scope(|scope| {
            for client in 0..TCP_CLIENTS {
                let server = &server;
                let write_pool = &write_pool;
                scope.spawn(move || {
                    for j in (client..WRITE_IDS).step_by(TCP_CLIENTS) {
                        server
                            .upsert(WRITE_BASE + j as u64, &write_pool[j % write_pool.len()])
                            .expect("prewarm upsert");
                    }
                });
            }
        });
        let cell = run_cell(TCP_CLIENTS, warmup, measure, |_, i| {
            server
                .upsert(
                    WRITE_BASE + (i % WRITE_IDS) as u64,
                    &write_pool[i % write_pool.len()],
                )
                .expect("upsert");
        });
        let name = if durable {
            "wal_on_write"
        } else {
            "wal_off_write"
        };
        let log_note = if durable {
            format!("  (log {} KiB)", server.stats().wal_log_bytes / 1024)
        } else {
            String::new()
        };
        eprintln!(
            "{name:<13} clients={TCP_CLIENTS:<3} {:>9.1} qps  p50 {:>8.1}us  p99 {:>8.1}us{log_note}",
            cell.qps, cell.p50_us, cell.p99_us
        );
        cells.push((name, TCP_CLIENTS, cell));
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    Snapshot {
        commit: git_commit(),
        label: label.to_string(),
        quick,
        transport: "wal",
        shards: vec![1],
        cells,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = "BENCH_serve.json".to_string();
    let mut check: Option<String> = None;
    let mut label = "snapshot".to_string();
    let mut transport = "inproc".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = args[i].clone();
            }
            "--transport" => {
                i += 1;
                transport = args[i].clone();
                if !["inproc", "tcp", "fleet", "wal"].contains(&transport.as_str()) {
                    eprintln!("--transport must be inproc, tcp, fleet or wal, got {transport:?}");
                    std::process::exit(2);
                }
            }
            "--check" => {
                i += 1;
                check = Some(args[i].clone());
            }
            "--label" => {
                i += 1;
                label = args[i].clone();
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if transport == "wal" && check.is_some() {
        // Recorded, never gated (see the module docs).
        eprintln!("--transport wal has no --check gate");
        std::process::exit(2);
    }

    let snap = match transport.as_str() {
        "tcp" => measure_tcp(quick, &label),
        "fleet" => measure_fleet(quick, &label),
        "wal" => measure_wal(quick, &label),
        _ => measure_all(quick, &label),
    };

    if transport == "wal" {
        let entry = snap.to_json();
        append_run(&out, &entry);
        eprintln!("recorded run '{}' ({}) -> {out}", snap.label, snap.commit);
        return;
    }

    if transport == "fleet" {
        // Both sides of the gate come from this run: the cells already
        // hard-assert the partial markers, so the gate only has to hold
        // the degraded-throughput floor. `--check FILE` keeps the CLI
        // shape of the other transports; FILE is not consulted.
        let ratio = snap
            .fleet_degraded_ratio()
            .expect("both fleet cells measured");
        if check.is_some() {
            eprintln!(
                "check fleet_degraded_qps_ratio: {ratio:.3} (floor {FLEET_DEGRADED_FLOOR:.3})"
            );
            if ratio < FLEET_DEGRADED_FLOOR {
                eprintln!(
                    "FAIL: degraded fleet throughput below {FLEET_DEGRADED_FLOOR}x the healthy run"
                );
                std::process::exit(1);
            }
            eprintln!("OK: degraded fleet answers partially at full speed");
        } else {
            let entry = snap.to_json();
            append_run(&out, &entry);
            eprintln!("recorded run '{}' ({}) -> {out}", snap.label, snap.commit);
        }
        return;
    }

    if transport == "tcp" {
        if check.is_some() {
            // The shard gate is within-run and absolute: both sides of
            // each ratio come from this run on this machine, so there is
            // no committed baseline to drift — `--check FILE` only keeps
            // the CLI shape of the in-process gate (FILE is not read).
            // Equivalence (sharded == unsharded, bit-identical) already
            // asserted before the sweep.
            let (write_speedup, read_tail) =
                snap.shard_ratios().expect("sweep measured 1 and 4 shards");
            eprintln!(
                "check shard4_write_speedup: {write_speedup:.3} (floor {SHARD_WRITE_FLOOR:.3})"
            );
            eprintln!(
                "check shard4_read_tail_ratio: {read_tail:.3} (ceiling {SHARD_TAIL_CEILING:.3})"
            );
            let mut failed = false;
            if write_speedup < SHARD_WRITE_FLOOR {
                eprintln!(
                    "FAIL: 4-shard write throughput below {SHARD_WRITE_FLOOR}x the 1-shard run"
                );
                failed = true;
            }
            if read_tail > SHARD_TAIL_CEILING {
                eprintln!("FAIL: 4-shard read p99 regressed past the tail-noise band");
                failed = true;
            }
            if failed {
                std::process::exit(1);
            }
            eprintln!("OK: sharding holds its write/read floors");
        } else {
            let entry = snap.to_json();
            append_run(&out, &entry);
            eprintln!("recorded run '{}' ({}) -> {out}", snap.label, snap.commit);
        }
        return;
    }

    if let Some(baseline_path) = check {
        // The gate compares WITHIN-RUN ratios vs. the mutex baseline, not
        // raw qps/latency: both sides of each ratio are measured on the
        // same machine in the same run, so runner speed and scheduler
        // effects cancel and the committed baseline stays comparable
        // across machines. Gated (all vs. last committed entry, 30%):
        //   * speedup_8        — hot serve qps / mutex qps (cache+batcher)
        //   * cold_speedup_8   — cache-off serve qps / mutex qps (batcher)
        //   * cold_tail_ratio_8 — cache-off serve p99 / mutex p99 (lower
        //     is better: the batcher's tail-latency win over convoying)
        let mutex = snap.cell("mutex", 8).copied().expect("mutex@8 measured");
        let hot = snap.cell("serve", 8).copied().expect("serve@8 measured");
        let cold = snap
            .cell("serve_cold", 8)
            .copied()
            .expect("serve_cold@8 measured");
        let ratios = [
            ("speedup_8", hot.qps / mutex.qps, false),
            ("cold_speedup_8", cold.qps / mutex.qps, false),
            ("cold_tail_ratio_8", cold.p99_us / mutex.p99_us, true),
        ];
        let mut failed = false;
        let mut checked = 0usize;
        for (key, measured, lower_is_better) in ratios {
            let Some(base) = last_value(&baseline_path, key) else {
                eprintln!("no {key} baseline in {baseline_path}; skipping");
                continue;
            };
            checked += 1;
            let (bound, budget, ok) = if lower_is_better {
                let ceiling = base * (1.0 + TAIL_REGRESSION);
                (ceiling, TAIL_REGRESSION, measured <= ceiling)
            } else {
                let floor = base * (1.0 - MAX_REGRESSION);
                (floor, MAX_REGRESSION, measured >= floor)
            };
            eprintln!(
                "check {key}: {measured:.3} vs baseline {base:.3} ({} {bound:.3})",
                if lower_is_better { "ceiling" } else { "floor" }
            );
            if !ok {
                eprintln!("FAIL: {key} regressed more than {:.0}%", budget * 100.0);
                failed = true;
            }
        }
        if checked == 0 {
            eprintln!("no usable baseline found in {baseline_path}");
            std::process::exit(2);
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("OK: within the regression budget");
    } else {
        let entry = snap.to_json();
        append_run(&out, &entry);
        eprintln!("recorded run '{}' ({}) -> {out}", snap.label, snap.commit);
    }
}
