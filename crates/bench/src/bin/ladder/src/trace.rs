//! The traced run: per-layer rungs, measured from outside.
//!
//! Spans are recorded here, around single-threaded calls into each
//! layer's public functions — nothing inside the program under test is
//! instrumented (in-program spans are ROADMAP item 1 and will reuse
//! these names). A rung is the median of its calls. Call `i` of every
//! rung replays request `i` of the traced workload where the rung takes
//! a request at all, so the spans of one replayed request share `req`,
//! and a rung names as `parent` the composed rung it is a part of (the
//! layer above it that runs the same code as one call). Because each
//! layer is replayed on its own, a child span does not lie inside its
//! parent's interval; a parent's *self time* is its duration minus its
//! children's durations for the same `req`.

use std::collections::HashMap;
use std::io::{Cursor, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_core::{EncoderVariant, MocoState};
use trajcl_geo::Trajectory;
use trajcl_index::wal::encode_record;
use trajcl_index::{
    brute_force_knn, shard_for, CheckpointEntry, Durability, IndexOptions, IvfIndex, Metric,
    MutableIndex, RealFs, ShardedIndex, Wal, WalOp,
};
use trajcl_serve::proto::{handle, read_frame, write_frame};
use trajcl_serve::{content_hash, json, LruCache, Server, ShardRouter};
use trajcl_tensor::{InferCtx, Shape, Tensor};

use crate::emit::{Measured, RunResult};
use crate::gen::{self, Stream};
use crate::host;
use crate::load::{self, Script, Span as LoadSpan, UpsertStream};
use crate::oracle;
use crate::run::{self, Reduced, RunOptions};
use crate::spec::{Sizing, Workload, PER_LAYER};
use crate::stack::{
    self, connect, knn_payload, scratch_dir, serve_config, traj_json, Inputs, Stack, WRITE_BASE,
};
use crate::stats;

/// Cold-stream indices of the traced replay start here: clear of the
/// measured phase and of the warm-up.
const REPLAY_BASE: u64 = 1 << 41;
/// Calls of a millisecond-scale rung (compaction, checkpoint, training
/// step, bulk embed): enough for a median, few enough to finish.
const SLOW_CALLS: usize = 5;
/// Wall-clock cap on the fsync rung, whose cost is the sandbox's disk.
const FSYNC_BUDGET: Duration = Duration::from_secs(1);
/// Trajectories per `engine.embed_all_tps` call.
const EMBED_ALL_TRAJS: usize = 1024;
/// Ids the small write rungs cycle through.
const SMALL_BUFFER: usize = 1024;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Rung name.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// The composed rung this call is a part of, if any.
    pub parent: Option<&'static str>,
    /// The replayed request this call belongs to.
    pub req: u32,
}

impl SpanRec {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    /// Rung names in first-recorded order, each with the ids (positions
    /// in `spans`) of its calls; call `i` of a rung has `req == i`.
    rungs: Vec<(&'static str, Vec<usize>)>,
}

/// One row of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct RungRow {
    /// Rung name.
    pub name: &'static str,
    /// Calls recorded.
    pub calls: usize,
    /// Median duration in microseconds.
    pub median_us: f64,
    /// Median over requests of duration minus children, in microseconds.
    pub self_us: f64,
    /// The rung it is a part of.
    pub parent: Option<&'static str>,
}

impl Tracer {
    /// An empty trace starting now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            rungs: Vec::new(),
        }
    }

    /// Times one call of `f` as the next call of rung `name`; its `req`
    /// is its position within the rung.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.push(name, parent, start.as_nanos() as u64, end.as_nanos() as u64);
        out
    }

    /// Files one call of rung `name` that ran from `start_ns` to `end_ns`.
    fn push(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        let slot = match self.rungs.iter().position(|(n, _)| *n == name) {
            Some(slot) => slot,
            None => {
                self.rungs.push((name, Vec::new()));
                self.rungs.len() - 1
            }
        };
        let calls = &mut self.rungs[slot].1;
        calls.push(self.spans.len());
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            req: (calls.len() - 1) as u32,
        });
    }

    /// Times `calls` calls of `f` as rung `name`; call `i` gets `req = i`.
    pub fn rung(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        calls: usize,
        mut f: impl FnMut(usize),
    ) {
        for i in 0..calls {
            self.record(name, parent, || f(i));
        }
    }

    fn ids(&self, name: &str) -> &[usize] {
        self.rungs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, ids)| ids)
    }

    /// Median duration of a rung in microseconds; NaN when never run.
    pub fn median_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .ids(name)
            .iter()
            .map(|&id| self.spans[id].duration_ns() as f64 / 1e3)
            .collect();
        stats::median(&durations).unwrap_or(f64::NAN)
    }

    /// The per-layer table: one row per rung, in first-recorded order.
    pub fn rows(&self) -> Vec<RungRow> {
        self.rungs
            .iter()
            .map(|(name, ids)| {
                let children: Vec<&[usize]> = self
                    .rungs
                    .iter()
                    .filter(|(_, c)| {
                        c.first()
                            .is_some_and(|&id| self.spans[id].parent == Some(*name))
                    })
                    .map(|(_, c)| &c[..])
                    .collect();
                let self_times: Vec<f64> = ids
                    .iter()
                    .enumerate()
                    .map(|(req, &id)| {
                        let covered: u64 = children
                            .iter()
                            .filter_map(|c| c.get(req))
                            .map(|&child| self.spans[child].duration_ns())
                            .sum();
                        (self.spans[id].duration_ns() as f64 - covered as f64) / 1e3
                    })
                    .collect();
                RungRow {
                    name,
                    calls: ids.len(),
                    median_us: self.median_us(name),
                    self_us: stats::median(&self_times).unwrap_or(f64::NAN),
                    parent: ids.first().and_then(|&id| self.spans[id].parent),
                }
            })
            .collect()
    }

    /// Writes one JSON object per span: `name`, `start_ns`, `end_ns`,
    /// `parent` (the id — line number from 0 — of the parent rung's span
    /// for the same `req`, or `null`) and `req`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for span in &self.spans {
            let parent = span.parent.and_then(|p| self.ids(p).get(span.req as usize));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                parent.map_or("null".to_string(), |id| id.to_string()),
                span.req
            )?;
        }
        Ok(())
    }
}

/// What a traced run hands back.
pub struct Traced {
    /// The per-layer metrics in declaration order.
    pub result: RunResult,
    /// The rung table, ready to print.
    pub table: Vec<String>,
    /// Where the spans were written.
    pub span_file: PathBuf,
    /// Failure descriptions.
    pub notes: Vec<String>,
}

fn embedding_of(server: &Server, traj: &Trajectory) -> Vec<f32> {
    server.embed(traj).expect("embed")
}

/// A fresh server over the same engine and index layout: a cold query
/// can miss the cache only once per server, so every composed rung of
/// the cold replay gets its own.
fn fresh_server(stack: &Stack, sizing: &Sizing) -> Server {
    Server::new(
        Arc::clone(stack.engine()),
        serve_config(sizing.shards, sizing),
    )
    .expect("server")
}

/// Runs the traced workload for a short phase, then measures every rung.
pub fn trace(opts: &RunOptions) -> Traced {
    let sizing = opts.sizing;
    let workload = opts.workload;
    let inputs = Inputs::generate(opts.seed, &sizing);
    let calib_mops = host::calib_mops();

    // The workload itself, briefly: server counters and generator
    // health.
    let phase_opts = RunOptions {
        seconds: sizing.trace_phase_seconds,
        ..*opts
    };
    let phase = Duration::from_secs(sizing.trace_phase_seconds);
    let (round, own) = run::measure_round(&phase_opts, &inputs, None, 0, phase);
    let reduced = run::reduce(&phase_opts, std::slice::from_ref(&round));

    // Every trace measures every rung, so it needs both kinds of stack:
    // the workload's own plus whichever kind that is not.
    let own_is_fleet = own.is_fleet();
    let (tcp, fleet) = if own_is_fleet {
        (Stack::bring_up(Workload::TcpKnnHot, &inputs, &sizing), own)
    } else {
        let fleet = Stack::fleet(&inputs.db, &sizing);
        (own, fleet)
    };

    let mut tracer = Tracer::new();
    // Values the rungs compute besides span medians.
    let mut extras: HashMap<&'static str, f64> = HashMap::new();
    // Failures of the phase count; the phase's missing end-to-end metrics
    // (a traced fleet brings no recall reference) do not.
    let mut notes = round.notes.clone();
    let cold_kind = workload.is_cold();
    let (n, slow_n, k) = (sizing.rung_calls, sizing.slow_rung_calls, sizing.k);
    let server = Arc::clone(tcp.server());
    let engine = Arc::clone(tcp.engine());
    let nprobe = engine.nprobe();
    let table = engine.embeddings().expect("database embeddings").clone();
    let dim = table.shape().last();
    let (model, featurizer) = stack::model_parts();
    let mut ctx = InferCtx::new();

    let hot = &inputs.hot;
    let hot_payloads: Vec<String> = hot.iter().map(|t| knn_payload(None, t, k)).collect();
    let hot_queries: Vec<Vec<f32>> = hot.iter().map(|t| embedding_of(&server, t)).collect();
    let mut lru = LruCache::new(4096);
    for (t, q) in hot.iter().zip(&hot_queries) {
        lru.put(content_hash(t), t.clone(), q.clone());
    }
    let cold: Vec<Trajectory> = (0..slow_n as u64)
        .map(|i| gen::trajectory(opts.seed, Stream::Cold, REPLAY_BASE + i))
        .collect();
    let mut fleet_client = connect(fleet.addr()).expect("fleet connect");
    let mut client = connect(tcp.addr()).expect("trace connect");
    let mut partial = 0usize;
    let mut fleet_knn = |tracer: &mut Tracer, i: usize| {
        let reply = tracer.record("serve.fleet.rtt_knn_us", None, || {
            fleet_client.call(&hot_payloads[i % hot_payloads.len()])
        });
        if !reply.expect("fleet knn").contains("\"partial\":false") {
            partial += 1;
        }
    };

    // ---- The replay: one request at a time through every layer -----
    // Layers of one request are timed back to back, so a drift in the
    // host's speed moves a rung and the rungs it is made of together.
    const RTT: &str = "serve.net.rtt_knn_us";
    const HANDLE: &str = "serve.proto.handle_knn_us";
    const KNN_HOT: &str = "serve.server.knn_hot_us";
    const MISS: &str = "serve.server.embed_miss_us";
    const ROUTER: &str = "serve.router.search_us";
    let root = own_is_fleet.then_some("serve.fleet.rtt_knn_us");
    let mut payloads = Vec::new();
    let mut replies = Vec::new();
    if cold_kind {
        // A cold query misses the cache once per server, so each
        // composed layer replays it against a server of its own.
        let handler = fresh_server(&tcp, &sizing);
        let misser = fresh_server(&tcp, &sizing);
        for traj in &cold {
            let payload = knn_payload(None, traj, k);
            let reply = tracer.record(RTT, root, || client.call(&payload));
            replies.push(reply.expect("knn over tcp"));
            tracer.record(HANDLE, Some(RTT), || handle(&handler, &payload));
            tracer
                .record("serve.json.parse_knn_us", Some(HANDLE), || {
                    json::parse(&payload)
                })
                .expect("request parses");
            let q = tracer
                .record(MISS, Some(HANDLE), || misser.embed(traj))
                .expect("embed miss");
            let featurized = tracer
                .record("core.featurizer.featurize_us", Some(MISS), || {
                    featurizer.featurize(std::slice::from_ref(traj))
                })
                .expect("featurize");
            let h = tracer.record("core.model.forward_b1_us", Some(MISS), || {
                model.infer_h(&mut ctx, &featurized)
            });
            ctx.recycle(h);
            tracer.record(ROUTER, Some(HANDLE), || {
                server.router().search(engine.embeddings(), &q, k, nprobe)
            });
            tracer.record("index.sharded.search_us", Some(ROUTER), || {
                server.index().search(&q, k, nprobe)
            });
            payloads.push(payload);
        }
        handler.shutdown();
        misser.shutdown();
    } else {
        for i in 0..n {
            let (traj, q) = (&hot[i % hot.len()], &hot_queries[i % hot.len()]);
            let payload = &hot_payloads[i % hot.len()];
            if own_is_fleet {
                fleet_knn(&mut tracer, i);
            }
            let reply = tracer.record(RTT, root, || client.call(payload));
            replies.push(reply.expect("knn over tcp"));
            // This thread just slept in a socket read; one untimed call
            // first, so the layers below are timed as warm as each other.
            // What waking up costs stays in the round trip, where a
            // server thread pays it too.
            std::hint::black_box(handle(&server, payload));
            tracer.record(HANDLE, Some(RTT), || handle(&server, payload));
            tracer
                .record("serve.json.parse_knn_us", Some(HANDLE), || {
                    json::parse(payload)
                })
                .expect("request parses");
            tracer
                .record(KNN_HOT, Some(HANDLE), || server.knn(traj, k))
                .expect("knn");
            tracer.record("serve.cache.hit_us", Some(KNN_HOT), || {
                lru.get(content_hash(traj), traj).is_some()
            });
            tracer.record(ROUTER, Some(KNN_HOT), || {
                server.router().search(engine.embeddings(), q, k, nprobe)
            });
            tracer.record("index.sharded.search_us", Some(ROUTER), || {
                server.index().search(q, k, nprobe)
            });
            payloads.push(payload.clone());
        }
    }
    for (i, reply) in replies.iter().enumerate() {
        if let Err(why) = oracle::parse_reply(reply) {
            notes.push(format!("traced request {i}: {why}"));
        }
    }

    // ---- The rungs the replay of this workload does not pass through
    if cold_kind {
        tracer.rung(KNN_HOT, None, n, |i| {
            std::hint::black_box(server.knn(&hot[i % hot.len()], k).expect("knn"));
        });
        tracer.rung("serve.cache.hit_us", None, n, |i| {
            let traj = &hot[i % hot.len()];
            std::hint::black_box(lru.get(content_hash(traj), traj).is_some());
        });
    } else {
        let misser = fresh_server(&tcp, &sizing);
        for traj in &cold {
            tracer
                .record(MISS, None, || misser.embed(traj))
                .expect("embed miss");
            let featurized = tracer
                .record("core.featurizer.featurize_us", None, || {
                    featurizer.featurize(std::slice::from_ref(traj))
                })
                .expect("featurize");
            let h = tracer.record("core.model.forward_b1_us", None, || {
                model.infer_h(&mut ctx, &featurized)
            });
            ctx.recycle(h);
        }
        misser.shutdown();
    }
    if !own_is_fleet {
        for i in 0..n {
            fleet_knn(&mut tracer, i);
        }
    }
    extras.insert("serve.fleet.partial_share", partial as f64 / n as f64);
    tracer.rung("serve.fleet.rtt_ping_us", None, n, |_| {
        fleet_client.call("{\"op\":\"ping\"}").expect("fleet ping");
    });
    tracer.rung("serve.net.rtt_ping_us", None, n, |_| {
        client.call("{\"op\":\"ping\"}").expect("ping");
    });
    // The fleet's own cost is what it adds to the same hot request sent
    // straight to one server; the cold replay's round trips are no such
    // baseline, so a cold trace takes one here.
    let hot_rtt_us = if cold_kind {
        let mut baseline = Tracer::new();
        baseline.rung("hot", None, n, |i| {
            client
                .call(&hot_payloads[i % hot_payloads.len()])
                .expect("hot knn");
        });
        baseline.median_us("hot")
    } else {
        tracer.median_us(RTT)
    };

    // ---- Wire ladder, the pieces that take no server ----------------
    tracer.rung("serve.json.parse_reply_us", None, replies.len(), |i| {
        std::hint::black_box(json::parse(&replies[i]).expect("reply parses"));
    });
    tracer.rung("serve.proto.frame_us", None, payloads.len(), |i| {
        let mut wire = Vec::with_capacity(payloads[i].len() + 16);
        write_frame(&mut wire, &payloads[i]).expect("frame");
        std::hint::black_box(read_frame(&mut Cursor::new(wire)).expect("unframe"));
    });
    let median_len = |texts: &[String]| {
        let lens: Vec<f64> = texts.iter().map(|t| t.len() as f64).collect();
        stats::median(&lens).unwrap_or(f64::NAN)
    };
    extras.insert("serve.json.knn_request_bytes", median_len(&payloads));
    extras.insert("serve.json.knn_reply_bytes", median_len(&replies));

    // ---- Embed ladder, the bulk rungs -------------------------------
    tracer.rung(
        "core.model.forward_b32",
        None,
        (slow_n / 32).max(SLOW_CALLS),
        |i| {
            let chunk: Vec<Trajectory> = (0..32)
                .map(|j| cold[(i * 32 + j) % cold.len()].clone())
                .collect();
            std::hint::black_box(model.embed_chunked_with(&mut ctx, &featurizer, &chunk, 32));
        },
    );
    extras.insert(
        "core.model.forward_b32_us_per_traj",
        tracer.median_us("core.model.forward_b32") / 32.0,
    );
    let lanes = trajcl_tensor::pool::threads();
    tracer.rung("tensor.pool.region_overhead_us", None, n, |_| {
        trajcl_tensor::pool::global().run(lanes, |lane| {
            std::hint::black_box(lane);
        });
    });
    let bulk: Vec<Trajectory> = (0..EMBED_ALL_TRAJS)
        .map(|i| inputs.db[i % inputs.db.len()].clone())
        .collect();
    tracer.rung("engine.embed_all", None, 3, |_| {
        std::hint::black_box(engine.embed_all(&bulk).expect("embed_all"));
    });
    extras.insert(
        "engine.embed_all_tps",
        EMBED_ALL_TRAJS as f64 / (tracer.median_us("engine.embed_all") / 1e6),
    );
    {
        let mut rng = StdRng::seed_from_u64(0);
        let mut moco = MocoState::new(&stack::model_config(), EncoderVariant::Dual, &mut rng);
        let mut adam = trajcl_nn::Adam::new(1e-3);
        let batch: Vec<Trajectory> = inputs.db.iter().take(32).cloned().collect();
        tracer.rung("core.trainer.step", None, 3, |_| {
            std::hint::black_box(moco.train_step(&batch, &featurizer, &mut adam, &mut rng));
        });
        extras.insert(
            "core.trainer.step_ms",
            tracer.median_us("core.trainer.step") / 1e3,
        );
    }

    // ---- Read ladder below the shards (hot-pool embeddings) ---------
    let hot_q = |i: usize| &hot_queries[i % hot_queries.len()][..];
    // One shard's share of the rows, as the layers below a shard see it.
    let shard_rows: Vec<usize> = (0..table.shape().rows())
        .filter(|&row| shard_for(row as u64, sizing.shards) == 0)
        .collect();
    let shard_table = {
        let mut data = Vec::with_capacity(shard_rows.len() * dim);
        for &row in &shard_rows {
            data.extend_from_slice(table.row(row));
        }
        Tensor::from_vec(data, Shape::d2(shard_rows.len(), dim))
    };
    let shard_ids: Vec<u64> = shard_rows.iter().map(|&r| r as u64).collect();
    let index_opts = IndexOptions {
        nlist: Some(sizing.nlist),
        ..IndexOptions::default()
    };
    let sealed =
        MutableIndex::from_table_with(shard_ids.clone(), &shard_table, Metric::L1, index_opts);
    tracer.rung("index.mutable.search_sealed_us", None, n, |i| {
        std::hint::black_box(sealed.search(hot_q(i), k, nprobe));
    });
    let ivf = IvfIndex::build(
        &shard_table,
        sizing.nlist,
        Metric::L1,
        &mut StdRng::seed_from_u64(0),
    );
    tracer.rung("index.ivf.search_us", None, n, |i| {
        std::hint::black_box(ivf.search(hot_q(i), k, nprobe));
    });
    tracer.rung("index.kernels.scan", None, n, |i| {
        std::hint::black_box(brute_force_knn(&table, hot_q(i), k, Metric::L1));
    });
    extras.insert(
        "index.kernels.scan_ns_per_row",
        tracer.median_us("index.kernels.scan") * 1e3 / table.shape().rows() as f64,
    );

    // ---- Write ladder ----------------------------------------------
    let row_vec = |j: usize| table.row(j % table.shape().rows()).to_vec();
    let fill = |index: &MutableIndex, rows: usize| {
        for j in 0..rows {
            index.upsert(WRITE_BASE + j as u64, row_vec(j));
        }
    };
    fill(&sealed, SMALL_BUFFER);
    tracer.rung("index.mutable.upsert_us_buf1k", None, n, |i| {
        sealed.upsert(WRITE_BASE + (i % SMALL_BUFFER) as u64, row_vec(i + 1));
    });
    for _ in 0..SLOW_CALLS {
        tracer.record("index.mutable.compact", None, || sealed.compact());
        fill(&sealed, SMALL_BUFFER); // re-arm, untimed
    }
    extras.insert(
        "index.mutable.compact_ms",
        tracer.median_us("index.mutable.compact") / 1e3,
    );
    let big = MutableIndex::from_table_with(shard_ids, &shard_table, Metric::L1, index_opts);
    fill(&big, sizing.big_buffer);
    tracer.rung("index.mutable.upsert_us_buf32k", None, slow_n, |i| {
        big.upsert(WRITE_BASE + (i % sizing.big_buffer) as u64, row_vec(i + 1));
    });
    tracer.rung("index.mutable.search_buffered_us", None, slow_n, |i| {
        std::hint::black_box(big.search(hot_q(i), k, nprobe));
    });
    drop(big);

    let wal_dir = scratch_dir().join(format!("wal-rungs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let op = |i: usize| WalOp::Upsert {
        id: WRITE_BASE + i as u64,
        vector: row_vec(i),
    };
    extras.insert(
        "index.wal.bytes_per_upsert",
        encode_record(&op(0)).len() as f64,
    );
    {
        let (wal, _) = Wal::open(&wal_dir, "buffered", Durability::Buffered, Arc::new(RealFs))
            .expect("open wal");
        tracer.rung("index.wal.append_buffered_us", None, n, |i| {
            wal.append_durable(&op(i)).expect("append");
        });
        let entries: Vec<CheckpointEntry> = (0..sizing.big_buffer)
            .map(|j| CheckpointEntry {
                id: j as u64,
                dirty: true,
                vector: row_vec(j),
            })
            .collect();
        tracer.rung("index.wal.checkpoint", None, SLOW_CALLS, |_| {
            wal.checkpoint(dim, &entries).expect("checkpoint");
        });
        extras.insert(
            "index.wal.checkpoint_ms",
            tracer.median_us("index.wal.checkpoint") / 1e3,
        );
        let (synced, _) =
            Wal::open(&wal_dir, "fsync", Durability::Fsync, Arc::new(RealFs)).expect("open wal");
        let began = Instant::now();
        for i in 0..slow_n {
            if i >= SLOW_CALLS && began.elapsed() > FSYNC_BUDGET {
                break;
            }
            tracer.record("index.wal.append_fsync_us", None, || {
                synced.append_durable(&op(i)).expect("fsync append");
            });
        }
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    let router = ShardRouter::new(
        ShardedIndex::from_table_with(
            (0..table.shape().rows() as u64).collect(),
            &table,
            Metric::L1,
            index_opts,
            sizing.shards,
        ),
        true,
    );
    for j in 0..SMALL_BUFFER {
        router
            .upsert(WRITE_BASE + j as u64, row_vec(j))
            .expect("router upsert");
    }
    tracer.rung("serve.router.upsert_us", None, n, |i| {
        router
            .upsert(WRITE_BASE + (i % SMALL_BUFFER) as u64, row_vec(i + 1))
            .expect("router upsert");
    });
    drop(router);
    let writer = fresh_server(&tcp, &sizing);
    let write_of = |j: usize| &inputs.write[j % inputs.write.len()];
    for j in 0..SMALL_BUFFER {
        writer
            .upsert(WRITE_BASE + j as u64, write_of(j))
            .expect("server upsert");
    }
    tracer.rung("serve.server.upsert_hot_us", None, n, |i| {
        let j = i % SMALL_BUFFER;
        writer
            .upsert(WRITE_BASE + j as u64, write_of(j))
            .expect("server upsert");
    });
    writer.shutdown();
    let own_stack = if own_is_fleet { &fleet } else { &tcp };
    extras.insert(
        "serve.server.index_memory_bytes",
        own_stack.stats().index_memory_bytes as f64,
    );

    // ---- The write probe, last: it changes what the index holds ----
    let upsert = match reduced.upsert {
        Some(stream) => stream,
        None => write_probe(own_stack, &inputs, &sizing, &mut notes),
    };
    for (name, value) in [
        "client.upsert_qps",
        "client.upsert_p50_us",
        "client.upsert_p99_us",
    ]
    .into_iter()
    .zip(upsert)
    {
        extras.insert(name, value);
    }
    drop(fleet_client);
    drop(client);
    tcp.shutdown();
    fleet.shutdown();

    // ---- Derived rungs and the result ------------------------------
    let median = |name: &str| tracer.median_us(name);
    extras.insert("serve.net.self_us", median(RTT) - median(HANDLE));
    extras.insert(
        "serve.fleet.self_us",
        median("serve.fleet.rtt_knn_us") - hot_rtt_us,
    );
    extras.insert(
        "serve.batcher.hop_us",
        median(MISS) - median("core.featurizer.featurize_us") - median("core.model.forward_b1_us"),
    );
    // What of a handled request no rung below it accounts for: argument
    // conversion, counters, printing the reply.
    let decomposed = if cold_kind {
        median("serve.json.parse_knn_us") + median(MISS) + median(ROUTER)
    } else {
        median("serve.json.parse_knn_us") + median(KNN_HOT)
    };
    extras.insert(
        "serve.server.unattributed_share",
        1.0 - decomposed / median(HANDLE),
    );
    let looked_up = reduced.stats.cache_hits + reduced.stats.cache_misses;
    extras.insert(
        "serve.cache.hit_ratio",
        reduced.stats.cache_hits as f64 / looked_up.max(1) as f64,
    );
    // A hot phase never reaches the batcher: no batch, no trajectories.
    extras.insert(
        "serve.batcher.trajs_per_batch",
        reduced.stats.batched_trajs as f64 / reduced.stats.batches.max(1) as f64,
    );
    extras.insert("client.knn_p90_us", reduced.knn_p90_us);
    extras.insert("client.knn_p99_us", reduced.knn_p99_us);
    for (name, metric) in [
        ("client.knn_qps_best_quarter", "knn_qps"),
        ("client.knn_p50_us_best_quarter", "knn_p50_us"),
    ] {
        let detail = reduced.details.iter().find(|d| d.name == metric);
        extras.insert(name, detail.map_or(f64::NAN, |d| d.better_quarter));
    }
    extras.insert("client.late_share", reduced.late_share);
    extras.insert("client.window_iqr_share", headline_iqr(&reduced, workload));
    extras.insert("client.quiet_window_share", reduced.quiet_share);
    // The supervising parent's to set: this process cannot know how
    // many attempts died before it.
    extras.insert("client.crash_retries", 0.0);
    extras.insert("host.steal_share", reduced.steal_share);
    // The traced phase's pace; the rungs themselves are raw times.
    extras.insert(
        "host.slowdown",
        reduced
            .slowdowns
            .first()
            .map_or(f64::NAN, |(_, span)| *span),
    );
    extras.insert("host.calib_mops", calib_mops);

    let metrics: Vec<Measured> = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name.to_string(),
            value: extras
                .get(m.name)
                .copied()
                .unwrap_or_else(|| tracer.median_us(m.name)),
            unit: m.unit.to_string(),
        })
        .collect();
    let mut result = RunResult {
        correct: false,
        attempted: reduced.result.attempted,
        failed: reduced.result.failed,
        metrics,
    };
    for name in result.missing(PER_LAYER) {
        notes.push(format!("declared metric {name} is absent or not finite"));
    }
    result.correct =
        notes.is_empty() && reduced.result.failed == 0 && reduced.late_share <= run::MAX_LATE_SHARE;

    let span_file = scratch_dir().join(format!("trace-{}.jsonl", workload.name()));
    let written = std::fs::create_dir_all(scratch_dir())
        .and_then(|()| std::fs::File::create(&span_file))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            tracer.write_jsonl(&mut out)?;
            out.flush()
        });
    if let Err(e) = written {
        notes.push(format!("span file {}: {e}", span_file.display()));
        result.correct = false;
    }
    Traced {
        result,
        table: render(&tracer.rows()),
        span_file,
        notes,
    }
}

/// `(Q3 − Q1) / median` over windows of the workload's headline metric:
/// throughput on a closed loop, median latency on the open loop (whose
/// throughput is the schedule's).
fn headline_iqr(reduced: &Reduced, workload: Workload) -> f64 {
    let headline = if workload.is_cold() {
        "knn_p50_us"
    } else {
        "knn_qps"
    };
    reduced
        .details
        .iter()
        .find(|d| d.name == headline)
        .map_or(f64::NAN, |d| d.summary.iqr_share())
}

/// One closed-loop upsert connection against an otherwise idle stack,
/// for the workloads that carry no writes of their own: qps, p50 and p99
/// of a one-second stream over a small id range.
fn write_probe(
    stack: &Stack,
    inputs: &Inputs,
    sizing: &Sizing,
    notes: &mut Vec<String>,
) -> [f64; 3] {
    let encoded: Vec<String> = inputs.write.iter().map(traj_json).collect();
    let stream = UpsertStream {
        traj_json: &encoded,
        write_ids: SMALL_BUFFER,
        expect_replace: false,
    };
    let scripts: [&dyn Script; 1] = [&stream];
    let length = Duration::from_secs(1);
    let outcomes = load::closed_loop(
        stack.addr(),
        &scripts,
        sizing.warmup_requests.min(64),
        || LoadSpan {
            start: Instant::now(),
            length,
        },
    );
    let outcome = &outcomes[0];
    notes.extend(outcome.notes.iter().cloned());
    let mut latencies: Vec<u64> = outcome.samples.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    let us = |ns: Option<u64>| ns.map_or(f64::NAN, |ns| ns as f64 / 1e3);
    [
        latencies.len() as f64 / length.as_secs_f64(),
        us(stats::percentile(&latencies, 0.50)),
        us(stats::tail_percentile(&latencies, 0.99, stats::MIN_BEYOND).map(|(v, _)| v)),
    ]
}

/// The rung table as text, indented under its parents.
fn render(rows: &[RungRow]) -> Vec<String> {
    let mut lines = vec![format!(
        "  {:<44} {:>12} {:>12} {:>7}  part of",
        "rung", "median us", "self us", "calls"
    )];
    for row in rows {
        lines.push(format!(
            "  {:<44} {:>12.3} {:>12.3} {:>7}  {}",
            row.name,
            row.median_us,
            row.self_us,
            row.calls,
            row.parent.unwrap_or("-")
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_for_the_same_request() {
        // Request `req` spends (900 + req) us in `outer`, of which 300
        // and 200 in its two parts; the parts are timed after it, not
        // inside it.
        let mut t = Tracer::new();
        let mut clock = 0u64;
        let mut call = |t: &mut Tracer, name, parent, us: u64| {
            t.push(name, parent, clock, clock + us * 1000);
            clock += us * 1000 + 50;
        };
        for req in 0..5 {
            call(&mut t, "outer", None, 900 + req);
            call(&mut t, "inner.a", Some("outer"), 300);
            call(&mut t, "inner.b", Some("outer"), 200);
        }
        for _ in 0..3 {
            call(&mut t, "alone", None, 50);
        }
        let rows = t.rows();
        assert_eq!(
            rows.iter().map(|r| r.name).collect::<Vec<_>>(),
            ["outer", "inner.a", "inner.b", "alone"]
        );
        let outer = &rows[0];
        assert_eq!((outer.calls, outer.parent), (5, None));
        assert_eq!((outer.median_us, outer.self_us), (902.0, 402.0));
        assert_eq!(rows[1].parent, Some("outer"));
        // A leaf's self time is its duration.
        assert_eq!((rows[3].median_us, rows[3].self_us), (50.0, 50.0));
        assert!(t.median_us("never").is_nan());
        // `record` files what the clock says around the call.
        let answer = t.record("timed", None, || 7);
        assert_eq!(answer, 7);
        assert!(t.median_us("timed") >= 0.0);
    }

    #[test]
    fn span_file_links_children_to_their_request() {
        let mut t = Tracer::new();
        t.rung("outer", None, 2, |_| {});
        t.rung("inner", Some("outer"), 3, |_| {});
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let spans: Vec<json::Json> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(spans.len(), 5);
        let field = |i: usize, key: &str| spans[i].get(key).cloned().unwrap();
        assert_eq!(field(0, "parent"), json::Json::Null);
        // inner call 1 (line 3) belongs to request 1, whose outer span is line 1.
        assert_eq!(field(3, "name").as_str(), Some("inner"));
        assert_eq!(field(3, "req").as_u64(), Some(1));
        assert_eq!(field(3, "parent").as_u64(), Some(1));
        // inner call 2 has no outer span to point at.
        assert_eq!(field(4, "parent"), json::Json::Null);
        assert!(field(2, "end_ns").as_u64() >= field(2, "start_ns").as_u64());
    }
}
