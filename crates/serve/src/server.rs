//! [`Server`]: the concurrent serving runtime over an [`Engine`].
//!
//! Request flow for an embedding-backed query:
//!
//! ```text
//! caller ──► LRU cache ──miss──► micro-batcher ──► fused forward
//!    │           │ hit            (worker pool)     (Engine::embed_all)
//!    │           ▼
//!    └──► MutableIndex snapshot ──► (id, distance) hits
//! ```
//!
//! A miss that arrives alone — nothing queued, a forward slot free —
//! skips the batcher and runs `Engine::embed_all` on the calling thread
//! (see [`crate::batcher`]); bursts queue and fuse.
//!
//! Everything is `&self`: the server is shared across any number of
//! threads (the CLI's stdin dispatcher, the listener's connection
//! handlers, the concurrency tests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use trajcl_engine::{Engine, EngineError};
use trajcl_geo::{validate_batch, Trajectory};
use trajcl_index::{IndexOptions, Metric, ShardedIndex};

use crate::batcher::{BatchPolicy, BatchStats, Batcher, EmbedJob};
use crate::cache::{content_hash, LruCache};
use crate::net::SessionOptions;
use crate::router::{ShardRouter, WalConfig, WalRecoveryStats};

/// Tuning knobs for [`Server::new`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Batcher worker threads (one fused forward in flight each).
    pub workers: usize,
    /// Maximum trajectories fused into one forward pass.
    pub max_batch: usize,
    /// How long a worker holds a non-full batch open for stragglers.
    pub max_wait: Duration,
    /// Bounded request-queue capacity (submitters block when full).
    pub queue_cap: usize,
    /// LRU embedding-cache entries; `0` disables the cache.
    pub cache_cap: usize,
    /// IVF cells for the server's mutable index; `None` inherits the
    /// engine's configuration. Setting it here (instead of building an
    /// engine-side index the server would never consult) avoids training
    /// k-means twice over the same table. Everything else about the
    /// index — seed, storage quantization, rescore factor, scan kernel —
    /// is the engine's [`Engine::index_options`], taken whole. A
    /// quantized sealed part ([`trajcl_index::Quantization`]) keeps no
    /// exact copy to rescore against (by design: that copy would forfeit
    /// the compression), so served quantized distances are asymmetric
    /// (exact query vs quantized rows) within the codebook's error bound
    /// — except where [`ServeConfig::rescore_sealed`] recovers exact
    /// values.
    pub ivf_nlist: Option<usize>,
    /// Rescore sealed quantized hits against the engine's cached exact
    /// embedding table (default `true`). Ids seeded from the engine's
    /// database and never re-upserted since still match that table, so
    /// their served distances come back exact; ids upserted through the
    /// server have no exact counterpart and keep asymmetric distances
    /// (the mixed-ordering caveat documented on
    /// [`trajcl_index::IndexSnapshot::search_rescored`]). No effect on
    /// unquantized indexes or engines without cached embeddings.
    pub rescore_sealed: bool,
    /// How many hash-on-id index shards to partition the served vectors
    /// into; `None` means 1, the unsharded degenerate case. Each shard
    /// has its own write lock, snapshot and compaction; kNN
    /// scatter-gathers across all of them (see DESIGN.md §13).
    pub shards: Option<usize>,
    /// Network sessions quiet for this long are reaped (socket shut
    /// down, threads wound down) — `--idle-timeout-ms` on the CLI,
    /// `None` disables reaping. Applies to [`crate::net::listen`]
    /// sessions, not the stdin/stdout pipe.
    pub idle_timeout: Option<Duration>,
    /// Per-write deadline on network sessions: a client that stops
    /// draining its socket is dropped instead of wedging a handler
    /// thread. `None` disables it.
    pub session_write_timeout: Option<Duration>,
    /// Write-ahead logging (`None`: no log, writes live in memory
    /// only). With a WAL, [`Server::new`] first *recovers*
    /// ([`ShardRouter::recover`]): each shard reloads its last
    /// checkpoint (or keeps the engine-seeded table on first boot) and
    /// replays its log tail; afterwards every
    /// upsert/remove/compact is appended and made durable per
    /// [`WalConfig::durability`] **before** it is applied or
    /// acknowledged.
    pub wal: Option<WalConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            max_batch: 128,
            max_wait: Duration::from_millis(2),
            queue_cap: 1024,
            cache_cap: 4096,
            ivf_nlist: None,
            rescore_sealed: true,
            shards: None,
            idle_timeout: SessionOptions::default().idle_timeout,
            session_write_timeout: SessionOptions::default().write_timeout,
            wal: None,
        }
    }
}

/// A point-in-time view of the server's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Query and mutation requests answered (embed/knn/distance/upsert/
    /// remove/compact; `stats` reads themselves are not counted).
    pub requests: u64,
    /// Forward passes run for cache misses — fused by a batcher worker,
    /// or run by the calling thread for a miss that arrived alone.
    pub batches: u64,
    /// Embed jobs those forward passes served.
    pub batched_jobs: u64,
    /// Trajectories those forward passes embedded.
    pub batched_trajs: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
    /// Live vectors in the index.
    pub index_len: usize,
    /// Vectors in the index write buffer (not yet compacted).
    pub buffer_len: usize,
    /// Index snapshot generation.
    pub generation: u64,
    /// Approximate resident bytes of the served index (sealed part —
    /// quantized when SQ8 or PQ is configured — plus write buffer).
    pub index_memory_bytes: usize,
    /// Number of index shards the server scatter-gathers across.
    pub shards: usize,
    /// Bytes currently in the per-shard write-ahead logs (how much
    /// replay a crash right now would cost); `0` without a WAL.
    pub wal_log_bytes: u64,
}

/// The concurrent micro-batching query server (see module docs).
pub struct Server {
    engine: Arc<Engine>,
    /// Index reads/writes all go through the router: id-hash shard
    /// placement, scatter-gather kNN, and sealed-hit rescoring with
    /// dirty-id tracking live there.
    router: ShardRouter,
    batcher: Mutex<Option<Batcher>>,
    /// `None` after shutdown; dropped before joining workers so the queue
    /// actually closes (the batcher's own sender is not the last one).
    tx: Mutex<Option<mpsc::SyncSender<EmbedJob>>>,
    cache: Option<Mutex<LruCache>>,
    /// Batcher worker count: the cap on forwards in flight that the
    /// inline path shares with the workers.
    workers: usize,
    session: SessionOptions,
    nprobe: usize,
    batch_stats: Arc<BatchStats>,
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// What WAL recovery replayed at startup; `None` without a WAL.
    wal_recovery: Option<WalRecoveryStats>,
}

/// The error a caller sees when the batcher hands back a different row
/// count than the job submitted — a worker-side invariant break surfaced
/// as a per-request failure instead of a served-thread panic.
fn row_count_mismatch() -> EngineError {
    EngineError::InvalidInput("batcher returned a mismatched row count".into())
}

impl Server {
    /// Wraps `engine` in a serving runtime, seeding the sharded index
    /// from the engine's database embeddings (ids are database
    /// positions, routed to shards by id hash).
    ///
    /// # Errors
    /// [`EngineError::NoEmbedding`] for heuristic (no-embedding) backends —
    /// serve them through [`Engine::knn`] directly.
    pub fn new(engine: Arc<Engine>, cfg: ServeConfig) -> Result<Server, EngineError> {
        if !engine.backend().supports_embedding() {
            return Err(EngineError::NoEmbedding {
                backend: engine.backend().name().to_string(),
            });
        }
        let dim = engine.backend().dim();
        let opts = IndexOptions {
            nlist: cfg.ivf_nlist.or(engine.index_options().nlist),
            ..*engine.index_options()
        };
        let nshards = cfg.shards.unwrap_or(1).max(1);
        let index = match engine.embeddings() {
            Some(table) => ShardedIndex::from_table_with(
                (0..table.shape().rows() as u64).collect(),
                table,
                Metric::L1,
                opts,
                nshards,
            ),
            None => ShardedIndex::with_options(dim, Metric::L1, opts, nshards),
        };
        let mut router = ShardRouter::new(index, cfg.rescore_sealed);
        let wal_recovery = match &cfg.wal {
            Some(wal_cfg) => Some(router.recover(wal_cfg)?),
            None => None,
        };
        let batch_stats = Arc::new(BatchStats::default());
        let workers = cfg.workers.max(1);
        let batcher = Batcher::spawn(
            Arc::clone(&engine),
            workers,
            cfg.queue_cap,
            BatchPolicy {
                max_batch: cfg.max_batch.max(1),
                max_wait: cfg.max_wait,
            },
            Arc::clone(&batch_stats),
        )?;
        let tx = batcher.sender();
        let nprobe = engine.nprobe();
        Ok(Server {
            engine,
            router,
            batcher: Mutex::new(Some(batcher)),
            tx: Mutex::new(Some(tx)),
            cache: (cfg.cache_cap > 0).then(|| Mutex::new(LruCache::new(cfg.cache_cap))),
            workers,
            session: SessionOptions {
                idle_timeout: cfg.idle_timeout,
                write_timeout: cfg.session_write_timeout,
            },
            nprobe,
            batch_stats,
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            wal_recovery,
        })
    }

    /// What WAL recovery replayed when this server started; `None`
    /// without a WAL. The CLI prints this as the recovery transcript.
    pub fn wal_recovery(&self) -> Option<WalRecoveryStats> {
        self.wal_recovery
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The per-session network deadlines this server was configured
    /// with ([`ServeConfig::idle_timeout`] /
    /// [`ServeConfig::session_write_timeout`]); [`crate::net::listen`]
    /// applies them to every accepted connection.
    pub fn session_options(&self) -> SessionOptions {
        self.session
    }

    /// Embeds trajectories, no cache consulted: on this thread when the
    /// request is alone, through the batcher when there is company.
    fn embed_uncached(&self, trajs: Vec<Trajectory>) -> Result<Vec<Vec<f32>>, EngineError> {
        validate_batch(&trajs)?;
        let tx = {
            let guard = self.tx.lock().unwrap_or_else(|p| p.into_inner());
            guard.clone()
        };
        let tx = tx.ok_or_else(|| EngineError::InvalidInput("server is shutting down".into()))?;
        if let Some(slot) = self.batch_stats.try_inline(self.workers, trajs.len()) {
            let emb = self.engine.embed_all(&trajs)?;
            drop(slot);
            return Ok((0..trajs.len()).map(|i| emb.row(i).to_vec()).collect());
        }
        let (resp, rx) = mpsc::sync_channel(1);
        // Advertise the in-flight submission BEFORE the (possibly blocking)
        // send, so a collecting worker knows a straggler is coming.
        self.batch_stats.pending.fetch_add(1, Ordering::AcqRel);
        tx.send(EmbedJob { trajs, resp }).map_err(|_| {
            self.batch_stats.pending.fetch_sub(1, Ordering::AcqRel);
            EngineError::InvalidInput("server is shutting down".into())
        })?;
        rx.recv()
            .map_err(|_| EngineError::InvalidInput("serve worker dropped the response".into()))?
    }

    /// Embeds one trajectory: LRU cache first, micro-batcher on a miss.
    pub fn embed(&self, traj: &Trajectory) -> Result<Vec<f32>, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.embed_inner(traj)
    }

    fn embed_inner(&self, traj: &Trajectory) -> Result<Vec<f32>, EngineError> {
        let mut rows = self.embed_many(std::slice::from_ref(traj))?;
        rows.pop().ok_or_else(row_count_mismatch)
    }

    /// Embeds several trajectories: the cache is consulted per trajectory
    /// and ALL misses go to the batcher as one job (one queue round-trip,
    /// one straggler window — `distance` pays this once, not twice).
    fn embed_many(&self, trajs: &[Trajectory]) -> Result<Vec<Vec<f32>>, EngineError> {
        let keys: Vec<u64> = trajs.iter().map(content_hash).collect();
        let mut rows: Vec<Option<Vec<f32>>> = vec![None; trajs.len()];
        if let Some(cache) = &self.cache {
            let mut cache = cache.lock().unwrap_or_else(|p| p.into_inner());
            for ((row, traj), &key) in rows.iter_mut().zip(trajs).zip(&keys) {
                if let Some(hit) = cache.get(key, traj) {
                    *row = Some(hit.to_vec());
                }
            }
        }
        let missing: Vec<usize> = (0..trajs.len()).filter(|&i| rows[i].is_none()).collect();
        self.cache_hits
            .fetch_add((trajs.len() - missing.len()) as u64, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        if !missing.is_empty() {
            let submit: Vec<Trajectory> = missing.iter().map(|&i| trajs[i].clone()).collect();
            let fresh = self.embed_uncached(submit)?;
            let mut cache = self
                .cache
                .as_ref()
                .map(|c| c.lock().unwrap_or_else(|p| p.into_inner()));
            for (&i, row) in missing.iter().zip(fresh) {
                if let Some(cache) = cache.as_mut() {
                    cache.put(keys[i], trajs[i].clone(), row.clone());
                }
                rows[i] = Some(row);
            }
        }
        rows.into_iter()
            .map(|r| r.ok_or_else(row_count_mismatch))
            .collect()
    }

    /// k nearest indexed trajectories to `query`: `(id, distance)`
    /// ascending, against one consistent index snapshot. When
    /// [`ServeConfig::rescore_sealed`] is on (the default) and the engine
    /// carries its cached embedding table, sealed quantized hits whose
    /// ids still match that table are rescored to exact distances.
    pub fn knn(&self, query: &Trajectory, k: usize) -> Result<Vec<(u64, f64)>, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let q = self.embed_inner(query)?;
        Ok(self
            .router
            .search(self.engine.embeddings(), &q, k, self.nprobe))
    }

    /// L1 distance between two trajectories in embedding space (both
    /// trajectories share one cache pass and one batcher submission).
    pub fn distance(&self, a: &Trajectory, b: &Trajectory) -> Result<f64, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut rows = self.embed_many(&[a.clone(), b.clone()])?;
        let (ea, eb) = match (rows.pop(), rows.pop()) {
            (Some(eb), Some(ea)) => (ea, eb),
            _ => return Err(row_count_mismatch()),
        };
        Ok(ea.iter().zip(&eb).map(|(x, y)| (x - y).abs() as f64).sum())
    }

    /// Inserts or replaces trajectory `id` in the served index (embedding
    /// it first). Returns `true` when the id already existed. With a WAL
    /// configured, `Ok` means the record is durable per
    /// [`WalConfig::durability`] — an `Err` write was never applied.
    pub fn upsert(&self, id: u64, traj: &Trajectory) -> Result<bool, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let v = self.embed_inner(traj)?;
        self.router.upsert(id, v).map_err(EngineError::Io)
    }

    /// Removes `id` from the served index; `true` when it was present.
    ///
    /// # Errors
    /// Only with a WAL configured (same durable-ack contract as
    /// [`Server::upsert`]).
    pub fn remove(&self, id: u64) -> Result<bool, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.router.remove(id).map_err(EngineError::Io)
    }

    /// Re-trains every shard (folds write buffers and tombstones into
    /// fresh sealed parts, each shard independently); returns the number
    /// of live vectors sealed. With a WAL configured every shard is also
    /// checkpointed (its log truncated), so `Ok` means the compacted
    /// state is the new recovery baseline.
    ///
    /// # Errors
    /// Only with a WAL configured.
    pub fn compact(&self) -> Result<usize, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.router.compact().map_err(EngineError::Io)
    }

    /// The shard router (per-shard diagnostics, snapshots).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The served sharded index (snapshots, diagnostics).
    pub fn index(&self) -> &ShardedIndex {
        self.router.index()
    }

    /// A point-in-time copy of the server's counters (the index fields
    /// all read from ONE snapshot set, so they are mutually consistent
    /// per shard even while writers churn).
    pub fn stats(&self) -> ServerStats {
        let snap = self.router.snapshot();
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batch_stats.batches.load(Ordering::Relaxed),
            batched_jobs: self.batch_stats.jobs.load(Ordering::Relaxed),
            batched_trajs: self.batch_stats.trajs.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            index_len: snap.len(),
            buffer_len: snap.buffer_len(),
            generation: snap.generation(),
            index_memory_bytes: snap.memory_bytes(),
            shards: self.router.shards(),
            wal_log_bytes: self.router.wal_log_bytes(),
        }
    }

    /// Stops the batcher workers (served requests drain first). Called by
    /// `Drop`; explicit for tests and the CLI's clean-exit path.
    pub fn shutdown(&self) {
        // Drop our sender first: workers exit once every sender is gone.
        drop(self.tx.lock().unwrap_or_else(|p| p.into_inner()).take());
        let batcher = {
            let mut guard = self.batcher.lock().unwrap_or_else(|p| p.into_inner());
            guard.take()
        };
        if let Some(batcher) = batcher {
            batcher.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
