//! [`Server`]: the concurrent serving runtime over an [`Engine`].
//!
//! Request flow for an embedding-backed query:
//!
//! ```text
//! caller ──► LRU cache ──miss──► forward gate ──► Engine::embed_all
//!    │           │ hit            (`workers`       (on the calling
//!    │           ▼                 permits)          thread)
//!    └──► MutableIndex snapshot ──► (id, distance) hits
//! ```
//!
//! A cache miss runs its own forward pass on the thread that asked, once
//! it holds one of `workers` permits; callers beyond that wait for a
//! permit. Nothing is queued and no thread is spawned.
//!
//! Everything is `&self`: the server is shared across any number of
//! threads (the CLI's stdin dispatcher, the listener's connection
//! handlers, the concurrency tests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use trajcl_engine::{Engine, EngineError};
use trajcl_geo::{validate_batch, Trajectory};
use trajcl_index::{IndexOptions, Metric, ShardedIndex};
use trajcl_tensor::Tensor;

use crate::cache::{content_hash, LruCache};
use crate::net::SessionOptions;
use crate::router::{ShardRouter, WalConfig, WalRecoveryStats};

/// [`ServeConfig::cache_cap`]'s default, and the capacity of a fleet
/// front-end's own embedding cache.
pub const DEFAULT_CACHE_CAP: usize = 4096;

/// Tuning knobs for [`Server::new`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Forward passes that may run at once: each cache miss runs its own
    /// on the calling thread, and misses beyond this many wait. The CLI's
    /// `--workers` also sets the handler threads of each connection
    /// ([`crate::net::listen`]): the most pipelined requests it runs at
    /// once, while a lock-step connection is answered on one of them.
    pub workers: usize,
    /// LRU embedding-cache entries; `0` disables the cache.
    pub cache_cap: usize,
    /// IVF cells for the server's mutable index; `None` inherits the
    /// engine's `nlist`. Everything else about the index — seed, storage
    /// quantization, rescore factor — is the engine's
    /// [`Engine::index_options`], taken whole. A quantized sealed
    /// part ([`trajcl_index::Quantization`]) keeps no exact copy to
    /// rescore against (by design: that copy would forfeit the
    /// compression), so a sealed quantized hit is rescored against the
    /// engine's cached embedding table when its id still matches that
    /// table (seeded from the engine's database, never re-upserted since)
    /// and keeps its quantized, error-bounded distance otherwise (the
    /// mixed-ordering caveat documented on
    /// [`trajcl_index::IndexSnapshot::search_rescored`]).
    pub ivf_nlist: Option<usize>,
    /// How many hash-on-id index shards to partition the served vectors
    /// into; `None` means 1, the unsharded degenerate case. Each shard
    /// has its own write lock, snapshot and compaction; kNN
    /// scatter-gathers across all of them (see DESIGN.md §13).
    pub shards: Option<usize>,
    /// Deadlines of [`crate::net::listen`] sessions (not the
    /// stdin/stdout pipe): idle reaping — `--idle-timeout-ms` on the
    /// CLI — and the per-write deadline.
    pub session: SessionOptions,
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
            cache_cap: DEFAULT_CACHE_CAP,
            ivf_nlist: None,
            shards: None,
            session: SessionOptions::default(),
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
    /// Forward passes run for cache misses, one per request that missed.
    pub batches: u64,
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

/// The concurrent query server (see module docs).
pub struct Server {
    engine: Arc<Engine>,
    /// Index reads/writes all go through the router: id-hash shard
    /// placement, scatter-gather kNN, and sealed-hit rescoring with
    /// dirty-id tracking live there.
    router: ShardRouter,
    cache: Option<Mutex<LruCache>>,
    gate: ForwardGate,
    session: SessionOptions,
    nprobe: usize,
    requests: AtomicU64,
    /// Forward passes run for cache misses ([`ServerStats::batches`]).
    forwards: AtomicU64,
    /// Trajectories they embedded ([`ServerStats::batched_trajs`]).
    forward_trajs: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// What WAL recovery replayed at startup; `None` without a WAL.
    wal_recovery: Option<WalRecoveryStats>,
}

/// At most `permits` forward passes at once: a miss takes a permit
/// before it calls [`Engine::embed_all`] and waits while none is free.
/// [`ForwardGate::close`] turns every waiter and every later caller away.
struct ForwardGate {
    permits: usize,
    /// `(running, closed)`.
    state: Mutex<(usize, bool)>,
    freed: Condvar,
}

/// One running forward pass; dropping it (panics included) frees the
/// permit.
struct Permit<'a>(&'a ForwardGate);

impl ForwardGate {
    fn enter(&self) -> Result<Permit<'_>, EngineError> {
        let state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let mut state = self
            .freed
            .wait_while(state, |(running, closed)| {
                !*closed && *running >= self.permits
            })
            .unwrap_or_else(|p| p.into_inner());
        if state.1 {
            return Err(EngineError::InvalidInput("server is shutting down".into()));
        }
        state.0 += 1;
        Ok(Permit(self))
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).1 = true;
        self.freed.notify_all();
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.state.lock().unwrap_or_else(|p| p.into_inner()).0 -= 1;
        self.0.freed.notify_one();
    }
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
        let mut router = ShardRouter::new(index, true);
        let wal_recovery = match &cfg.wal {
            Some(wal_cfg) => Some(router.recover(wal_cfg)?),
            None => None,
        };
        let nprobe = engine.nprobe();
        Ok(Server {
            engine,
            router,
            cache: (cfg.cache_cap > 0).then(|| Mutex::new(LruCache::new(cfg.cache_cap))),
            gate: ForwardGate {
                permits: cfg.workers.max(1),
                state: Mutex::new((0, false)),
                freed: Condvar::new(),
            },
            session: cfg.session,
            nprobe,
            requests: AtomicU64::new(0),
            forwards: AtomicU64::new(0),
            forward_trajs: AtomicU64::new(0),
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
    /// with ([`ServeConfig::session`]); [`crate::net::listen`] applies
    /// them to every accepted connection.
    pub fn session_options(&self) -> SessionOptions {
        self.session
    }

    /// Embeds trajectories, no cache consulted: one forward pass on this
    /// thread, once a forward permit is free.
    fn embed_uncached(&self, trajs: &[Trajectory]) -> Result<Tensor, EngineError> {
        // Checked before the gate: bad input neither waits for a permit
        // nor counts as a forward pass.
        validate_batch(trajs)?;
        let _permit = self.gate.enter()?;
        self.forwards.fetch_add(1, Ordering::Relaxed);
        self.forward_trajs
            .fetch_add(trajs.len() as u64, Ordering::Relaxed);
        self.engine.embed_all(trajs)
    }

    /// Embeds one trajectory: LRU cache first, a forward pass on a miss.
    pub fn embed(&self, traj: &Trajectory) -> Result<Vec<f32>, EngineError> {
        self.embed_passing(traj, &|| {})
    }

    /// [`Server::embed`], calling `pass` before a miss waits for the
    /// forward gate (a session hands its reader on there).
    pub(crate) fn embed_passing(
        &self,
        traj: &Trajectory,
        pass: &dyn Fn(),
    ) -> Result<Vec<f32>, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.embed_inner(traj, pass)
    }

    fn embed_inner(&self, traj: &Trajectory, pass: &dyn Fn()) -> Result<Vec<f32>, EngineError> {
        Ok(self
            .embed_many(std::slice::from_ref(traj), pass)?
            .swap_remove(0))
    }

    /// Embeds several trajectories, one row each: the cache is consulted
    /// per trajectory and ALL misses share one forward pass (`distance`
    /// pays for one, not two), which `pass` runs before.
    fn embed_many(
        &self,
        trajs: &[Trajectory],
        pass: &dyn Fn(),
    ) -> Result<Vec<Vec<f32>>, EngineError> {
        let keys: Vec<u64> = trajs.iter().map(content_hash).collect();
        let mut rows = vec![Vec::new(); trajs.len()];
        let mut missing = Vec::new();
        {
            let mut cache = self
                .cache
                .as_ref()
                .map(|c| c.lock().unwrap_or_else(|p| p.into_inner()));
            for (i, traj) in trajs.iter().enumerate() {
                match cache.as_mut().and_then(|c| c.get(keys[i], traj)) {
                    Some(hit) => rows[i] = hit.to_vec(),
                    None => missing.push(i),
                }
            }
        }
        self.cache_hits
            .fetch_add((trajs.len() - missing.len()) as u64, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        if !missing.is_empty() {
            pass();
            let submit: Vec<Trajectory> = missing.iter().map(|&i| trajs[i].clone()).collect();
            let fresh = self.embed_uncached(&submit)?;
            let mut cache = self
                .cache
                .as_ref()
                .map(|c| c.lock().unwrap_or_else(|p| p.into_inner()));
            for (r, &i) in missing.iter().enumerate() {
                rows[i] = fresh.row(r).to_vec();
                if let Some(cache) = cache.as_mut() {
                    cache.put(keys[i], trajs[i].clone(), rows[i].clone());
                }
            }
        }
        Ok(rows)
    }

    /// k nearest indexed trajectories to `query`: `(id, distance)`
    /// ascending, against one consistent index snapshot. When the engine
    /// carries its cached embedding table, sealed quantized hits whose
    /// ids still match that table are rescored to exact distances.
    pub fn knn(&self, query: &Trajectory, k: usize) -> Result<Vec<(u64, f64)>, EngineError> {
        self.knn_passing(query, k, &|| {})
    }

    /// [`Server::knn`], calling `pass` before a miss's forward.
    pub(crate) fn knn_passing(
        &self,
        query: &Trajectory,
        k: usize,
        pass: &dyn Fn(),
    ) -> Result<Vec<(u64, f64)>, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let q = self.embed_inner(query, pass)?;
        Ok(self.search(&q, k))
    }

    /// k nearest indexed trajectories to an embedding already made, as
    /// [`Server::knn`] answers them: no cache lookup, no forward pass.
    ///
    /// # Errors
    /// [`EngineError::InvalidInput`] when `query` is not the model's width.
    pub fn knn_vec(&self, query: &[f32], k: usize) -> Result<Vec<(u64, f64)>, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let dim = self.engine.backend().dim();
        if query.len() != dim {
            return Err(EngineError::InvalidInput(format!(
                "query vector holds {} values, the model embeds {dim}",
                query.len()
            )));
        }
        Ok(self.search(query, k))
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<(u64, f64)> {
        self.router
            .search(self.engine.embeddings(), query, k, self.nprobe)
    }

    /// L1 distance between two trajectories in embedding space (both
    /// trajectories share one cache pass and one forward pass).
    pub fn distance(&self, a: &Trajectory, b: &Trajectory) -> Result<f64, EngineError> {
        self.distance_passing(a, b, &|| {})
    }

    /// [`Server::distance`], calling `pass` before a miss's forward.
    pub(crate) fn distance_passing(
        &self,
        a: &Trajectory,
        b: &Trajectory,
        pass: &dyn Fn(),
    ) -> Result<f64, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let rows = self.embed_many(&[a.clone(), b.clone()], pass)?;
        Ok(rows[0]
            .iter()
            .zip(&rows[1])
            .map(|(x, y)| (x - y).abs() as f64)
            .sum())
    }

    /// Inserts or replaces trajectory `id` in the served index (embedding
    /// it first). Returns `true` when the id already existed. With a WAL
    /// configured, `Ok` means the record is durable per
    /// [`WalConfig::durability`] — an `Err` write was never applied.
    pub fn upsert(&self, id: u64, traj: &Trajectory) -> Result<bool, EngineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let v = self.embed_inner(traj, &|| {})?;
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
            batches: self.forwards.load(Ordering::Relaxed),
            batched_trajs: self.forward_trajs.load(Ordering::Relaxed),
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

    /// Closes the forward gate: misses waiting for a permit, and every
    /// later miss, fail with `server is shutting down`; forwards already
    /// running finish. Cache hits and index operations still answer.
    pub fn shutdown(&self) {
        self.gate.close();
    }
}
