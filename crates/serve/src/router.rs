//! [`ShardRouter`]: the serving layer's view of the sharded index —
//! id-hash write routing, scatter-gather search, and sealed-hit exact
//! rescoring with dirty-id tracking.
//!
//! The router owns what used to be the server's index-side state: a
//! [`ShardedIndex`] (any shard count; 1 is the unsharded degenerate
//! case) plus the copy-on-write set of ids whose vectors were upserted
//! over the wire and therefore no longer match the engine's cached
//! embedding table. [`Server`](crate::Server) delegates every index
//! operation here; the forward-gate/cache half of serving stays in the
//! server. See `PROTOCOL.md` for how shard routing surfaces (spoiler:
//! it doesn't — clients address ids, never shards) and DESIGN.md §13
//! for the architecture.

use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

use trajcl_engine::EngineError;
use trajcl_index::wal::apply_op;
use trajcl_index::{
    atomic_write, CheckpointEntry, Durability, ExactRescorer, RealFs, ShardedIndex,
    ShardedSnapshot, Wal, WalFs, WalOp,
};
use trajcl_tensor::Tensor;

/// Durability configuration for [`ServeConfig::wal`](crate::ServeConfig::wal):
/// where the per-shard write-ahead logs live and how they sync. See
/// DESIGN.md §15 for the on-disk format and the checkpoint/truncate
/// protocol.
#[derive(Clone)]
pub struct WalConfig {
    /// Directory holding the per-shard logs and checkpoints
    /// (`shardN.log` / `shardN.ckpt`) plus the `wal.meta` layout guard.
    /// Created if absent; a directory written under a different shard
    /// count or dimensionality is rejected at startup (shard placement
    /// is id-hash, so the logs only replay under the layout that wrote
    /// them).
    pub dir: PathBuf,
    /// Sync policy. [`Durability::Fsync`] (the default) group-fsyncs
    /// every record before the write acks — ack implies durable.
    /// [`Durability::Buffered`] appends without syncing: writes survive
    /// a process crash (the OS holds the pages) but not power loss.
    pub durability: Durability,
    /// Per-shard log size that triggers an automatic checkpoint
    /// (snapshot + log truncate, no index compaction). Default 64 MiB.
    pub checkpoint_bytes: u64,
    /// Filesystem seam the logs go through — [`RealFs`] in production,
    /// a [`trajcl_index::CrashPointFs`] injector in durability tests.
    pub fs: Arc<dyn WalFs>,
}

impl WalConfig {
    /// A WAL under `dir`: full fsync durability, 64 MiB auto-checkpoint
    /// threshold, the real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            durability: Durability::Fsync,
            checkpoint_bytes: 64 << 20,
            fs: Arc::new(RealFs),
        }
    }
}

impl std::fmt::Debug for WalConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalConfig")
            .field("dir", &self.dir)
            .field("durability", &self.durability)
            .field("checkpoint_bytes", &self.checkpoint_bytes)
            .finish_non_exhaustive()
    }
}

/// What [`ShardRouter::recover`] replayed (summed over shards) —
/// surfaced so operators can log a recovery transcript.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalRecoveryStats {
    /// Rows restored from shard checkpoints.
    pub checkpoint_rows: usize,
    /// Log records replayed on top of the checkpoints.
    pub replayed_ops: usize,
    /// Torn trailing bytes discarded from the logs (a crash mid-append;
    /// by the ack-implies-durable contract these were never
    /// acknowledged).
    pub truncated_bytes: u64,
}

/// [`ExactRescorer`] over the engine's cached embedding table: ids are
/// table row positions (how the server seeds the index), valid only
/// while the id was never re-upserted (tracked by [`ShardRouter`]).
struct TableRescorer<'a> {
    table: &'a Tensor,
    dirty: &'a HashSet<u64>,
}

impl ExactRescorer for TableRescorer<'_> {
    fn exact_vector(&self, id: u64) -> Option<&[f32]> {
        ((id as usize) < self.table.shape().rows() && !self.dirty.contains(&id))
            .then(|| self.table.row(id as usize))
    }
}

/// One shard's durability state: its write-ahead log plus the gate that
/// orders appends against checkpoints. Writers hold the gate shared
/// (append + apply can interleave freely — the WAL's own group commit
/// orders the records); a checkpoint holds it exclusive, so the snapshot
/// it captures provably covers every record in the log it truncates.
struct WalShard {
    wal: Wal,
    gate: RwLock<()>,
}

/// The router's optional durability layer: one WAL per shard (same
/// id-hash partition as the index, so each shard's log replays into
/// exactly that shard) plus the auto-checkpoint threshold.
struct DurableLog {
    shards: Vec<WalShard>,
    /// A shard whose log grows past this many bytes is checkpointed on
    /// the next write (snapshot + truncate, no index compaction).
    checkpoint_bytes: u64,
}

/// Routes index reads and writes across the shards of a
/// [`ShardedIndex`] (see the module docs).
///
/// With a WAL attached ([`ShardRouter::recover`]), every mutation is
/// appended to the owning shard's log and group-fsync'd **before** it
/// touches the index — `Ok` from [`ShardRouter::upsert`] /
/// [`ShardRouter::remove`] / [`ShardRouter::compact`] means the op is
/// durable. Without one, the write methods never return `Err`.
///
/// # Examples
///
/// ```
/// use trajcl_index::{IndexOptions, Metric, ShardedIndex};
/// use trajcl_serve::ShardRouter;
///
/// # fn main() -> std::io::Result<()> {
/// let index = ShardedIndex::with_options(2, Metric::L1, IndexOptions::default(), 4);
/// let router = ShardRouter::new(index, true);
/// for id in 0..16u64 {
///     router.upsert(id, vec![id as f32, 0.0])?;
/// }
/// assert_eq!(router.shards(), 4);
///
/// // Scatter-gather kNN over all four shards (no exact table here, so
/// // no rescoring — distances are exact f32 anyway).
/// let hits = router.search(None, &[6.9, 0.0], 2, usize::MAX);
/// assert_eq!(hits[0].0, 7);
/// assert!(router.remove(7)?);
/// assert_eq!(router.compact()?, 15);
/// # Ok(())
/// # }
/// ```
pub struct ShardRouter {
    index: ShardedIndex,
    /// Whether sealed quantized hits are rescored against the exact
    /// table handed to [`ShardRouter::search`] (always, from
    /// [`Server::new`](crate::Server::new)).
    rescore: bool,
    /// Ids whose vectors may disagree with the exact table (everything
    /// ever upserted through the router). Sealed hits on these ids are
    /// never rescored — the table row would be stale. Copy-on-write
    /// behind an `Arc` so searches snapshot it with one momentary read
    /// lock instead of holding the lock across the scan. The set only
    /// grows (bounded by distinct upserted ids): pruning on `remove`
    /// would race a concurrent re-upsert of the same id, and a stale
    /// `true` is merely conservative (skips a rescore) while a stale
    /// `false` would serve wrong distances.
    dirty: RwLock<Arc<HashSet<u64>>>,
    /// Per-shard write-ahead logs; `None` for an ephemeral router.
    wal: Option<DurableLog>,
}

impl ShardRouter {
    /// Wraps a sharded index. `rescore` gates whether
    /// [`ShardRouter::search`] rescores sealed quantized hits against
    /// the exact table it is given.
    pub fn new(index: ShardedIndex, rescore: bool) -> Self {
        ShardRouter {
            index,
            rescore,
            dirty: RwLock::new(Arc::new(HashSet::new())),
            wal: None,
        }
    }

    /// Makes the router durable under `cfg`: opens (or validates) the WAL
    /// directory, resets each shard to its last checkpoint — a
    /// checkpoint is the shard's *complete* live state, so whatever the
    /// shard was seeded with goes, and every entry comes back with its
    /// dirty bit — replays the shard's log tail on top (an upsert marks
    /// its id dirty, exactly as the original wire write did), and only
    /// then attaches the logs: from here on every mutation goes through
    /// them. Called once, before the router is shared. The `wal.meta`
    /// guard pins the directory to one `(shards, dim)` layout: id-hash
    /// placement means a log written under a different shard count
    /// would replay ids into the wrong shards.
    ///
    /// # Errors
    /// [`EngineError::InvalidInput`] for a directory written under
    /// another layout, [`EngineError::Io`] for filesystem failures and
    /// corrupt checkpoints; the router is left without a WAL.
    pub fn recover(&mut self, cfg: &WalConfig) -> Result<WalRecoveryStats, EngineError> {
        std::fs::create_dir_all(&cfg.dir)?;
        let meta_path = cfg.dir.join("wal.meta");
        let meta = format!(
            "trajcl-wal shards {} dim {}\n",
            self.index.shards(),
            self.index.dim()
        );
        match std::fs::read_to_string(&meta_path) {
            Ok(existing) if existing == meta => {}
            Ok(existing) => {
                return Err(EngineError::InvalidInput(format!(
                    "WAL dir {} has layout {:?}, this server needs {:?} — \
                     shard count and dimension are part of the log contract",
                    cfg.dir.display(),
                    existing.trim(),
                    meta.trim(),
                )));
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                atomic_write(cfg.fs.as_ref(), &meta_path, meta.as_bytes())?;
            }
            Err(e) => return Err(EngineError::Io(e)),
        }
        let mut stats = WalRecoveryStats::default();
        let mut shards = Vec::with_capacity(self.index.shards());
        for s in 0..self.index.shards() {
            let name = format!("shard{s}");
            let (wal, recovery) = Wal::open(&cfg.dir, &name, cfg.durability, Arc::clone(&cfg.fs))?;
            let shard = self.index.shard(s);
            if let Some(ckpt) = recovery.checkpoint {
                stats.checkpoint_rows += ckpt.entries.len();
                shard.clear();
                for e in ckpt.entries {
                    if e.dirty {
                        self.mark_dirty(e.id);
                    }
                    shard.upsert(e.id, e.vector);
                }
            }
            stats.replayed_ops += recovery.ops.len();
            stats.truncated_bytes += recovery.truncated_tail_bytes;
            for op in &recovery.ops {
                if let WalOp::Upsert { id, .. } = op {
                    self.mark_dirty(*id);
                }
                apply_op(shard, op);
            }
            let gate = RwLock::new(());
            shards.push(WalShard { wal, gate });
        }
        self.wal = Some(DurableLog {
            shards,
            checkpoint_bytes: cfg.checkpoint_bytes,
        });
        Ok(stats)
    }

    /// Whether a WAL is attached (writes are durable before they ack).
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Total bytes currently in the per-shard logs (0 without a WAL) —
    /// the operator-visible gauge of how much replay a crash would cost.
    pub fn wal_log_bytes(&self) -> u64 {
        self.wal
            .as_ref()
            .map_or(0, |log| log.shards.iter().map(|s| s.wal.log_bytes()).sum())
    }

    /// The routed index (per-shard diagnostics, snapshots).
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.index.shards()
    }

    /// Marks `id` dirty (never again rescored against the exact table),
    /// *before* its write publishes: any search that could observe the
    /// new vector must already see it dirty (a conservative-only race —
    /// a fresh upsert may briefly skip rescoring, never rescore against
    /// a stale row).
    fn mark_dirty(&self, id: u64) {
        // Re-upserts of an already-dirty id (the replace-heavy workload)
        // stay under the shared lock, beside every concurrent search's
        // own `dirty.read()`; the set only grows, so "already dirty" can
        // never go stale.
        let dirty = self.dirty.read().unwrap_or_else(|p| p.into_inner());
        if dirty.contains(&id) {
            return;
        }
        drop(dirty);
        // A first-time id takes the exclusive lock and looks again (a
        // racing writer may have inserted it); it pays the set clone only
        // while a concurrent search holds the Arc.
        let mut dirty = self.dirty.write().unwrap_or_else(|p| p.into_inner());
        if !dirty.contains(&id) {
            Arc::make_mut(&mut dirty).insert(id);
        }
    }

    /// Inserts or replaces `id` in its owning shard, marking the id
    /// dirty first (see the `mark_dirty` invariant above). Returns
    /// `true` when the id already existed.
    ///
    /// # Errors
    /// Only with a WAL attached: the record could not be made durable
    /// (the index was **not** touched — the failed write simply never
    /// happened), or a post-write auto-checkpoint failed (the write
    /// itself is durable; retrying it is idempotent).
    pub fn upsert(&self, id: u64, vector: Vec<f32>) -> io::Result<bool> {
        let Some(log) = &self.wal else {
            self.mark_dirty(id);
            return Ok(self.index.upsert(id, vector));
        };
        let s = self.index.shard_of(id);
        let shard = &log.shards[s];
        let existed = {
            let _gate = shard.gate.read().unwrap_or_else(|p| p.into_inner());
            // The record borrows the vector for the append and hands it
            // back to the index: no copy on the durable path.
            let op = WalOp::Upsert { id, vector };
            shard.wal.append_durable(&op)?;
            let WalOp::Upsert { vector, .. } = op else {
                unreachable!("`op` was built as an upsert just above")
            };
            self.mark_dirty(id);
            self.index.upsert(id, vector)
        };
        self.maybe_checkpoint(s)?;
        Ok(existed)
    }

    /// Removes `id` from its owning shard; `true` when it was present.
    ///
    /// # Errors
    /// Same contract as [`ShardRouter::upsert`].
    pub fn remove(&self, id: u64) -> io::Result<bool> {
        let Some(log) = &self.wal else {
            return Ok(self.index.remove(id));
        };
        let s = self.index.shard_of(id);
        let shard = &log.shards[s];
        let existed = {
            let _gate = shard.gate.read().unwrap_or_else(|p| p.into_inner());
            shard.wal.append_durable(&WalOp::Remove { id })?;
            self.index.remove(id)
        };
        self.maybe_checkpoint(s)?;
        Ok(existed)
    }

    /// Compacts every shard; returns total live vectors sealed. With a
    /// WAL attached each shard is quiesced, its `Compact` record made
    /// durable, compacted, and checkpointed (snapshot + log truncate) —
    /// one shard at a time, so the others keep serving writes.
    ///
    /// # Errors
    /// Only with a WAL attached; a failed shard aborts the sweep (shards
    /// already processed stay compacted and checkpointed).
    pub fn compact(&self) -> io::Result<usize> {
        let Some(log) = &self.wal else {
            return Ok(self.index.compact());
        };
        let mut sealed = 0;
        for (s, shard) in log.shards.iter().enumerate() {
            let _gate = shard.gate.write().unwrap_or_else(|p| p.into_inner());
            shard.wal.append_durable(&WalOp::Compact)?;
            sealed += self.index.compact_shard(s);
            self.checkpoint_shard(s, shard)?;
        }
        Ok(sealed)
    }

    /// Checkpoints shard `s` if its log has outgrown the configured
    /// threshold. Takes the shard's gate exclusively (quiescing its
    /// writers for the snapshot) and re-checks under the gate, so racing
    /// writers collapse into one checkpoint instead of a stampede.
    fn maybe_checkpoint(&self, s: usize) -> io::Result<()> {
        let Some(log) = &self.wal else {
            return Ok(());
        };
        let shard = &log.shards[s];
        if shard.wal.log_bytes() < log.checkpoint_bytes {
            return Ok(());
        }
        let _gate = shard.gate.write().unwrap_or_else(|p| p.into_inner());
        if shard.wal.log_bytes() < log.checkpoint_bytes {
            return Ok(());
        }
        self.checkpoint_shard(s, shard)
    }

    /// Writes shard `s`'s full live state as a new checkpoint and
    /// truncates its log. Caller holds the shard's gate exclusively.
    fn checkpoint_shard(&self, s: usize, shard: &WalShard) -> io::Result<()> {
        let dirty = self.dirty.read().unwrap_or_else(|p| p.into_inner()).clone();
        let entries: Vec<CheckpointEntry> = self
            .index
            .shard(s)
            .snapshot()
            .live_entries()
            .into_iter()
            .map(|(id, vector)| CheckpointEntry {
                id,
                dirty: dirty.contains(&id),
                vector,
            })
            .collect();
        shard.wal.checkpoint(self.index.dim(), &entries)
    }

    /// A consistent-per-shard read view (see
    /// [`ShardedIndex::snapshot`]).
    pub fn snapshot(&self) -> ShardedSnapshot {
        self.index.snapshot()
    }

    /// Scatter-gather kNN across all shards. When rescoring is enabled
    /// and `exact_table` is present, sealed quantized hits whose ids
    /// still match the table (row position = id, never re-upserted) are
    /// rescored to exact distances — per shard, exactly as the
    /// unsharded path does.
    pub fn search(
        &self,
        exact_table: Option<&Tensor>,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Vec<(u64, f64)> {
        let snap = self.index.snapshot();
        if self.rescore {
            if let Some(table) = exact_table {
                // One pointer clone under the lock; the search itself
                // runs against the snapshot, never blocking upserts.
                let dirty = self.dirty.read().unwrap_or_else(|p| p.into_inner()).clone();
                let rescorer = TableRescorer {
                    table,
                    dirty: &dirty,
                };
                return snap.search_rescored(query, k, nprobe, Some(&rescorer));
            }
        }
        snap.search(query, k, nprobe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajcl_index::{IndexOptions, Metric};
    use trajcl_tensor::Shape;

    fn router(nshards: usize) -> ShardRouter {
        ShardRouter::new(
            ShardedIndex::with_options(2, Metric::L1, IndexOptions::default(), nshards),
            true,
        )
    }

    #[test]
    fn routes_and_searches_across_shards() {
        let r = router(3);
        for id in 0..30u64 {
            assert!(!r.upsert(id, vec![id as f32, 0.0]).unwrap());
        }
        assert!(
            r.upsert(4, vec![4.0, 0.0]).unwrap(),
            "second upsert replaces"
        );
        let hits = r.search(None, &[10.2, 0.0], 3, usize::MAX);
        assert_eq!(
            hits.iter().map(|h| h.0).collect::<Vec<_>>(),
            vec![10, 11, 9]
        );
        assert!(r.remove(10).unwrap());
        assert!(!r.remove(10).unwrap());
        assert_eq!(r.compact().unwrap(), 29);
        assert_eq!(r.snapshot().len(), 29);
        assert!(!r.is_durable());
        assert_eq!(r.wal_log_bytes(), 0);
    }

    #[test]
    fn dirty_ids_are_never_rescored() {
        // A quantized sealed part plus a lying exact table: clean ids
        // must be rescored against the table, wire-upserted (dirty) ids
        // must keep their own (quantized, error-bounded) distances.
        let opts = IndexOptions {
            quantization: trajcl_index::Quantization::Sq8,
            ..IndexOptions::default()
        };
        let r = ShardRouter::new(ShardedIndex::with_options(2, Metric::L1, opts, 2), true);
        // Clean id 0 via a path that never marks dirty: seeded through
        // the index directly (as Server::new does from the engine table).
        r.index().upsert(0, vec![1.0, 0.0]);
        r.upsert(1, vec![2.0, 0.0]).unwrap(); // dirty: wire upsert
        r.compact().unwrap(); // both ids now sealed as SQ8 codes
        let table = Tensor::from_vec(vec![5.0, 0.0, 5.0, 0.0], Shape::d2(2, 2));
        let hits = r.search(Some(&table), &[0.0, 0.0], 2, usize::MAX);
        // Dirty id 1 keeps its quantized distance (≈2): ranked first.
        assert_eq!(hits[0].0, 1);
        assert!((hits[0].1 - 2.0).abs() < 0.1, "got {}", hits[0].1);
        // Clean id 0 is rescored against the table row: exactly 5.
        assert_eq!(hits[1], (0, 5.0));
    }

    /// Self-cleaning scratch directory for the durable-router tests.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("trajcl-router-wal-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn durable_router_recovers_writes_dirty_bits_and_checkpoints() {
        let tmp = TempDir::new("roundtrip");
        let nshards = 2;
        let cfg = |checkpoint_bytes| WalConfig {
            checkpoint_bytes,
            ..WalConfig::new(&tmp.0)
        };
        // First life: durable writes, then drop (simulated restart).
        {
            let mut r = router(nshards);
            let stats = r.recover(&cfg(1 << 20)).unwrap();
            assert_eq!((stats.checkpoint_rows, stats.replayed_ops), (0, 0));
            assert!(r.is_durable());
            for id in 0..12u64 {
                r.upsert(id, vec![id as f32, 1.0]).unwrap();
            }
            assert!(r.remove(3).unwrap());
            assert_eq!(r.compact().unwrap(), 11);
            // Compact checkpointed every shard: logs are empty again.
            assert_eq!(r.wal_log_bytes(), 0);
            r.upsert(20, vec![20.0, 1.0]).unwrap(); // lives only in the log
            assert!(r.wal_log_bytes() > 0);
        }
        // Second life: a router seeded with a row the checkpoint does not
        // hold recovers to checkpoint + log tail, the seed row gone.
        let mut r2 = router(nshards);
        r2.index().upsert(77, vec![77.0, 1.0]);
        let stats = r2.recover(&cfg(1 << 20)).unwrap();
        assert_eq!((stats.checkpoint_rows, stats.replayed_ops), (11, 1));
        assert_eq!(stats.truncated_bytes, 0);
        let mut ids = r2.snapshot().live_ids();
        ids.sort_unstable();
        let want: Vec<u64> = (0..12).filter(|&id| id != 3).chain([20]).collect();
        assert_eq!(ids, want);
        // Recovered ids keep their dirty bit: with a lying exact table,
        // nothing is rescored (every id came in over the wire).
        let table = Tensor::from_vec(vec![99.0, 99.0], Shape::d2(1, 2));
        let hits = r2.search(Some(&table), &[5.0, 1.0], 1, usize::MAX);
        assert_eq!(hits[0], (5, 0.0));
        assert!(r2.wal_log_bytes() > 0);
        drop(r2);
        // Third life under a 1-byte threshold: the next write
        // auto-checkpoints its shard.
        let mut r3 = router(nshards);
        r3.recover(&cfg(1)).unwrap();
        r3.upsert(40, vec![40.0, 1.0]).unwrap();
        let s40 = r3.index().shard_of(40);
        // Shard s40's log was checkpointed and truncated past threshold.
        let log = std::fs::metadata(tmp.0.join(format!("shard{s40}.log")))
            .expect("log metadata")
            .len();
        assert_eq!(log, 0, "auto-checkpoint must truncate the shard log");
    }

    #[test]
    fn recover_rejects_a_wal_dir_written_under_another_layout() {
        let tmp = TempDir::new("layout");
        let cfg = WalConfig::new(&tmp.0);
        let mut first = router(2);
        first.recover(&cfg).unwrap();
        first.upsert(1, vec![1.0, 0.0]).unwrap();
        drop(first);
        // Another shard count, and another dimension, under the same dir.
        let wrong_dim = ShardedIndex::with_options(3, Metric::L1, IndexOptions::default(), 2);
        for mut wrong in [router(3), ShardRouter::new(wrong_dim, true)] {
            let err = wrong.recover(&cfg).expect_err("layout mismatch");
            assert!(matches!(err, EngineError::InvalidInput(_)), "{err}");
            assert!(err.to_string().contains("shards 2 dim 2"), "{err}");
            assert!(!wrong.is_durable(), "a refused router stays without a WAL");
            assert_eq!(wrong.index().len(), 0, "and replayed nothing");
        }
        // The layout that wrote it still recovers its one record.
        let mut again = router(2);
        assert_eq!(again.recover(&cfg).unwrap().replayed_ops, 1);
    }

    #[test]
    fn durable_upsert_fails_before_touching_the_index() {
        let tmp = TempDir::new("failfast");
        let cfg = |fs: Arc<dyn WalFs>| WalConfig {
            fs,
            ..WalConfig::new(&tmp.0)
        };
        let mut r = router(1);
        r.recover(&cfg(Arc::new(trajcl_index::CrashPointFs::unlimited())))
            .unwrap();
        r.upsert(1, vec![1.0, 0.0]).unwrap();
        drop(r);
        // Restart over a filesystem that dies on its very first
        // operation: the appends fail, so the index must stay as
        // recovered. (The log was clean, so recovery itself — reads only —
        // never touches the dead seam.)
        let mut r = router(1);
        r.recover(&cfg(Arc::new(trajcl_index::CrashPointFs::new(0, false))))
            .unwrap();
        assert!(r.upsert(2, vec![2.0, 0.0]).is_err());
        assert!(r.remove(1).is_err());
        assert!(r.compact().is_err());
        assert_eq!(r.index().len(), 1, "failed writes must not apply");
    }
}
