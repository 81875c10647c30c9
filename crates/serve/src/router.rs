//! [`ShardRouter`]: the serving layer's view of the sharded index —
//! id-hash write routing, scatter-gather search, and sealed-hit exact
//! rescoring with dirty-id tracking.
//!
//! The router owns what used to be the server's index-side state: a
//! [`ShardedIndex`] (any shard count; 1 is the unsharded degenerate
//! case) plus the copy-on-write set of ids whose vectors were upserted
//! over the wire and therefore no longer match the engine's cached
//! embedding table. [`Server`](crate::Server) delegates every index
//! operation here; the batcher/cache half of serving stays in the
//! server. See `PROTOCOL.md` for how shard routing surfaces (spoiler:
//! it doesn't — clients address ids, never shards) and DESIGN.md §13
//! for the architecture.

use std::collections::HashSet;
use std::io;
use std::sync::{Arc, RwLock};

use trajcl_index::{CheckpointEntry, ExactRescorer, ShardedIndex, ShardedSnapshot, Wal, WalOp};
use trajcl_tensor::Tensor;

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
/// With a WAL attached ([`ShardRouter::attach_wal`]), every mutation is
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
    /// table handed to [`ShardRouter::search`]
    /// ([`ServeConfig::rescore_sealed`](crate::ServeConfig::rescore_sealed)).
    rescore_sealed: bool,
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
    /// Wraps a sharded index. `rescore_sealed` gates whether
    /// [`ShardRouter::search`] rescores sealed quantized hits against
    /// the exact table it is given.
    pub fn new(index: ShardedIndex, rescore_sealed: bool) -> Self {
        ShardRouter {
            index,
            rescore_sealed,
            dirty: RwLock::new(Arc::new(HashSet::new())),
            wal: None,
        }
    }

    /// Attaches one write-ahead log per shard (`wals[s]` persists shard
    /// `s`) and arms auto-checkpointing at `checkpoint_bytes` of log per
    /// shard. Called once at startup, **after** recovery has been
    /// replayed through [`ShardRouter::reset_shard_from_checkpoint`] and
    /// [`ShardRouter::replay_op`] — from here on every mutation goes
    /// through the logs.
    ///
    /// # Panics
    /// When `wals.len()` differs from the shard count.
    pub fn attach_wal(&mut self, wals: Vec<Wal>, checkpoint_bytes: u64) {
        assert_eq!(wals.len(), self.index.shards(), "one WAL per shard");
        self.wal = Some(DurableLog {
            shards: wals
                .into_iter()
                .map(|wal| WalShard {
                    wal,
                    gate: RwLock::new(()),
                })
                .collect(),
            checkpoint_bytes,
        });
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

    /// Recovery step 1: resets shard `s` to a recovered checkpoint —
    /// clears whatever the shard was seeded with (a checkpoint is the
    /// *complete* live state, including seeded ids that survived) and
    /// re-inserts every entry, restoring each entry's dirty bit so
    /// wire-upserted ids stay excluded from exact-table rescoring across
    /// the restart. Called before [`ShardRouter::attach_wal`].
    pub fn reset_shard_from_checkpoint(&self, s: usize, entries: &[CheckpointEntry]) {
        self.index.shard(s).clear();
        for e in entries {
            if e.dirty {
                self.mark_dirty(e.id);
            }
            self.index.shard(s).upsert(e.id, e.vector.clone());
        }
    }

    /// Recovery step 2: replays one recovered log record into shard `s`
    /// (upserts mark the id dirty, exactly as the original wire write
    /// did). Called after [`ShardRouter::reset_shard_from_checkpoint`],
    /// before [`ShardRouter::attach_wal`].
    pub fn replay_op(&self, s: usize, op: &WalOp) {
        match op {
            WalOp::Upsert { id, vector } => {
                self.mark_dirty(*id);
                self.index.shard(s).upsert(*id, vector.clone());
            }
            WalOp::Remove { id } => {
                self.index.shard(s).remove(*id);
            }
            WalOp::Compact => {
                self.index.compact_shard(s);
            }
        }
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
        if self.rescore_sealed {
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
        // must keep their own (asymmetric, error-bounded) distances.
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

    fn open_wals(dir: &std::path::Path, n: usize) -> Vec<(Wal, trajcl_index::WalRecovery)> {
        (0..n)
            .map(|s| {
                Wal::open(
                    dir,
                    &format!("shard{s}"),
                    trajcl_index::Durability::Fsync,
                    Arc::new(trajcl_index::RealFs),
                )
                .expect("open wal")
            })
            .collect()
    }

    #[test]
    fn durable_router_recovers_writes_dirty_bits_and_checkpoints() {
        let tmp = TempDir::new("roundtrip");
        let nshards = 2;
        // First life: durable writes, then drop (simulated restart).
        {
            let mut r = router(nshards);
            let wals = open_wals(&tmp.0, nshards).into_iter().map(|(w, _)| w);
            r.attach_wal(wals.collect(), 1 << 20);
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
        // Second life: recover from checkpoint + log tail.
        let r2 = router(nshards);
        let mut wals = Vec::new();
        for (s, (wal, recovery)) in open_wals(&tmp.0, nshards).into_iter().enumerate() {
            if let Some(ckpt) = &recovery.checkpoint {
                r2.reset_shard_from_checkpoint(s, &ckpt.entries);
            }
            for op in &recovery.ops {
                r2.replay_op(s, op);
            }
            wals.push(wal);
        }
        let mut r2 = r2;
        r2.attach_wal(wals, 1 << 20);
        let mut ids = r2.snapshot().live_ids();
        ids.sort_unstable();
        let want: Vec<u64> = (0..12).filter(|&id| id != 3).chain([20]).collect();
        assert_eq!(ids, want);
        // Recovered ids keep their dirty bit: with a lying exact table,
        // nothing is rescored (every id came in over the wire).
        let table = Tensor::from_vec(vec![99.0, 99.0], Shape::d2(1, 2));
        let hits = r2.search(Some(&table), &[5.0, 1.0], 1, usize::MAX);
        assert_eq!(hits[0], (5, 0.0));
        // A tiny threshold forces an auto-checkpoint on the next write.
        let log_before = r2.wal_log_bytes();
        assert!(log_before > 0);
        let r3 = {
            let mut r = r2;
            // Re-attach with a 1-byte threshold (drop + reopen the wals).
            drop(r.wal.take());
            let wals = open_wals(&tmp.0, nshards).into_iter().map(|(w, _)| w);
            r.attach_wal(wals.collect(), 1);
            r
        };
        r3.upsert(40, vec![40.0, 1.0]).unwrap();
        let s40 = r3.index().shard_of(40);
        // Shard s40's log was checkpointed and truncated past threshold.
        let log = std::fs::metadata(tmp.0.join(format!("shard{s40}.log")))
            .expect("log metadata")
            .len();
        assert_eq!(log, 0, "auto-checkpoint must truncate the shard log");
    }

    #[test]
    fn durable_upsert_fails_before_touching_the_index() {
        let tmp = TempDir::new("failfast");
        let mut r = router(1);
        // A crash injector that dies on the very first filesystem op:
        // the append fails, so the index must stay untouched.
        let fs = Arc::new(trajcl_index::CrashPointFs::unlimited());
        let (wal, _) = Wal::open(
            &tmp.0,
            "shard0",
            trajcl_index::Durability::Fsync,
            fs.clone(),
        )
        .expect("open wal");
        r.attach_wal(vec![wal], 1 << 20);
        r.upsert(1, vec![1.0, 0.0]).unwrap();
        let dead = Arc::new(trajcl_index::CrashPointFs::new(0, false));
        // Swap in a dead filesystem by reopening the WAL over it.
        drop(r.wal.take());
        // The injector may already kill the open itself — equally fine:
        // no write path ever existed.
        if let Ok((wal, _)) = Wal::open(&tmp.0, "shard0", trajcl_index::Durability::Fsync, dead) {
            r.attach_wal(vec![wal], 1 << 20);
            assert!(r.upsert(2, vec![2.0, 0.0]).is_err());
            assert!(r.remove(1).is_err());
            assert!(r.compact().is_err());
        }
        assert_eq!(r.index().len(), 1, "failed writes must not apply");
    }
}
