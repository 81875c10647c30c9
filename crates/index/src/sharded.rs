//! A hash-partitioned group of [`MutableIndex`] shards with
//! scatter-gather kNN — the index layer under sharded serving.
//!
//! Each external id is owned by exactly one shard, chosen by a fixed
//! hash of the id ([`ShardedIndex::shard_of`]). Every shard is a full
//! [`MutableIndex`]: its own writer lock, its own atomically-swapped read
//! snapshot, its own sealed part and write buffer, and its own
//! independently-schedulable compaction. Writes to different shards never
//! contend; a compaction retrains one shard's k-means while the other
//! shards keep absorbing writes and answering queries.
//!
//! kNN is scatter-gather: every shard is probed for its own top-k (in
//! parallel on the global [`trajcl_tensor::pool`] when more than one
//! shard exists), and the per-shard partials are merged with the fused
//! [`TopK`] heap from [`kernels`](crate::kernels). Because the shards
//! partition the id space, the union of per-shard top-k sets is a
//! superset of the global top-k, so the merge is *exact*: for unquantized
//! storage the sharded result is bit-identical to an unsharded index over
//! the same vectors, including `(distance, id)` tie ordering (see the
//! `sharded_knn_matches_unsharded` proptest).

use std::sync::Arc;

use trajcl_tensor::{pool, Shape, Tensor};

use crate::ivf::{IndexOptions, Metric};
use crate::kernels::TopK;
use crate::mutable::{ExactRescorer, IndexSnapshot, MutableIndex};

/// The finalizer of splitmix64 — a fixed, well-mixing `u64 -> u64`
/// permutation. Sequential ids (the common external-id pattern) land on
/// different shards instead of striping through `id % n` hotspots. Also
/// the mixer behind the serving layer's seeded jitter and fault streams.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Shard `s`'s build options: `opts` with the seed decorrelated per shard
/// (`seed ^ splitmix64(s)`), so shards' k-means inits differ without
/// giving up determinism.
fn shard_options(opts: IndexOptions, s: usize) -> IndexOptions {
    IndexOptions {
        seed: opts.seed ^ splitmix64(s as u64),
        ..opts
    }
}

/// The shard owning external id `id` in any `nshards`-way trajcl
/// partition: `splitmix64(id) % nshards`.
///
/// This is the **normative placement function** of the sharding
/// contract — [`ShardedIndex`] uses it internally, and any out-of-process
/// router (a fleet front-end addressing N shard servers) must use the
/// same function so wire-routed writes land where a co-located
/// [`ShardedIndex`] would put them. It is a pure function of
/// `(id, nshards)`; no routing state ever needs persisting.
///
/// # Examples
///
/// ```
/// use trajcl_index::shard_for;
///
/// // Sequential ids spread instead of striping.
/// let shards: Vec<usize> = (0..8u64).map(|id| shard_for(id, 4)).collect();
/// assert!(shards.iter().any(|&s| s != shards[0]));
/// // Pure function: same inputs, same shard, forever.
/// assert_eq!(shard_for(12345, 4), shard_for(12345, 4));
/// ```
#[inline]
pub fn shard_for(id: u64, nshards: usize) -> usize {
    (splitmix64(id) % nshards.max(1) as u64) as usize
}

/// Merges per-shard top-k partial hit lists into the exact global top-k
/// — the gather half of scatter-gather kNN, shared by
/// [`ShardedSnapshot::search`] and out-of-process routers (a fleet
/// front-end merging wire responses from N shard servers).
///
/// The partial lists must draw from **disjoint id sets** (shards
/// partition the id space), each sorted ascending as
/// [`IndexSnapshot::search`] returns them. Because no candidate can be
/// evicted inside its own shard by a vector from another shard, the
/// union of per-shard top-k sets contains the true global top-k; this
/// merge re-ranks that superset through the same fused [`TopK`] heap
/// the scan kernels use, keyed on the external id, so the unsharded
/// `(distance, id)` order is preserved bit-exactly.
///
/// # Examples
///
/// ```
/// use trajcl_index::merge_partials;
///
/// let merged = merge_partials(
///     vec![vec![(10, 0.5), (12, 2.0)], vec![(3, 1.0), (7, 2.0)]],
///     3,
/// );
/// assert_eq!(merged, vec![(10, 0.5), (3, 1.0), (7, 2.0)]);
/// ```
pub fn merge_partials(partials: Vec<Vec<(u64, f64)>>, k: usize) -> Vec<(u64, f64)> {
    let mut topk = TopK::new(k);
    for (id, d) in partials.into_iter().flatten() {
        topk.offer(id, d);
    }
    topk.into_sorted()
}

/// A group of hash-partitioned [`MutableIndex`] shards searched by
/// scatter-gather (see the module docs).
///
/// A 1-shard group behaves exactly like (and costs exactly as much as)
/// a bare [`MutableIndex`] — the serving layer always goes through this
/// type and treats "unsharded" as the degenerate case.
///
/// # Examples
///
/// ```
/// use trajcl_index::{IndexOptions, Metric, ShardedIndex};
///
/// // Four shards over 2-d vectors; ids route by a fixed hash.
/// let index = ShardedIndex::with_options(2, Metric::L1, IndexOptions::default(), 4);
/// for id in 0..32u64 {
///     index.upsert(id, vec![id as f32, 0.0]);
/// }
/// assert_eq!(index.len(), 32);
///
/// // Scatter-gather kNN merges per-shard partials exactly.
/// let hits = index.snapshot().search(&[3.1, 0.0], 2, usize::MAX);
/// assert_eq!(hits[0].0, 3);
/// assert_eq!(hits[1].0, 4);
///
/// // Compaction seals every shard independently; per-shard compaction
/// // (`compact_shard`) never stalls the others.
/// assert_eq!(index.compact(), 32);
/// assert!(index.remove(3));
/// assert_eq!(index.len(), 31);
/// ```
pub struct ShardedIndex {
    shards: Vec<MutableIndex>,
}

impl ShardedIndex {
    /// `nshards` empty shards over `dim`-dimensional vectors, each built
    /// with `opts` (every shard seals, quantizes and retrains
    /// independently). `nshards` is clamped to at least 1.
    pub fn with_options(dim: usize, metric: Metric, opts: IndexOptions, nshards: usize) -> Self {
        let shards = (0..nshards.max(1))
            .map(|s| MutableIndex::with_options(dim, metric, shard_options(opts, s)))
            .collect();
        ShardedIndex { shards }
    }

    /// A sharded index pre-seeded with `(ids[i], embeddings.row(i))`
    /// pairs: rows are partitioned by [`ShardedIndex::shard_of`] and each
    /// shard seals its partition immediately. Ids must be unique.
    pub fn from_table_with(
        ids: Vec<u64>,
        embeddings: &Tensor,
        metric: Metric,
        opts: IndexOptions,
        nshards: usize,
    ) -> Self {
        assert_eq!(
            ids.len(),
            embeddings.shape().rows(),
            "one id per embedding row"
        );
        let n = nshards.max(1);
        let dim = embeddings.shape().last();
        let mut part_ids: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut part_data: Vec<Vec<f32>> = vec![Vec::new(); n];
        for (row, &id) in ids.iter().enumerate() {
            let s = shard_for(id, n);
            part_ids[s].push(id);
            part_data[s].extend_from_slice(embeddings.row(row));
        }
        let shards: Vec<MutableIndex> = part_ids
            .into_iter()
            .zip(part_data)
            .enumerate()
            .map(|(s, (ids, data))| {
                let opts = shard_options(opts, s);
                if ids.is_empty() {
                    MutableIndex::with_options(dim, metric, opts)
                } else {
                    let rows = ids.len();
                    let table = Tensor::from_vec(data, Shape::d2(rows, dim));
                    MutableIndex::from_table_with(ids, &table, metric, opts)
                }
            })
            .collect();
        ShardedIndex { shards }
    }

    /// Number of shards (fixed at construction).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.shards[0].dim()
    }

    /// The shard owning external id `id`: `splitmix64(id) % nshards`.
    /// The hash is a fixed part of the sharding contract — two
    /// [`ShardedIndex`]es with the same shard count always agree on
    /// placement, so routing state never needs persisting.
    #[inline]
    pub fn shard_of(&self, id: u64) -> usize {
        shard_for(id, self.shards.len())
    }

    /// The shard at position `s` (diagnostics, per-shard compaction
    /// scheduling).
    pub fn shard(&self, s: usize) -> &MutableIndex {
        &self.shards[s]
    }

    /// Total live vectors across shards. Per-shard snapshots are taken
    /// one after another, so concurrent writers may be observed
    /// mid-flight across shards (each individual shard's count is
    /// consistent; use [`ShardedIndex::snapshot`] for the same caveat on
    /// searches).
    pub fn len(&self) -> usize {
        self.shards.iter().map(MutableIndex::len).sum()
    }

    /// True when no shard holds a live vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts or replaces the vector for `id` in its owning shard.
    /// Returns `true` when the id was already present. Writes to
    /// different shards serialise on different locks — they never
    /// contend.
    pub fn upsert(&self, id: u64, vector: Vec<f32>) -> bool {
        self.shards[self.shard_of(id)].upsert(id, vector)
    }

    /// Removes `id` from its owning shard; `true` when it was present.
    pub fn remove(&self, id: u64) -> bool {
        self.shards[self.shard_of(id)].remove(id)
    }

    /// Compacts every shard (each one independently: a shard's k-means
    /// retrain never blocks another shard's reads or writes). Returns the
    /// total number of live vectors sealed.
    pub fn compact(&self) -> usize {
        self.shards.iter().map(MutableIndex::compact).sum()
    }

    /// Compacts only shard `s` — the building block for rolling
    /// compaction schedules that bound the stall to one shard's rebuild.
    pub fn compact_shard(&self, s: usize) -> usize {
        self.shards[s].compact()
    }

    /// One read view per shard, taken back-to-back. Each shard's view is
    /// immutable and internally consistent; the *set* is not a global
    /// atomic cut, but since every id lives in exactly one shard, any
    /// single id is either present or absent — never duplicated or torn —
    /// in the combined view.
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            shards: self.shards.iter().map(MutableIndex::snapshot).collect(),
        }
    }

    /// One-shot scatter-gather kNN against a fresh snapshot.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u64, f64)> {
        self.snapshot().search(query, k, nprobe)
    }
}

/// An immutable scatter-gather read view: one [`IndexSnapshot`] per
/// shard (see [`ShardedIndex::snapshot`] for consistency semantics).
pub struct ShardedSnapshot {
    shards: Vec<Arc<IndexSnapshot>>,
}

impl ShardedSnapshot {
    /// Total live vectors across the shard views.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when no shard view holds a live vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total write-buffer entries across the shard views.
    pub fn buffer_len(&self) -> usize {
        self.shards.iter().map(|s| s.buffer_len()).sum()
    }

    /// Sum of per-shard publication counters: strictly increases with
    /// every mutation anywhere in the group (shards never decrement), so
    /// it works as a combined change detector even though it is not a
    /// global atomic cut.
    pub fn generation(&self) -> u64 {
        self.shards.iter().map(|s| s.generation()).sum()
    }

    /// Approximate resident bytes across the shard views.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum()
    }

    /// All live external ids across shards, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.shards.iter().flat_map(|s| s.live_ids()).collect();
        ids.sort_unstable();
        ids
    }

    /// The per-shard snapshot views (diagnostics).
    pub fn shard_views(&self) -> &[Arc<IndexSnapshot>] {
        &self.shards
    }

    /// Scatter-gather kNN: every shard answers its own top-k
    /// ([`IndexSnapshot::search`] semantics per shard, `nprobe` applied
    /// within each shard's sealed IVF), and the partials are merged with
    /// the fused [`TopK`] heap. Returns `(external id, distance)`
    /// ascending by `(distance, id)`, at most `k` entries — for exact
    /// (unquantized) storage, bit-identical to an unsharded search over
    /// the same vectors.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u64, f64)> {
        self.search_rescored(query, k, nprobe, None)
    }

    /// [`ShardedSnapshot::search`] with optional sealed-part rescoring,
    /// applied within each shard exactly as
    /// [`IndexSnapshot::search_rescored`] does (`Sync` because shards are
    /// probed from pool threads).
    pub fn search_rescored(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rescorer: Option<&(dyn ExactRescorer + Sync)>,
    ) -> Vec<(u64, f64)> {
        if k == 0 {
            return Vec::new();
        }
        if let [only] = self.shards.as_slice() {
            return only.search_rescored(
                query,
                k,
                nprobe,
                rescorer.map(|r| r as &dyn ExactRescorer),
            );
        }
        // Scatter: probe every shard for its own top-k, in parallel on
        // the global pool (caller-participating, so this makes progress
        // even when every worker lane is busy).
        let mut partials: Vec<Vec<(u64, f64)>> = vec![Vec::new(); self.shards.len()];
        pool::par_chunks_mut(&mut partials, 1, |s, out| {
            out[0] = self.shards[s].search_rescored(
                query,
                k,
                nprobe,
                rescorer.map(|r| r as &dyn ExactRescorer),
            );
        });
        // Gather: merge at most shards*k candidates through the shared
        // exact-merge seam (fused TopK heap, tie order preserved).
        merge_partials(partials, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vecs(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    #[test]
    fn routes_every_id_to_one_stable_shard() {
        let a = ShardedIndex::with_options(2, Metric::L1, IndexOptions::default(), 5);
        let b = ShardedIndex::with_options(2, Metric::L1, IndexOptions::default(), 5);
        for id in 0..1000u64 {
            let s = a.shard_of(id);
            assert!(s < 5);
            assert_eq!(s, b.shard_of(id), "placement is a pure function of id");
        }
        // The hash actually spreads sequential ids.
        let mut per_shard = [0usize; 5];
        for id in 0..1000u64 {
            per_shard[a.shard_of(id)] += 1;
        }
        for (s, &count) in per_shard.iter().enumerate() {
            assert!(count > 100, "shard {s} starved: {per_shard:?}");
        }
    }

    #[test]
    fn upsert_remove_compact_across_shards() {
        let index = ShardedIndex::with_options(3, Metric::L1, IndexOptions::default(), 4);
        let data = vecs(40, 3, 1);
        for (i, v) in data.iter().enumerate() {
            assert!(!index.upsert(i as u64, v.clone()));
        }
        assert_eq!(index.len(), 40);
        assert_eq!(index.compact(), 40);
        assert!(index.upsert(7, data[0].clone()), "replace after sealing");
        assert!(index.remove(7));
        assert!(!index.remove(7));
        assert_eq!(index.len(), 39);
        let hits = index.search(&data[12], 1, usize::MAX);
        assert_eq!(hits[0].0, 12);
        assert_eq!(hits[0].1, 0.0);
        // Per-shard compaction only reseals its own shard.
        let before: Vec<usize> = (0..4).map(|s| index.shard(s).buffer_len()).collect();
        index.compact_shard(0);
        assert_eq!(index.shard(0).buffer_len(), 0);
        for (s, &len) in before.iter().enumerate().skip(1) {
            assert_eq!(index.shard(s).buffer_len(), len);
        }
    }

    #[test]
    fn from_table_partitions_and_seals() {
        let data = vecs(60, 4, 3);
        let flat: Vec<f32> = data.iter().flatten().copied().collect();
        let table = Tensor::from_vec(flat, Shape::d2(60, 4));
        let ids: Vec<u64> = (500..560).collect();
        let index =
            ShardedIndex::from_table_with(ids, &table, Metric::L1, IndexOptions::default(), 3);
        assert_eq!(index.len(), 60);
        assert_eq!(index.snapshot().buffer_len(), 0, "from_table must seal");
        for (i, q) in data.iter().enumerate().step_by(11) {
            let hits = index.search(q, 1, usize::MAX);
            assert_eq!(hits[0], (500 + i as u64, 0.0));
        }
    }

    // The tentpole equivalence property: for exact (f32) storage, a
    // sharded index over the same live set returns bit-identical kNN —
    // ids, distances AND tie order — to a single unsharded index, for
    // any shard count, with and without IVF sealing (full probe),
    // whether the rows arrived by upsert or as one sealed table.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn sharded_knn_matches_unsharded(
            n in 8usize..60,
            nshards in 1usize..8,
            k in 1usize..12,
            nlist_raw in 0usize..5,
            seed in 0u64..1000,
            compact_mask in 0u32..8,
        ) {
            let d = 4;
            let data = vecs(n, d, seed);
            let nlist = (nlist_raw > 0).then_some(nlist_raw);
            let opts = IndexOptions { nlist, ..IndexOptions::default() };
            let single = MutableIndex::with_options(d, Metric::L1, opts);
            let sharded = ShardedIndex::with_options(d, Metric::L1, opts, nshards);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            for (i, v) in data.iter().enumerate() {
                // Mixed ops: upserts, replaces, removes, staggered
                // compactions (sharded compacts at different times than
                // the single index — snapshots must still agree).
                let id = rng.gen_range(0u64..(n as u64));
                single.upsert(id, v.clone());
                sharded.upsert(id, v.clone());
                if i % 7 == 3 {
                    single.remove(id / 2);
                    sharded.remove(id / 2);
                }
                if i % 13 == (compact_mask % 13) as usize {
                    sharded.compact();
                }
                if i % 17 == (compact_mask % 17) as usize {
                    single.compact();
                }
            }
            prop_assert_eq!(single.len(), sharded.len());
            for q in data.iter().step_by(5) {
                let want = single.search(q, k, usize::MAX);
                let got = sharded.snapshot().search(q, k, usize::MAX);
                prop_assert_eq!(&got, &want, "sharded != unsharded");
                // Bit-identical distances, not merely approximately equal.
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(g.1.to_bits() == w.1.to_bits());
                }
            }

            // The same property for the index a server starts from: one
            // table sealed by `from_table_with` (never upserted), cut 1, 4
            // and 16 ways — 16 leaves shards empty or smaller than `nlist`.
            let table = Tensor::from_vec(data.concat(), Shape::d2(n, d));
            let ids: Vec<u64> = (0..n as u64).collect();
            let sealed =
                |cut| ShardedIndex::from_table_with(ids.clone(), &table, Metric::L1, opts, cut);
            let one = sealed(1);
            for cut in [4, 16] {
                let many = sealed(cut);
                prop_assert_eq!(many.snapshot().buffer_len(), 0);
                for q in data.iter().step_by(5) {
                    let bits = |index: &ShardedIndex| -> Vec<(u64, u64)> {
                        let hits = index.search(q, k, usize::MAX);
                        hits.iter().map(|&(id, d)| (id, d.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(&many), bits(&one), "{} sealed shards != 1", cut);
                }
            }
        }
    }
}
