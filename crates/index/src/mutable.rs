//! A mutable vector index with immutable, atomically-swapped read
//! snapshots — the serving layer's answer to "the database is frozen at
//! build time".
//!
//! Layout: a **sealed** part (an [`IvfIndex`] when cells are configured, a
//! flat table otherwise) built at construction or by the last
//! [`MutableIndex::compact`], plus a **write buffer** of vectors upserted
//! since. Deletions from the sealed part are tombstones; the buffer is
//! brute-force-scanned alongside the sealed lists at query time, so writes
//! are visible immediately without touching the trained centroids.
//!
//! Concurrency: readers clone an `Arc<IndexSnapshot>` out of an `RwLock`
//! (held only for the pointer copy — never across a search) and run
//! entirely on that immutable snapshot; a reader holding a snapshot keeps
//! observing exactly the index state it started from. Writers serialise on
//! a separate mutex, rebuild the cheap mutable tail (tombstone bitmap +
//! buffer), and publish a fresh snapshot with one pointer swap — readers
//! never block on a writer, and can never observe a torn (half-updated)
//! index.
//!
//! [`MutableIndex::compact`] folds tombstones and buffer into a newly
//! trained sealed part (k-means re-run), emptying the mutable tail. Its
//! cost is a full rebuild. With [`Quantization::Sq8`] (int8 codes) or
//! [`Quantization::Pq`] (product-quantized codes, sub-quantizers
//! retrained at every compaction) the sealed part is stored compressed
//! (the write buffer always stays exact f32); a compaction then reads
//! sealed rows back *decoded*, so re-sealing an SQ8 part re-encodes
//! values that already sit on the code lattice — the error does not
//! compound beyond the codebook's per-step bound (PQ re-seals re-train
//! centroids on the decoded rows, which reproduce them near-exactly for
//! the same reason). Sealed quantized searches return asymmetric
//! distances; [`IndexSnapshot::search_rescored`] lets a caller holding
//! exact vectors (the serving engine's cached table) re-rank them
//! exactly. Buffer-only writes republish in O(buffer)
//! pointer copies (vectors and the tombstone bitmap are `Arc`-shared
//! with snapshots); a write that tombstones a sealed position
//! additionally pays one bitmap copy-on-write.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_tensor::{Shape, Tensor};

use crate::ivf::{brute_force_knn, IndexOptions, IvfIndex, Metric, Quantization};

/// Where an external id currently lives (writer-side bookkeeping).
#[derive(Clone, Copy, Debug)]
enum Loc {
    /// Position in the sealed part.
    Sealed(u32),
    /// Index into the write buffer.
    Buffer(usize),
}

/// The sealed (trained, immutable) part of the index.
enum Sealed {
    /// IVF-searched when cells are configured.
    Ivf(IvfIndex),
    /// Flat brute-force table otherwise.
    Flat(Tensor),
}

impl Sealed {
    fn len(&self) -> usize {
        match self {
            Sealed::Ivf(ivf) => ivf.len(),
            Sealed::Flat(t) => t.shape().rows(),
        }
    }

    /// Appends row `pos` to `out` (decoded when the sealed part is
    /// quantized — the compaction read-back path).
    fn append_vector(&self, pos: u32, out: &mut Vec<f32>) {
        match self {
            Sealed::Ivf(ivf) => ivf.decode_vector_into(pos, out),
            Sealed::Flat(t) => out.extend_from_slice(t.row(pos as usize)),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            Sealed::Ivf(ivf) => ivf.memory_bytes(),
            Sealed::Flat(t) => t.data().len() * 4,
        }
    }
}

/// One immutable, internally-consistent view of a [`MutableIndex`].
///
/// A snapshot never changes after publication: searches against it are
/// repeatable, and a reader mixing several calls (`len`, `search`,
/// `live_ids`) on one snapshot sees one coherent index state.
pub struct IndexSnapshot {
    sealed: Option<Arc<Sealed>>,
    /// Position -> external id for the sealed part.
    sealed_ids: Arc<Vec<u64>>,
    /// Sealed positions deleted (or replaced into the buffer) since the
    /// last compaction.
    tombstones: Arc<Vec<bool>>,
    /// Number of `true` entries in `tombstones` (precomputed).
    dead: usize,
    /// Vectors upserted since the last compaction.
    buffer: Arc<Vec<(u64, Arc<Vec<f32>>)>>,
    /// Monotonically increasing publication counter.
    generation: u64,
    dim: usize,
    metric: Metric,
}

impl IndexSnapshot {
    /// Number of live (searchable) vectors.
    pub fn len(&self) -> usize {
        self.sealed.as_ref().map_or(0, |s| s.len()) - self.dead + self.buffer.len()
    }

    /// True when no vector is searchable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The publication counter: strictly increases with every mutation,
    /// so two snapshots with equal generations are the same snapshot.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Vectors in this snapshot's write buffer (upserted since the last
    /// compaction).
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Approximate resident bytes of this snapshot's index state: the
    /// sealed part (quantized when SQ8 is configured) plus the exact-f32
    /// write buffer and tombstone bitmap.
    pub fn memory_bytes(&self) -> usize {
        self.sealed.as_ref().map_or(0, |s| s.memory_bytes())
            + self.buffer.len() * (16 + self.dim * 4)
            + self.tombstones.len()
            + self.sealed_ids.len() * 8
    }

    /// All live external ids, ascending (test/diagnostic helper).
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .sealed_ids
            .iter()
            .enumerate()
            .filter(|(pos, _)| !self.tombstones[*pos])
            .map(|(_, &id)| id)
            .collect();
        ids.extend(self.buffer.iter().map(|(id, _)| *id));
        ids.sort_unstable();
        ids
    }

    /// Every live `(id, vector)` pair: sealed survivors (decoded — exact
    /// for f32 storage, codebook-reconstructed for SQ8/PQ, the same
    /// read-back a compaction performs) followed by the write buffer.
    /// This is the WAL checkpoint capture path (DESIGN.md §15).
    pub fn live_entries(&self) -> Vec<(u64, Vec<f32>)> {
        let mut out = Vec::with_capacity(self.len());
        if let Some(sealed) = &self.sealed {
            for pos in 0..sealed.len() {
                if !self.tombstones[pos] {
                    let mut v = Vec::with_capacity(self.dim);
                    sealed.append_vector(pos as u32, &mut v);
                    out.push((self.sealed_ids[pos], v));
                }
            }
        }
        for (id, v) in self.buffer.iter() {
            out.push((*id, v.as_slice().to_vec()));
        }
        out
    }

    /// kNN over this snapshot: probes the sealed part (IVF with `nprobe`
    /// cells, or exact flat scan), filters tombstones, brute-force-scans
    /// the write buffer, and merges. Returns `(external id, distance)`
    /// ascending, at most `k` entries. Quantized sealed hits carry
    /// asymmetric distances — see [`IndexSnapshot::search_rescored`] for
    /// the exact-rescoring variant.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u64, f64)> {
        self.search_rescored(query, k, nprobe, None)
    }

    /// [`IndexSnapshot::search`] with optional sealed-part rescoring.
    ///
    /// A quantized (SQ8/PQ) sealed part keeps no exact copy of its rows,
    /// so plain searches return *asymmetric* distances (exact query vs
    /// quantized rows), correct within the codebook's error bound. When
    /// the caller can supply exact vectors for (some) external ids — the
    /// serving layer's engine keeps its cached embedding table for
    /// exactly this — passing a [`ExactRescorer`] makes the sealed scan
    /// over-fetch `rescore_factor · k` candidates and re-rank every hit
    /// the rescorer covers with exact distances.
    ///
    /// **Caveat:** ids the rescorer returns `None` for (vectors upserted
    /// or replaced after the exact table was built) keep their asymmetric
    /// distances and compete in the merged ranking as-is; each individual
    /// distance stays within the quantization error bound, but the final
    /// ordering mixes exact and asymmetric values. Buffer hits are always
    /// exact. With an f32 (unquantized) sealed part the rescorer is
    /// ignored — distances are exact already.
    pub fn search_rescored(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rescorer: Option<&dyn ExactRescorer>,
    ) -> Vec<(u64, f64)> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        // Clamp before allocating: at most len() hits exist, and k comes
        // straight off the wire in the serve protocol — an absurd k must
        // not turn into an absurd allocation.
        let k = k.min(self.len());
        let mut hits: Vec<(u64, f64)> = Vec::with_capacity(k + self.buffer.len());
        if let Some(sealed) = &self.sealed {
            // Over-fetch by the tombstone count so filtering cannot starve
            // the result below k while live candidates were probed; when a
            // rescorer is in play, additionally over-fetch the sealed
            // IvfIndex's rescore factor so re-ranking has candidates to
            // promote.
            let (fetch, rescoring) = match (sealed.as_ref(), rescorer) {
                (Sealed::Ivf(ivf), Some(_)) if ivf.quantization() != Quantization::None => {
                    (k.saturating_mul(ivf.rescore_factor()).max(k), true)
                }
                _ => (k, false),
            };
            let sealed_hits = match sealed.as_ref() {
                Sealed::Ivf(ivf) => ivf.search(query, fetch + self.dead, nprobe),
                Sealed::Flat(t) => brute_force_knn(t, query, fetch + self.dead, self.metric),
            };
            hits.extend(
                sealed_hits
                    .into_iter()
                    .filter(|(pos, _)| !self.tombstones[*pos as usize])
                    .map(|(pos, d)| {
                        let id = self.sealed_ids[pos as usize];
                        let d = if rescoring {
                            rescorer
                                .and_then(|r| r.exact_vector(id))
                                .map_or(d, |v| self.metric.dist(query, v))
                        } else {
                            d
                        };
                        (id, d)
                    }),
            );
        }
        for (id, v) in self.buffer.iter() {
            hits.push((*id, self.metric.dist(query, v.as_slice())));
        }
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }
}

/// A source of exact vectors for sealed-part rescoring
/// ([`IndexSnapshot::search_rescored`]): maps an external id to its exact
/// f32 vector when one is known to match what the index holds for that
/// id, `None` otherwise (in which case the asymmetric distance is kept).
pub trait ExactRescorer {
    /// The exact vector for `id`, when available and current.
    fn exact_vector(&self, id: u64) -> Option<&[f32]>;
}

/// Writer-side state (everything needed to build the next snapshot).
///
/// `tombstones` lives behind an `Arc` shared with the published snapshot:
/// buffer-only writes republish it for free, and `Arc::make_mut` pays the
/// bitmap copy only on writes that actually touch the sealed part.
/// Buffer vectors are `Arc`'d too, so republishing the buffer is a
/// shallow O(buffer) pointer copy, never a deep float copy.
struct Writer {
    id_loc: HashMap<u64, Loc>,
    tombstones: Arc<Vec<bool>>,
    /// Count of `true` entries in `tombstones` (kept incrementally).
    dead: usize,
    buffer: Vec<(u64, Arc<Vec<f32>>)>,
    generation: u64,
}

/// A mutable, snapshot-readable vector index over external `u64` ids.
///
/// All read paths go through [`MutableIndex::snapshot`] (or the
/// [`MutableIndex::search`] convenience wrapper); all write paths serialise
/// internally, so `&self` methods are safe to call from any number of
/// threads.
///
/// # Examples
///
/// ```
/// use trajcl_index::{Metric, MutableIndex};
///
/// // An empty 2-d index that trains 2 IVF cells at every compaction.
/// let index = MutableIndex::new(2, Metric::L1, Some(2), 0);
/// index.upsert(7, vec![0.0, 0.0]);
/// index.upsert(8, vec![5.0, 5.0]);
///
/// // Writes are visible immediately (buffer scan), no compaction needed.
/// assert_eq!(index.search(&[0.1, 0.0], 1, 1)[0].0, 7);
///
/// // Compaction folds the buffer into a freshly trained sealed part;
/// // readers holding older snapshots are unaffected.
/// let old = index.snapshot();
/// assert_eq!(index.compact(), 2);
/// index.remove(7);
/// assert_eq!(old.len(), 2); // the held snapshot still sees id 7
/// assert_eq!(index.len(), 1);
/// ```
pub struct MutableIndex {
    snapshot: RwLock<Arc<IndexSnapshot>>,
    writer: Mutex<Writer>,
    dim: usize,
    metric: Metric,
    opts: IndexOptions,
}

impl MutableIndex {
    /// An empty index over `dim`-dimensional vectors. `nlist` requests IVF
    /// training at every compaction; `seed` makes retraining deterministic.
    /// (Convenience wrapper over [`MutableIndex::with_options`].)
    pub fn new(dim: usize, metric: Metric, nlist: Option<usize>, seed: u64) -> Self {
        Self::with_options(
            dim,
            metric,
            IndexOptions {
                nlist,
                seed,
                ..IndexOptions::default()
            },
        )
    }

    /// An empty index with full construction options (quantized sealed
    /// storage, rescore factor).
    pub fn with_options(dim: usize, metric: Metric, opts: IndexOptions) -> Self {
        assert!(dim > 0, "vector dimensionality must be positive");
        let snapshot = IndexSnapshot {
            sealed: None,
            sealed_ids: Arc::new(Vec::new()),
            tombstones: Arc::new(Vec::new()),
            dead: 0,
            buffer: Arc::new(Vec::new()),
            generation: 0,
            dim,
            metric,
        };
        MutableIndex {
            snapshot: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(Writer {
                id_loc: HashMap::new(),
                tombstones: Arc::new(Vec::new()),
                dead: 0,
                buffer: Vec::new(),
                generation: 0,
            }),
            dim,
            metric,
            opts,
        }
    }

    /// An index pre-seeded with `(ids[i], embeddings.row(i))` pairs, sealed
    /// immediately (IVF-trained when `nlist` is set). Ids must be unique.
    /// (Convenience wrapper over [`MutableIndex::from_table_with`].)
    pub fn from_table(
        ids: Vec<u64>,
        embeddings: &Tensor,
        metric: Metric,
        nlist: Option<usize>,
        seed: u64,
    ) -> Self {
        Self::from_table_with(
            ids,
            embeddings,
            metric,
            IndexOptions {
                nlist,
                seed,
                ..IndexOptions::default()
            },
        )
    }

    /// [`MutableIndex::from_table`] with full construction options.
    pub fn from_table_with(
        ids: Vec<u64>,
        embeddings: &Tensor,
        metric: Metric,
        opts: IndexOptions,
    ) -> Self {
        assert_eq!(
            ids.len(),
            embeddings.shape().rows(),
            "one id per embedding row"
        );
        let index = MutableIndex::with_options(embeddings.shape().last(), metric, opts);
        if !ids.is_empty() {
            let mut w = index.writer.lock().unwrap_or_else(|p| p.into_inner());
            for (i, &id) in ids.iter().enumerate() {
                assert!(
                    w.id_loc.insert(id, Loc::Buffer(i)).is_none(),
                    "duplicate id {id} in from_table"
                );
            }
            w.buffer = ids
                .iter()
                .zip(0..)
                .map(|(&id, i)| (id, Arc::new(embeddings.row(i).to_vec())))
                .collect();
            index.seal(&mut w);
        }
        index
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The options every sealed part of this index is built with.
    pub fn options(&self) -> &IndexOptions {
        &self.opts
    }

    /// Number of live vectors (via the current snapshot).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when no vector is searchable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current read snapshot. Cheap (one `Arc` clone under a read
    /// lock); hold it to run any number of mutually-consistent queries.
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// One-shot kNN against the current snapshot.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u64, f64)> {
        self.snapshot().search(query, k, nprobe)
    }

    /// Inserts or replaces the vector for `id`. Returns `true` when the id
    /// was already present (replace).
    pub fn upsert(&self, id: u64, vector: Vec<f32>) -> bool {
        assert_eq!(vector.len(), self.dim, "vector dimensionality mismatch");
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let vector = Arc::new(vector);
        let existed = match w.id_loc.get(&id).copied() {
            Some(Loc::Buffer(i)) => {
                w.buffer[i].1 = vector;
                true
            }
            Some(Loc::Sealed(pos)) => {
                Arc::make_mut(&mut w.tombstones)[pos as usize] = true;
                w.dead += 1;
                w.buffer.push((id, vector));
                let slot = Loc::Buffer(w.buffer.len() - 1);
                w.id_loc.insert(id, slot);
                true
            }
            None => {
                w.buffer.push((id, vector));
                let slot = Loc::Buffer(w.buffer.len() - 1);
                w.id_loc.insert(id, slot);
                false
            }
        };
        self.publish(&mut w);
        existed
    }

    /// Removes `id`; returns `true` when it was present.
    pub fn remove(&self, id: u64) -> bool {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let removed = match w.id_loc.remove(&id) {
            Some(Loc::Sealed(pos)) => {
                Arc::make_mut(&mut w.tombstones)[pos as usize] = true;
                w.dead += 1;
                true
            }
            Some(Loc::Buffer(i)) => {
                w.buffer.swap_remove(i);
                if let Some(&(moved, _)) = w.buffer.get(i) {
                    w.id_loc.insert(moved, Loc::Buffer(i));
                }
                true
            }
            None => false,
        };
        if removed {
            self.publish(&mut w);
        }
        removed
    }

    /// Drops every vector and publishes an empty snapshot — the reset
    /// step of checkpoint-based crash recovery (the recovered state is
    /// rebuilt from the checkpoint's complete live set, so nothing
    /// pre-existing may survive). Readers holding old snapshots are
    /// unaffected.
    pub fn clear(&self) {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        w.id_loc = HashMap::new();
        w.tombstones = Arc::new(Vec::new());
        w.dead = 0;
        w.buffer = Vec::new();
        w.generation += 1;
        let published = IndexSnapshot {
            sealed: None,
            sealed_ids: Arc::new(Vec::new()),
            tombstones: w.tombstones.clone(),
            dead: 0,
            buffer: Arc::new(Vec::new()),
            generation: w.generation,
            dim: self.dim,
            metric: self.metric,
        };
        *self.snapshot.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(published);
    }

    /// Vectors currently sitting in the write buffer (0 right after a
    /// compaction; grows with every insert until the next one).
    pub fn buffer_len(&self) -> usize {
        self.snapshot().buffer.len()
    }

    /// Folds tombstones and the write buffer into a freshly trained sealed
    /// part (k-means re-run when IVF cells are configured) and publishes
    /// the result atomically. Readers holding older snapshots are
    /// unaffected. Returns the number of live vectors sealed.
    pub fn compact(&self) -> usize {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        self.seal(&mut w)
    }

    /// Builds a new sealed part from `w`'s live set, resets the mutable
    /// tail and publishes. Caller holds the writer lock.
    fn seal(&self, w: &mut Writer) -> usize {
        // Assemble the live vectors: sealed survivors first, then buffer.
        let snap = self.snapshot();
        let mut ids: Vec<u64> = Vec::with_capacity(snap.len());
        let mut data: Vec<f32> = Vec::with_capacity(snap.len() * self.dim);
        if let Some(sealed) = &snap.sealed {
            for pos in 0..sealed.len() {
                if !w.tombstones[pos] {
                    ids.push(snap.sealed_ids[pos]);
                    sealed.append_vector(pos as u32, &mut data);
                }
            }
        }
        for (id, v) in w.buffer.iter() {
            ids.push(*id);
            data.extend_from_slice(v);
        }
        let n = ids.len();
        let sealed = if n == 0 {
            None
        } else {
            let table = Tensor::from_vec(data, Shape::d2(n, self.dim));
            // Quantized storage always lives in an IVF container; without
            // configured cells `build_with` trains a single list, which
            // keeps the scan exhaustive (every search probes at least one
            // cell).
            let flat = self.opts.nlist.is_none() && self.opts.quantization == Quantization::None;
            Some(Arc::new(if flat {
                Sealed::Flat(table)
            } else {
                // Deterministic retrain: seed varies with generation so
                // repeated compactions don't re-use degenerate inits.
                let mut rng = StdRng::seed_from_u64(self.opts.seed ^ w.generation);
                Sealed::Ivf(IvfIndex::build_with(
                    &table,
                    self.metric,
                    &self.opts,
                    &mut rng,
                ))
            }))
        };
        w.id_loc = ids
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, Loc::Sealed(pos as u32)))
            .collect();
        w.tombstones = Arc::new(vec![false; n]);
        w.dead = 0;
        w.buffer = Vec::new();
        w.generation += 1;
        let published = IndexSnapshot {
            sealed,
            sealed_ids: Arc::new(ids),
            tombstones: w.tombstones.clone(),
            dead: 0,
            buffer: Arc::new(Vec::new()),
            generation: w.generation,
            dim: self.dim,
            metric: self.metric,
        };
        *self.snapshot.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(published);
        n
    }

    /// Publishes a snapshot of `w`'s current state (writer lock held).
    fn publish(&self, w: &mut Writer) {
        w.generation += 1;
        let snap = self.snapshot();
        let published = IndexSnapshot {
            sealed: snap.sealed.clone(),
            sealed_ids: snap.sealed_ids.clone(),
            tombstones: w.tombstones.clone(),
            dead: w.dead,
            buffer: Arc::new(w.buffer.clone()),
            generation: w.generation,
            dim: self.dim,
            metric: self.metric,
        };
        *self.snapshot.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(published);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn vecs(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    /// Brute-force oracle over an id -> vector map.
    fn oracle_knn(
        live: &HashMap<u64, Vec<f32>>,
        query: &[f32],
        k: usize,
        metric: Metric,
    ) -> Vec<u64> {
        let mut hits: Vec<(u64, f64)> = live
            .iter()
            .map(|(id, v)| (*id, metric.dist(query, v)))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits.into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn upsert_search_remove_round_trip() {
        let index = MutableIndex::new(4, Metric::L1, None, 0);
        assert!(index.is_empty());
        let data = vecs(10, 4, 1);
        for (i, v) in data.iter().enumerate() {
            assert!(!index.upsert(i as u64, v.clone()));
        }
        assert_eq!(index.len(), 10);
        let hits = index.search(&data[3], 1, 1);
        assert_eq!(hits[0].0, 3);
        assert_eq!(hits[0].1, 0.0);
        assert!(index.remove(3));
        assert!(!index.remove(3));
        assert_eq!(index.len(), 9);
        let hits = index.search(&data[3], 1, 1);
        assert_ne!(hits[0].0, 3, "removed id must not be returned");
    }

    #[test]
    fn upsert_replaces_in_place() {
        let index = MutableIndex::new(2, Metric::L2, None, 0);
        assert!(!index.upsert(7, vec![0.0, 0.0]));
        assert!(index.upsert(7, vec![5.0, 5.0]));
        assert_eq!(index.len(), 1);
        let hits = index.search(&[5.0, 5.0], 1, 1);
        assert_eq!(hits[0], (7, 0.0));
    }

    #[test]
    fn matches_oracle_through_mixed_ops_and_compactions() {
        let metric = Metric::L1;
        let index = MutableIndex::new(6, metric, Some(4), 42);
        let mut live: HashMap<u64, Vec<f32>> = HashMap::new();
        let data = vecs(120, 6, 7);
        let mut rng = StdRng::seed_from_u64(9);
        for (step, v) in data.iter().enumerate() {
            let id = rng.gen_range(0u64..40);
            match rng.gen_range(0u32..4) {
                0 => {
                    index.remove(id);
                    live.remove(&id);
                }
                1 if step % 17 == 0 => {
                    index.compact();
                }
                _ => {
                    index.upsert(id, v.clone());
                    live.insert(id, v.clone());
                }
            }
            assert_eq!(index.len(), live.len(), "step {step}");
        }
        // Full-probe IVF + buffer scan must equal the oracle exactly.
        let snap = index.snapshot();
        for q in data.iter().step_by(13) {
            let got: Vec<u64> = snap
                .search(q, 5, usize::MAX)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            assert_eq!(got, oracle_knn(&live, q, 5, metric));
        }
        // And again after sealing everything.
        index.compact();
        for q in data.iter().step_by(13) {
            let got: Vec<u64> = index
                .search(q, 5, usize::MAX)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            assert_eq!(got, oracle_knn(&live, q, 5, metric));
        }
    }

    #[test]
    fn from_table_seeds_sealed_part() {
        let data = vecs(30, 3, 3);
        let flat: Vec<f32> = data.iter().flatten().copied().collect();
        let table = Tensor::from_vec(flat, Shape::d2(30, 3));
        let ids: Vec<u64> = (100..130).collect();
        let index = MutableIndex::from_table(ids, &table, Metric::L1, Some(5), 0);
        assert_eq!(index.len(), 30);
        assert_eq!(index.buffer_len(), 0, "from_table must seal");
        let hits = index.search(&data[12], 1, usize::MAX);
        assert_eq!(hits[0], (112, 0.0));
    }

    #[test]
    fn old_snapshots_survive_mutation_and_compaction() {
        let index = MutableIndex::new(2, Metric::L1, Some(2), 0);
        for i in 0..8u64 {
            index.upsert(i, vec![i as f32, 0.0]);
        }
        let old = index.snapshot();
        let old_gen = old.generation();
        index.remove(0);
        index.upsert(99, vec![-1.0, 0.0]);
        index.compact();
        // The held snapshot still answers from the pre-mutation state.
        assert_eq!(old.generation(), old_gen);
        assert_eq!(old.len(), 8);
        assert_eq!(old.search(&[0.0, 0.0], 1, usize::MAX)[0].0, 0);
        // The new snapshot sees the mutations.
        let new = index.snapshot();
        assert!(new.generation() > old_gen);
        assert_eq!(new.search(&[-1.0, 0.0], 1, usize::MAX)[0].0, 99);
        assert_eq!(new.len(), 8);
        assert!(!new.live_ids().contains(&0));
    }

    #[test]
    fn tombstone_overfetch_keeps_k_results() {
        // Delete most of the sealed part; k results must still surface.
        let data = vecs(20, 2, 5);
        let flat: Vec<f32> = data.iter().flatten().copied().collect();
        let table = Tensor::from_vec(flat, Shape::d2(20, 2));
        let index = MutableIndex::from_table((0..20).collect(), &table, Metric::L2, None, 0);
        for id in 0..15u64 {
            index.remove(id);
        }
        assert_eq!(index.len(), 5);
        assert_eq!(index.search(&data[0], 5, 1).len(), 5);
    }
}
