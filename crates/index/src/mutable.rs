//! A mutable vector index with immutable, atomically-swapped read
//! snapshots — the serving layer's answer to "the database is frozen at
//! build time".
//!
//! Layout: a **sealed** part (an [`IvfIndex`]: the configured cells, or
//! one list without them) built at construction or by the last
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
//! cost is a full rebuild. With [`crate::Quantization::Sq8`] (int8 codes)
//! or [`crate::Quantization::Pq`] (product-quantized codes, sub-quantizers
//! retrained at every compaction) the sealed part is stored compressed
//! (the write buffer always stays exact f32); a compaction then reads
//! sealed rows back *decoded*, so re-sealing an SQ8 part re-encodes
//! values that already sit on the code lattice — the error does not
//! compound beyond the codebook's per-step bound (PQ re-seals re-train
//! centroids on the decoded rows, which reproduce them near-exactly for
//! the same reason). Sealed quantized searches return quantized
//! distances; [`IndexSnapshot::search_rescored`] lets a caller holding
//! exact vectors (the serving engine's cached table) re-rank them
//! exactly.
//!
//! What a write costs: the buffer is a spine of fixed-capacity chunks
//! (ids beside column blocks, the layout of a sealed list) and the
//! tombstones a spine of fixed-size bit blocks, both shared structurally
//! between the writer and every snapshot. A write copies the one or two
//! chunks (and the one block) it touches and republishes the two spines,
//! one pointer per chunk and per block — never the buffer. A read scans
//! each chunk 32 rows per query broadcast ([`l1_scan_columns`], the same
//! bits as the per-row `l1_f32`) into a fused top-k, so only the buffer's
//! own best `k` reach the final merge.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_tensor::{Shape, Tensor};

use crate::ivf::{IndexOptions, IvfIndex, Metric, SearchScratch};
use crate::kernels::{column_block_offset, dispatch, l1_scan_columns, TopK, BLOCK_ROWS};

/// Row data per write-buffer chunk (`CHUNK_BYTES / (4 · dim)` rows, at
/// least 8): a write copies at most this much, and a publish clones one
/// pointer per this much.
const CHUNK_BYTES: usize = 16 << 10;

/// Sealed positions per tombstone block (4 KiB of bits).
const TOMBSTONE_BLOCK_BITS: usize = 1 << 15;

thread_local! {
    /// The sealed searches' scratch: one per thread, so a sharded search
    /// reuses it across the shards a pool lane answers, and across
    /// queries. It keeps the largest heaps a search on its thread needed,
    /// at most an index's length of candidates.
    static SCRATCH: RefCell<SearchScratch> = RefCell::default();
}

/// One block of the write buffer: external ids beside their vectors,
/// stored as column blocks for [`l1_scan_columns`] — value `x` of slot
/// `r` is `cols[column_block_offset(dim, r) + x * BLOCK_ROWS]`, as in a
/// sealed list. Slots past `ids.len()` hold zeros. Every chunk of a
/// [`Buffer`] but the last is full.
struct Chunk {
    ids: Vec<u64>,
    cols: Vec<f32>,
}

impl Chunk {
    /// Slot `at`'s values, dimension by dimension (`dim` of them).
    fn slots(&mut self, at: usize, dim: usize) -> impl Iterator<Item = &mut f32> {
        let values = self.cols[column_block_offset(dim, at)..].iter_mut();
        values.step_by(BLOCK_ROWS).take(dim)
    }

    /// Slot `at`'s vector, dimension by dimension.
    fn row(&self, at: usize, dim: usize) -> impl Iterator<Item = f32> + '_ {
        let values = self.cols[column_block_offset(dim, at)..].iter();
        values.step_by(BLOCK_ROWS).take(dim).copied()
    }

    /// Writes `row` into slot `at`.
    fn write(&mut self, at: usize, row: &[f32]) {
        let slots = self.slots(at, row.len());
        slots.zip(row).for_each(|(slot, &v)| *slot = v);
    }
}

impl Clone for Chunk {
    /// The copy a write makes of a shared chunk keeps the full-chunk
    /// capacity, so appending to it never reallocates.
    fn clone(&self) -> Self {
        let mut ids = Vec::with_capacity(self.ids.capacity());
        ids.extend_from_slice(&self.ids);
        let cols = self.cols.clone();
        Chunk { ids, cols }
    }
}

/// The write buffer: rows in slot order, stored as a spine of
/// copy-on-write chunks. Cloning it (what a publish does) copies the
/// spine only; a mutation `Arc::make_mut`s the chunks it touches, so a
/// snapshot holding the previous spine never sees it.
#[derive(Clone)]
struct Buffer {
    chunks: Vec<Arc<Chunk>>,
    dim: usize,
}

impl Buffer {
    fn new(dim: usize) -> Self {
        let chunks = Vec::new();
        Buffer { chunks, dim }
    }

    /// Rows per chunk.
    fn cap(&self) -> usize {
        (CHUNK_BYTES / (4 * self.dim)).max(8)
    }

    /// Slots of a chunk: [`Buffer::cap`] rounded up to whole column
    /// blocks.
    fn stride(&self) -> usize {
        self.cap().next_multiple_of(BLOCK_ROWS)
    }

    fn len(&self) -> usize {
        self.chunks.last().map_or(0, |tail| {
            (self.chunks.len() - 1) * self.cap() + tail.ids.len()
        })
    }

    /// Every `(id, vector)` in slot order.
    fn entries(&self) -> impl Iterator<Item = (u64, impl Iterator<Item = f32> + '_)> {
        let dim = self.dim;
        self.chunks.iter().flat_map(move |chunk| {
            let ids = chunk.ids.iter().enumerate();
            ids.map(move |(at, &id)| (id, chunk.row(at, dim)))
        })
    }

    /// Appends a row as the last slot.
    fn push(&mut self, id: u64, row: &[f32]) {
        let (cap, stride) = (self.cap(), self.stride());
        if self.len().is_multiple_of(cap) {
            self.chunks.push(Arc::new(Chunk {
                ids: Vec::with_capacity(cap),
                cols: vec![0.0; self.dim * stride],
            }));
        }
        let tail = self.chunks.len() - 1;
        let tail = Arc::make_mut(&mut self.chunks[tail]);
        tail.write(tail.ids.len(), row);
        tail.ids.push(id);
    }

    /// Overwrites slot `i`.
    fn set(&mut self, i: usize, id: u64, row: &[f32]) {
        let (chunk, at) = (i / self.cap(), i % self.cap());
        let chunk = Arc::make_mut(&mut self.chunks[chunk]);
        chunk.ids[at] = id;
        chunk.write(at, row);
    }

    /// Removes slot `i` by moving the last row into it (`Vec::swap_remove`
    /// order); returns the id that moved, if any did.
    fn swap_remove(&mut self, i: usize) -> Option<u64> {
        let last = self.len().checked_sub(1)?;
        let tail = Arc::make_mut(self.chunks.last_mut()?);
        let id = tail.ids.pop()?;
        let vacated = tail.slots(tail.ids.len(), self.dim);
        let row: Vec<f32> = vacated.map(std::mem::take).collect();
        if tail.ids.is_empty() {
            self.chunks.pop();
        }
        (i != last).then(|| {
            self.set(i, id, &row);
            id
        })
    }

    /// Offers every row to `topk` under its external id: per-row distance
    /// is the f32 kernel widened to `f64`, exactly [`Metric::dist`].
    fn scan(&self, query: &[f32], topk: &mut TopK<u64>) {
        let chunks = self.chunks.iter().map(|c| (&c.ids[..], &c.cols[..]));
        l1_scan_columns(dispatch::level(), query, chunks, topk);
    }
}

/// Deleted sealed positions: a bitmap in [`TOMBSTONE_BLOCK_BITS`]-sized
/// copy-on-write blocks, shared with snapshots the way [`Buffer`] chunks
/// are — setting a bit copies one block, not a byte per sealed row.
#[derive(Clone)]
struct Tombstones {
    blocks: Vec<Arc<[u64; TOMBSTONE_BLOCK_BITS / 64]>>,
}

impl Tombstones {
    /// An all-live bitmap over `n` sealed positions (every block starts
    /// out as the same shared zero block).
    fn new(n: usize) -> Self {
        let zero = Arc::new([0u64; TOMBSTONE_BLOCK_BITS / 64]);
        Tombstones {
            blocks: vec![zero; n.div_ceil(TOMBSTONE_BLOCK_BITS)],
        }
    }

    fn set(&mut self, pos: usize) {
        let block = Arc::make_mut(&mut self.blocks[pos / TOMBSTONE_BLOCK_BITS]);
        block[pos % TOMBSTONE_BLOCK_BITS / 64] |= 1 << (pos % 64);
    }

    fn get(&self, pos: usize) -> bool {
        let block = &self.blocks[pos / TOMBSTONE_BLOCK_BITS];
        block[pos % TOMBSTONE_BLOCK_BITS / 64] >> (pos % 64) & 1 == 1
    }
}

/// Where an external id currently lives (writer-side bookkeeping).
#[derive(Clone, Copy, Debug)]
enum Loc {
    /// Position in the sealed part.
    Sealed(u32),
    /// Index into the write buffer.
    Buffer(usize),
}

/// One immutable, internally-consistent view of a [`MutableIndex`].
///
/// A snapshot never changes after publication: searches against it are
/// repeatable, and a reader mixing several calls (`len`, `search`,
/// `live_ids`) on one snapshot sees one coherent index state.
pub struct IndexSnapshot {
    /// The sealed (trained, immutable) part: one list when no cells are
    /// configured.
    sealed: Option<Arc<IvfIndex>>,
    /// Position -> external id for the sealed part.
    sealed_ids: Arc<Vec<u64>>,
    /// Sealed positions deleted (or replaced into the buffer) since the
    /// last compaction.
    tombstones: Tombstones,
    /// Number of set bits in `tombstones` (precomputed).
    dead: usize,
    /// Vectors upserted since the last compaction.
    buffer: Buffer,
    /// Monotonically increasing publication counter.
    generation: u64,
    dim: usize,
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
    /// sealed part (quantized when SQ8 or PQ is configured) plus the exact-f32
    /// write buffer and tombstone bitmap. Per buffered row: the vector,
    /// the 8-byte id, and 8 bytes' allowance for chunk headers, spine and
    /// the last chunk's unfilled tail. The tombstone term stays one byte
    /// per sealed row (the bitmap is an eighth of that), so what `stats`
    /// prints depends only on what the index holds.
    pub fn memory_bytes(&self) -> usize {
        self.sealed.as_ref().map_or(0, |s| s.memory_bytes())
            + self.buffer.len() * (16 + self.dim * 4)
            + self.sealed_ids.len()
            + self.sealed_ids.len() * 8
    }

    /// All live external ids, ascending (test/diagnostic helper).
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .sealed_ids
            .iter()
            .enumerate()
            .filter(|(pos, _)| !self.tombstones.get(*pos))
            .map(|(_, &id)| id)
            .collect();
        for chunk in &self.buffer.chunks {
            ids.extend_from_slice(&chunk.ids);
        }
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
                if !self.tombstones.get(pos) {
                    let mut v = Vec::with_capacity(self.dim);
                    sealed.decode_vector_into(pos as u32, &mut v);
                    out.push((self.sealed_ids[pos], v));
                }
            }
        }
        out.extend(self.buffer.entries().map(|(id, v)| (id, v.collect())));
        out
    }

    /// kNN over this snapshot: probes the sealed part (`nprobe` cells;
    /// one list without configured cells), filters tombstones, scans
    /// the write buffer for its own top `k`, and merges. Returns
    /// `(external id, distance)` ascending, at most `k` entries. Quantized
    /// sealed hits carry quantized distances — see
    /// [`IndexSnapshot::search_rescored`] for the exact-rescoring variant.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u64, f64)> {
        self.search_rescored(query, k, nprobe, None)
    }

    /// [`IndexSnapshot::search`] with optional sealed-part rescoring.
    ///
    /// A quantized (SQ8/PQ) sealed part keeps no exact copy of its rows,
    /// so plain searches return *quantized* distances, correct within the
    /// codebook's error bound ([`crate::Quantization`]). When
    /// the caller can supply exact vectors for (some) external ids — the
    /// serving layer's engine keeps its cached embedding table for
    /// exactly this — passing a [`ExactRescorer`] makes the sealed scan
    /// over-fetch `rescore_factor · k` candidates and re-rank every hit
    /// the rescorer covers with exact distances.
    ///
    /// **Caveat:** ids the rescorer returns `None` for (vectors upserted
    /// or replaced after the exact table was built) keep their quantized
    /// distances and compete in the merged ranking as-is; each individual
    /// distance stays within the quantization error bound, but the final
    /// ordering mixes exact and quantized values. Buffer hits are always
    /// exact. With an f32 (unquantized) sealed part the rescorer is
    /// ignored — distances are exact already.
    pub fn search_rescored(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rescorer: Option<&dyn ExactRescorer>,
    ) -> Vec<(u64, f64)> {
        SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
            Ok(mut scratch) => self.search_with(&mut scratch, query, k, nprobe, rescorer),
            // A rescorer that searches again, on this thread.
            Err(_) => self.search_with(&mut SearchScratch::default(), query, k, nprobe, rescorer),
        })
    }

    /// [`IndexSnapshot::search_rescored`] on `scratch`.
    fn search_with(
        &self,
        scratch: &mut SearchScratch,
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
        let mut hits: Vec<(u64, f64)> = Vec::with_capacity(k + k.min(self.buffer.len()));
        if let Some(sealed) = &self.sealed {
            // Over-fetch by the tombstone count so filtering cannot starve
            // the result below k while live candidates were probed; when a
            // rescorer is in play, additionally over-fetch the sealed
            // IvfIndex's rescore factor so re-ranking has candidates to
            // promote.
            let rescore_fetch = rescorer.and_then(|_| sealed.rescore_fetch(k));
            let (fetch, rescoring) = (rescore_fetch.unwrap_or(k), rescore_fetch.is_some());
            let mut sealed_hits = Vec::new();
            sealed.search_into(scratch, query, fetch + self.dead, nprobe, &mut sealed_hits);
            hits.extend(
                sealed_hits
                    .into_iter()
                    .filter(|(pos, _)| !self.tombstones.get(*pos as usize))
                    .map(|(pos, d)| {
                        let id = self.sealed_ids[pos as usize];
                        let d = if rescoring {
                            rescorer
                                .and_then(|r| r.exact_vector(id))
                                .map_or(d, |v| Metric::L1.dist(query, v))
                        } else {
                            d
                        };
                        (id, d)
                    }),
            );
        }
        // The buffer contributes its own best k (ties on the external id,
        // as in the final order), so the sort below sees 2k + dead
        // candidates at most. The sealed hits stay out of the heap: they
        // arrive sorted, and re-sorting them costs less than k sift-ups.
        if self.buffer.len() > 0 {
            let mut topk = TopK::new(k);
            self.buffer.scan(query, &mut topk);
            hits.extend(topk.into_sorted());
        }
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }
}

/// A source of exact vectors for sealed-part rescoring
/// ([`IndexSnapshot::search_rescored`]): maps an external id to its exact
/// f32 vector when one is known to match what the index holds for that
/// id, `None` otherwise (in which case the quantized distance is kept).
pub trait ExactRescorer {
    /// The exact vector for `id`, when available and current.
    fn exact_vector(&self, id: u64) -> Option<&[f32]>;
}

/// Writer-side state (everything needed to build the next snapshot).
///
/// `buffer` and `tombstones` share their chunks and blocks with the
/// published snapshot (and any older one a reader still holds): a write
/// `Arc::make_mut`s only the chunk or block it lands in, and publishing
/// clones the two spines. Slot order is a plain `Vec`'s: `push` appends,
/// a replace writes in place, a remove swaps the last row in.
struct Writer {
    id_loc: HashMap<u64, Loc>,
    tombstones: Tombstones,
    /// Number of set bits in `tombstones` (kept incrementally).
    dead: usize,
    buffer: Buffer,
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
    pub fn with_options(dim: usize, _: Metric, opts: IndexOptions) -> Self {
        assert!(dim > 0, "vector dimensionality must be positive");
        let snapshot = IndexSnapshot {
            sealed: None,
            sealed_ids: Arc::new(Vec::new()),
            tombstones: Tombstones::new(0),
            dead: 0,
            buffer: Buffer::new(dim),
            generation: 0,
            dim,
        };
        MutableIndex {
            snapshot: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(Writer {
                id_loc: HashMap::new(),
                tombstones: Tombstones::new(0),
                dead: 0,
                buffer: Buffer::new(dim),
                generation: 0,
            }),
            dim,
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
                w.buffer.push(id, embeddings.row(i));
            }
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
        let existed = match w.id_loc.get(&id).copied() {
            Some(Loc::Buffer(i)) => {
                w.buffer.set(i, id, &vector);
                true
            }
            Some(Loc::Sealed(pos)) => {
                w.tombstones.set(pos as usize);
                w.dead += 1;
                w.buffer.push(id, &vector);
                let slot = Loc::Buffer(w.buffer.len() - 1);
                w.id_loc.insert(id, slot);
                true
            }
            None => {
                w.buffer.push(id, &vector);
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
                w.tombstones.set(pos as usize);
                w.dead += 1;
                true
            }
            Some(Loc::Buffer(i)) => {
                if let Some(moved) = w.buffer.swap_remove(i) {
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
        w.tombstones = Tombstones::new(0);
        w.dead = 0;
        w.buffer = Buffer::new(self.dim);
        w.generation += 1;
        let published = IndexSnapshot {
            sealed: None,
            sealed_ids: Arc::new(Vec::new()),
            tombstones: w.tombstones.clone(),
            dead: 0,
            buffer: w.buffer.clone(),
            generation: w.generation,
            dim: self.dim,
        };
        *self.snapshot.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(published);
    }

    /// Vectors currently sitting in the write buffer (0 right after a
    /// compaction; grows with every insert until the next one).
    pub fn buffer_len(&self) -> usize {
        self.snapshot().buffer_len()
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
                if !w.tombstones.get(pos) {
                    ids.push(snap.sealed_ids[pos]);
                    sealed.decode_vector_into(pos as u32, &mut data);
                }
            }
        }
        for (id, v) in w.buffer.entries() {
            ids.push(id);
            data.extend(v);
        }
        let n = ids.len();
        let sealed = (n > 0).then(|| {
            let table = Tensor::from_vec(data, Shape::d2(n, self.dim));
            // Without configured cells `build_with` makes a single list,
            // which keeps the scan exhaustive. Deterministic retrain: the
            // seed varies with generation so repeated compactions don't
            // re-use degenerate inits.
            let mut rng = StdRng::seed_from_u64(self.opts.seed ^ w.generation);
            Arc::new(IvfIndex::build_with(
                &table,
                Metric::L1,
                &self.opts,
                &mut rng,
            ))
        });
        w.id_loc = ids
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, Loc::Sealed(pos as u32)))
            .collect();
        w.tombstones = Tombstones::new(n);
        w.dead = 0;
        w.buffer = Buffer::new(self.dim);
        w.generation += 1;
        let published = IndexSnapshot {
            sealed,
            sealed_ids: Arc::new(ids),
            tombstones: w.tombstones.clone(),
            dead: 0,
            buffer: w.buffer.clone(),
            generation: w.generation,
            dim: self.dim,
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
            buffer: w.buffer.clone(),
            generation: w.generation,
            dim: self.dim,
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
        let index = MutableIndex::new(2, Metric::L1, None, 0);
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

    /// Vectors wide enough that a chunk holds its minimum of 8 rows.
    const WIDE: usize = 520;

    fn wide_row(x: f32) -> Vec<f32> {
        (0..WIDE).map(|j| x + j as f32 * 1e-3).collect()
    }

    /// Bit patterns of `search` and `live_entries` (as text): what "the
    /// snapshot did not change" means.
    fn bits(snap: &IndexSnapshot, query: &[f32]) -> String {
        let hits = snap.search(query, 6, usize::MAX);
        let hits: Vec<(u64, u64)> = hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect();
        let entries: Vec<(u64, Vec<u32>)> = snap
            .live_entries()
            .into_iter()
            .map(|(id, v)| (id, v.iter().map(|x| x.to_bits()).collect()))
            .collect();
        format!("{hits:?} {entries:?}")
    }

    /// Which buffer chunks two snapshots share.
    fn shared_chunks(a: &IndexSnapshot, b: &IndexSnapshot) -> Vec<bool> {
        let (a, b) = (&a.buffer.chunks, &b.buffer.chunks);
        a.iter().zip(b).map(|(x, y)| Arc::ptr_eq(x, y)).collect()
    }

    #[test]
    fn a_write_copies_only_the_chunks_it_touches() {
        let index = MutableIndex::new(WIDE, Metric::L1, None, 0);
        for id in 0..20u64 {
            index.upsert(id, wide_row(id as f32)); // chunks of 8, 8 and 4 rows
        }
        let query = wide_row(9.2);
        let held = index.snapshot();
        let before = bits(&held, &query);
        assert_eq!(held.buffer.chunks.len(), 3);

        index.upsert(9, wide_row(-3.0)); // replace in the middle chunk
        let replaced = index.snapshot();
        assert_eq!(shared_chunks(&held, &replaced), [true, false, true]);

        index.upsert(77, wide_row(9.25)); // append into the last chunk
        let appended = index.snapshot();
        assert_eq!(shared_chunks(&replaced, &appended), [true, true, false]);

        index.remove(2); // the last row (id 77) moves into the first chunk
        let removed = index.snapshot();
        assert_eq!(shared_chunks(&appended, &removed), [false, true, false]);
        assert_eq!(removed.live_entries()[2].0, 77);

        // Every write above landed in a chunk `held` shares; none of them
        // may show through it.
        assert_eq!(bits(&held, &query), before);
        assert_eq!(held.search(&query, 1, usize::MAX)[0].0, 9);
        assert_eq!(removed.search(&query, 1, usize::MAX)[0].0, 77);
    }

    #[test]
    fn swap_remove_keeps_vec_slot_order_at_chunk_edges() {
        let index = MutableIndex::new(WIDE, Metric::L1, None, 0);
        let mut model: Vec<u64> = Vec::new();
        let slots = |index: &MutableIndex| -> Vec<u64> {
            let entries = index.snapshot().live_entries();
            entries.into_iter().map(|(id, _)| id).collect()
        };
        let remove = |model: &mut Vec<u64>, id: u64| {
            assert!(index.remove(id));
            let at = model.iter().position(|&m| m == id).expect("id in model");
            model.swap_remove(at);
        };
        // The only row.
        index.upsert(1, wide_row(1.0));
        assert!(index.remove(1));
        assert_eq!(index.snapshot().buffer.chunks.len(), 0);
        assert_eq!(slots(&index), model);
        for id in 0..9u64 {
            index.upsert(id, wide_row(id as f32));
            model.push(id);
        }
        // A row while the last chunk holds one row: that chunk is dropped
        // and the next push re-creates it.
        assert_eq!(index.snapshot().buffer.chunks.len(), 2);
        remove(&mut model, 3);
        assert_eq!(index.snapshot().buffer.chunks.len(), 1);
        assert_eq!(slots(&index), model);
        index.upsert(20, wide_row(20.0));
        model.push(20);
        assert_eq!(index.snapshot().buffer.chunks.len(), 2);
        assert_eq!(slots(&index), model);
        // The last row, twice: across the chunk edge and inside a chunk.
        remove(&mut model, 20);
        remove(&mut model, 7);
        assert_eq!(slots(&index), model);
        // Every vector followed its id.
        for (id, v) in index.snapshot().live_entries() {
            assert_eq!(v, wide_row(id as f32), "id {id}");
        }
        assert_eq!(index.len(), 7);
    }

    #[test]
    fn a_chunk_stride_is_its_capacity_rounded_up_to_one_block() {
        // The scan groups four blocks per query broadcast, but the stride
        // stays a whole number of single blocks: rounding it up to a group
        // would double or quadruple a wide buffer's memory.
        for (dim, cap, stride) in [(20, 204, 208), (32, 128, 128), (33, 124, 128), (48, 85, 88)]
            .into_iter()
            .chain([(256, 16, 16), (520, 8, 8), (523, 8, 8), (4096, 8, 8)])
        {
            let buffer = Buffer::new(dim);
            assert_eq!((buffer.cap(), buffer.stride()), (cap, stride), "dim {dim}");
            assert_eq!(buffer.stride(), buffer.cap().next_multiple_of(8));
        }
    }

    #[test]
    fn a_sealed_id_write_copies_one_tombstone_block() {
        let n = 100_000usize;
        let flat: Vec<f32> = (0..n).flat_map(|i| [i as f32, 0.0]).collect();
        let table = Tensor::from_vec(flat, Shape::d2(n, 2));
        let index = MutableIndex::from_table((0..n as u64).collect(), &table, Metric::L1, None, 0);
        let target = 70_000u64;
        let query = [target as f32, 0.0];
        let shared_blocks = |a: &IndexSnapshot, b: &IndexSnapshot| -> Vec<bool> {
            let (a, b) = (&a.tombstones.blocks, &b.tombstones.blocks);
            a.iter().zip(b).map(|(x, y)| Arc::ptr_eq(x, y)).collect()
        };
        let mut want = vec![true; n.div_ceil(TOMBSTONE_BLOCK_BITS)];
        want[target as usize / TOMBSTONE_BLOCK_BITS] = false;
        assert!(want.len() > 2);

        let sealed = index.snapshot();
        assert!(index.remove(target));
        let removed = index.snapshot();
        assert_eq!(shared_blocks(&sealed, &removed), want);
        assert_eq!(sealed.search(&query, 1, 1)[0], (target, 0.0));
        assert_ne!(removed.search(&query, 1, 1)[0].0, target);
        assert_eq!((sealed.len(), removed.len()), (n, n - 1));

        // A replace of a sealed id takes the same path.
        assert!(index.upsert(target + 1, vec![-5.0, 0.0]));
        let replaced = index.snapshot();
        assert_eq!(shared_blocks(&removed, &replaced), want);
        assert_eq!(removed.search(&query, 2, 1)[1], (target + 1, 1.0));
        assert_eq!(replaced.search(&query, 2, 1)[1], (target - 2, 2.0));
        assert_eq!(replaced.live_ids().len(), n - 1);
    }

    /// The buffer scan as it ran on row-major chunks: every row through
    /// `l1_f32`, offered one at a time. `(id, distance bits)` in rank order.
    fn per_row_scan(buffer: &Buffer, query: &[f32], k: usize) -> Vec<(u64, u64)> {
        let mut topk = TopK::new(k);
        for (id, row) in buffer.entries() {
            let row: Vec<f32> = row.collect();
            topk.offer(id, f64::from(crate::kernels::l1_f32(query, &row)));
        }
        let hits = topk.into_sorted();
        hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
    }

    #[test]
    fn buffer_scan_answers_as_the_per_row_loop_on_tie_runs_and_nan() {
        // The mixed workload's shape: few vectors under many ids, so each
        // distance is shared by a long run of ids and the id tie-break
        // decides; removes scatter the slot order.
        let d = 32;
        let pool = vecs(16, d, 21);
        let index = MutableIndex::new(d, Metric::L1, None, 0);
        let mut rng = StdRng::seed_from_u64(22);
        for id in 0..1500u64 {
            index.upsert(id * 5 % 4096, pool[rng.gen_range(0..pool.len())].clone());
        }
        for _ in 0..200 {
            index.remove(rng.gen_range(0u64..4096));
        }
        let snap = index.snapshot();
        let len = snap.buffer_len();
        assert!(len > 3 * snap.buffer.cap(), "several chunks");
        let mut nan = pool[3].clone();
        nan[d / 2] = f32::NAN;
        let queries = [
            pool[0].clone(),
            pool[7].clone(),
            vecs(1, d, 23).remove(0),
            nan.clone(),
        ];
        for query in &queries {
            // k past the buffer keeps the heap short for the whole scan.
            for k in [1, 10, 120, len, len + 5] {
                let mut got = TopK::new(k);
                snap.buffer.scan(query, &mut got);
                let got: Vec<(u64, u64)> = got
                    .into_sorted()
                    .into_iter()
                    .map(|(id, d)| (id, d.to_bits()))
                    .collect();
                assert_eq!(got, per_row_scan(&snap.buffer, query, k), "k = {k}");
            }
        }
        // Through the library: a NaN query with the heap full (k < len)
        // and short (k clamped to len, full only at the last row).
        for k in [10, len + 5] {
            let hits = snap.search(&nan, k, 1);
            let hits: Vec<(u64, u64)> = hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect();
            assert!(hits.iter().all(|&(_, d)| f64::from_bits(d).is_nan()));
            assert_eq!(
                hits,
                per_row_scan(&snap.buffer, &nan, k.min(len)),
                "k = {k}"
            );
        }
    }

    #[test]
    fn tombstone_overfetch_keeps_k_results() {
        // Delete most of the sealed part; k results must still surface.
        let data = vecs(20, 2, 5);
        let flat: Vec<f32> = data.iter().flatten().copied().collect();
        let table = Tensor::from_vec(flat, Shape::d2(20, 2));
        let index = MutableIndex::from_table((0..20).collect(), &table, Metric::L1, None, 0);
        for id in 0..15u64 {
            index.remove(id);
        }
        assert_eq!(index.len(), 5);
        assert_eq!(index.search(&data[0], 5, 1).len(), 5);
    }
}
