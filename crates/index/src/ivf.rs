//! IVF (inverted-file) vector index — the Faiss \[52\] substitute used for
//! embedding kNN queries (§V-E).
//!
//! Build: k-means coarse quantizer (the Voronoi partition) + one inverted
//! list per centroid. Search: probe the `nprobe` nearest lists and scan
//! them exactly. `nprobe = nlist` degenerates to exact brute force, which
//! the tests exploit to validate recall.
//!
//! Storage is exact f32 rows, SQ8 scalar-quantized codes
//! ([`Quantization::Sq8`]: one byte per dimension; the query is quantized
//! too and lists are scanned in pure integer arithmetic through the
//! runtime-dispatched SIMD kernels of [`crate::kernels::dispatch`]) or PQ
//! product-quantized codes ([`Quantization::Pq`]: `m` 4-bit codes per
//! *vector*, two per byte, scanned via a per-query ADC lookup table).
//! Quantized searches are optionally
//! **rescored** exactly — the top `rescore_factor · k` candidates
//! re-ranked against a caller-supplied exact f32 table (the engine keeps
//! its embedding table for precisely this). All scans run through the
//! blocked f32 kernels and the fused bounded top-k selector, never a
//! full sort. Whatever depends on *how* rows are stored sits behind
//! `Storage` (`storage.rs`); this file is the IVF half.

use rand::Rng;
use trajcl_tensor::{pool, Tensor};

use crate::kernels::{self, PqCodebook, Sq8Codebook, TopK};
use crate::storage::{self, ScanScratch, Storage};

/// Distance metric for index search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Manhattan distance (TrajCL compares embeddings with L1).
    L1,
    /// Squared Euclidean distance.
    L2,
}

impl Metric {
    /// Distance between two equal-length vectors under this metric
    /// (blocked f32 kernel, widened to `f64` at the boundary).
    #[inline]
    pub fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        kernels::dist(*self, a, b)
    }
}

/// How database vectors are stored inside an [`IvfIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quantization {
    /// Exact f32 rows (4 bytes per dimension).
    #[default]
    None,
    /// Int8 scalar quantization (1 byte per dimension, one scale shared
    /// by every dimension): the query is quantized with the same codebook
    /// and scanned against the codes in integer arithmetic, then
    /// optionally rescored exactly. An L1 scan distance is within
    /// `2 × l1_error_bound` ([`crate::Sq8Codebook::l1_error_bound`]) of
    /// exact for any query. A squared-L2 one keeps its bound,
    /// `|√scan − √exact| ≤ √d · scale`, only for queries inside the box
    /// the codebook was trained on: outside it the error grows with the
    /// distance to the box.
    Sq8,
    /// Product quantization: `m` k-means sub-quantizers with at most 16
    /// centroids each — `m` 4-bit codes per vector, two per byte,
    /// searched by per-query ADC lookup tables
    /// ([`crate::kernels::PqCodebook`]). Recall is recovered through the
    /// same over-fetch + exact-rescore path SQ8 uses.
    Pq {
        /// Subspace count (= codes per vector); clamped to `1..=d` at
        /// build time.
        m: usize,
    },
}

impl Quantization {
    /// The storage tag of the `IVF5` section and the TCE1 tail. A PQ tag
    /// is followed on the wire (not necessarily directly) by `m u32`.
    pub fn wire_tag(self) -> u8 {
        match self {
            Quantization::None => 0,
            Quantization::Sq8 => 1,
            Quantization::Pq { .. } => 2,
        }
    }

    /// Inverse of [`Quantization::wire_tag`]. `m` reads the PQ subspace
    /// count and is only called for the PQ tag; `None` for an unknown tag
    /// or `m = 0`.
    pub fn from_wire(tag: u8, m: impl FnOnce() -> Option<usize>) -> Option<Quantization> {
        match tag {
            0 => Some(Quantization::None),
            1 => Some(Quantization::Sq8),
            2 => m().filter(|&m| m >= 1).map(|m| Quantization::Pq { m }),
            _ => None,
        }
    }
}

impl std::str::FromStr for Quantization {
    type Err = String;

    fn from_str(s: &str) -> Result<Quantization, String> {
        let lower = s.to_lowercase();
        match lower.as_str() {
            "none" | "f32" => return Ok(Quantization::None),
            "sq8" | "int8" => return Ok(Quantization::Sq8),
            "pq" => return Ok(Quantization::Pq { m: DEFAULT_PQ_M }),
            _ => {}
        }
        if let Some(m) = lower.strip_prefix("pq:") {
            let m: usize = m
                .parse()
                .ok()
                .filter(|&m| m >= 1)
                .ok_or_else(|| format!("bad PQ subspace count in {s:?} (try pq:8)"))?;
            return Ok(Quantization::Pq { m });
        }
        Err(format!("unknown quantization {s:?} (try sq8, pq or pq:M)"))
    }
}

/// Default over-fetch multiplier for quantized (SQ8/PQ) rescoring.
pub const DEFAULT_RESCORE_FACTOR: usize = 4;

/// Default PQ subspace count (`--quantize pq` without an explicit `:m`).
pub const DEFAULT_PQ_M: usize = 8;

/// How an index part is trained and stored — the one description every
/// layer (engine, serving config, CLI flags) holds or passes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexOptions {
    /// IVF cells to train (`None` = one list for [`IvfIndex::build_with`];
    /// a [`crate::MutableIndex`] then keeps unquantized parts as a flat
    /// table instead).
    pub nlist: Option<usize>,
    /// Seed for deterministic k-means training. Holders of the options
    /// turn it into the `rng` they hand to [`IvfIndex::build_with`].
    pub seed: u64,
    /// Storage quantization. [`Quantization::Sq8`] stores rows as int8
    /// codes (4× smaller); [`Quantization::Pq`] as `⌈m/2⌉`-byte
    /// product-quantized codes. A [`crate::MutableIndex`] write buffer
    /// always stays exact f32 until the next compaction.
    pub quantization: Quantization,
    /// Over-fetch multiplier for callers that rescore quantized hits
    /// against an exact table ([`IvfIndex::search_rescored`],
    /// [`crate::IndexSnapshot::search_rescored`]); at least 1.
    pub rescore_factor: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            nlist: None,
            seed: 0,
            quantization: Quantization::None,
            rescore_factor: DEFAULT_RESCORE_FACTOR,
        }
    }
}

/// Magic of the one serialised section layout ([`IvfIndex::to_bytes`]).
const SECTION_MAGIC: &[u8; 4] = b"IVF5";

/// Reusable per-thread search state: centroid ranking buffer, the
/// storage scan's heap and per-query tables, and the candidate list. One
/// scratch serves any number of queries — batch search allocates one per
/// pool lane, not per query.
#[derive(Default)]
pub struct SearchScratch {
    /// `(centroid distance, centroid)` ranking buffer.
    order: Vec<(f32, u32)>,
    scan: ScanScratch,
    /// Quantized-candidate buffer between scan and rescore.
    cand: Vec<(u32, f64)>,
}

/// An IVF index over fixed-dimension vectors, stored as exact f32 rows,
/// SQ8 codes or PQ codes.
pub struct IvfIndex {
    centroids: Vec<f32>,
    lists: Vec<Vec<u32>>,
    storage: Storage,
    n: usize,
    d: usize,
    metric: Metric,
    rescore_factor: usize,
}

impl IvfIndex {
    /// Builds an exact-storage index over the `(N, d)` embedding table
    /// with `nlist` Voronoi cells (clamped to `N`).
    pub fn build(embeddings: &Tensor, nlist: usize, metric: Metric, rng: &mut impl Rng) -> Self {
        let opts = IndexOptions {
            nlist: Some(nlist),
            ..IndexOptions::default()
        };
        Self::build_with(embeddings, metric, &opts, rng)
    }

    /// Builds an index as `opts` describes it: `nlist` cells (clamped to
    /// `1..=N`; `None` is one list, an exhaustive scan), rows stored
    /// under `opts.quantization`, and searches over-fetching
    /// `opts.rescore_factor · k` candidates for exact rescoring when a
    /// caller supplies the exact table ([`IvfIndex::search_rescored`]).
    /// All randomness comes from `rng` (`opts.seed` is the caller's to
    /// seed it with).
    pub fn build_with(
        embeddings: &Tensor,
        metric: Metric,
        opts: &IndexOptions,
        rng: &mut impl Rng,
    ) -> Self {
        let d = embeddings.shape().last();
        let n = embeddings.shape().rows();
        assert!(n > 0, "cannot index an empty table");
        let nlist = opts.nlist.unwrap_or(1).clamp(1, n);
        let data = embeddings.data();
        let (centroids, assign) = kernels::kmeans(metric, data, d, nlist, rng);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (i, &c) in assign.iter().enumerate() {
            lists[c as usize].push(i as u32);
        }
        let storage = storage::encode(opts.quantization, data, d, rng);
        IvfIndex {
            centroids,
            lists,
            storage,
            n,
            d,
            metric,
            rescore_factor: opts.rescore_factor.max(1),
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The storage quantization of this index (for PQ, the *effective*
    /// parameters after build-time clamping).
    pub fn quantization(&self) -> Quantization {
        self.storage.quantization()
    }

    /// Over-fetch multiplier used by quantized (SQ8/PQ) rescoring.
    pub fn rescore_factor(&self) -> usize {
        self.rescore_factor
    }

    /// The SQ8 codebook, when the index uses SQ8 storage (the worst-case
    /// distance error bound quantization-aware tests reason about).
    pub fn codebook(&self) -> Option<&Sq8Codebook> {
        self.storage.sq8_codebook()
    }

    /// The PQ codebook, when the index uses PQ storage.
    pub fn pq_codebook(&self) -> Option<&PqCodebook> {
        self.storage.pq_codebook()
    }

    /// Appends row `id` to `out`: the exact row for f32 storage, the
    /// decoded (quantized) row for SQ8/PQ — the read-back path compaction
    /// uses, which works for any storage.
    pub fn decode_vector_into(&self, id: u32, out: &mut Vec<f32>) {
        self.storage.decode_row_into(id, self.d, out);
    }

    /// Approximate resident memory of the index in bytes (Table IX).
    pub fn memory_bytes(&self) -> usize {
        self.storage.memory_bytes()
            + self.centroids.len() * 4
            + self.lists.iter().map(|l| l.len() * 4 + 24).sum::<usize>()
    }

    /// Ranks centroids and leaves the `nprobe` nearest in
    /// `scratch.order[..nprobe]` (unordered within the prefix — every
    /// probed list is scanned anyway, so a partial selection via
    /// `select_nth_unstable` replaces the former full sort).
    fn probe_prefix(&self, query: &[f32], nprobe: usize, scratch: &mut SearchScratch) {
        scratch.order.clear();
        scratch.order.extend((0..self.lists.len() as u32).map(|c| {
            let row = &self.centroids[c as usize * self.d..(c as usize + 1) * self.d];
            let cd = match self.metric {
                Metric::L1 => kernels::l1_f32(query, row),
                Metric::L2 => kernels::l2_f32(query, row),
            };
            (cd, c)
        }));
        if nprobe < scratch.order.len() {
            scratch
                .order
                .select_nth_unstable_by(nprobe - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
    }

    /// kNN search probing the `nprobe` nearest Voronoi cells. Returns
    /// `(id, distance)` sorted ascending; fewer than `k` results only when
    /// the probed lists hold fewer vectors. Quantized (SQ8/PQ) distances
    /// are approximate (error-bounded, see [`Quantization`]) — supply the
    /// exact table via [`IvfIndex::search_rescored`] for exact top-k
    /// distances.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u32, f64)> {
        self.search_rescored(query, k, nprobe, None)
    }

    /// [`IvfIndex::search`] with optional exact rescoring: when `exact`
    /// carries the original `(N, d)` f32 table, quantized (SQ8/PQ)
    /// searches over-fetch the top `rescore_factor · k` candidates by
    /// quantized distance and re-rank them with exact f32 distances
    /// (f32-storage searches are already exact and ignore `exact`).
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use trajcl_index::{IndexOptions, IvfIndex, Metric, Quantization};
    /// use trajcl_tensor::{Shape, Tensor};
    ///
    /// let mut rng = StdRng::seed_from_u64(0);
    /// let table = Tensor::randn(Shape::d2(64, 8), 0.0, 1.0, &mut rng);
    /// let opts = IndexOptions {
    ///     nlist: Some(4),
    ///     quantization: Quantization::Sq8,
    ///     ..IndexOptions::default()
    /// };
    /// let index = IvfIndex::build_with(&table, Metric::L1, &opts, &mut rng);
    ///
    /// // Without the exact table: quantized distances.
    /// let raw = index.search(table.row(3), 3, 4);
    /// // With it: the same over-fetched candidates, re-ranked exactly —
    /// // the self-query comes back at distance exactly 0.
    /// let hits = index.search_rescored(table.row(3), 3, 4, Some(&table));
    /// assert_eq!(hits[0], (3, 0.0));
    /// assert!(raw[0].1 >= 0.0);
    /// ```
    pub fn search_rescored(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        exact: Option<&Tensor>,
    ) -> Vec<(u32, f64)> {
        let mut scratch = SearchScratch::default();
        let mut out = Vec::new();
        self.search_into(&mut scratch, query, k, nprobe, exact, &mut out);
        out
    }

    /// The scratch-reusing search core behind every public search entry.
    pub fn search_into(
        &self,
        scratch: &mut SearchScratch,
        query: &[f32],
        k: usize,
        nprobe: usize,
        exact: Option<&Tensor>,
        out: &mut Vec<(u32, f64)>,
    ) {
        assert_eq!(query.len(), self.d, "query dimensionality mismatch");
        if let Some(t) = exact {
            assert_eq!(t.shape().rows(), self.n, "exact table row mismatch");
            assert_eq!(t.shape().last(), self.d, "exact table dim mismatch");
        }
        let nprobe = nprobe.clamp(1, self.lists.len());
        self.probe_prefix(query, nprobe, scratch);
        // With an exact table to re-rank against, a quantized scan
        // over-fetches; f32 distances are exact already and ignore it.
        let rescore = exact.zip(self.rescore_fetch(k));
        let (metric, state) = (self.metric, &mut scratch.scan);
        state.topk.reset(rescore.map_or(k, |(_, fetch)| fetch));
        let probed = scratch.order[..nprobe]
            .iter()
            .map(|&(_, c)| self.lists[c as usize].as_slice());
        self.storage.scan(metric, self.d, query, probed, state);
        if let Some((table, _)) = rescore {
            state.topk.drain_sorted_into(&mut scratch.cand);
            state.topk.reset(k);
            for &(id, _) in scratch.cand.iter() {
                let row = table.row(id as usize);
                state.topk.offer(id, kernels::dist(metric, query, row));
            }
        }
        state.topk.drain_sorted_into(out);
    }

    /// Candidates to fetch for `k` results that will be re-ranked
    /// exactly: `rescore_factor · k` on quantized (SQ8/PQ) storage, `None`
    /// on f32 storage, whose distances need no rescoring.
    pub(crate) fn rescore_fetch(&self, k: usize) -> Option<usize> {
        (self.quantization() != Quantization::None)
            .then(|| k.saturating_mul(self.rescore_factor).max(k))
    }

    /// Serialises the index as one `IVF5` section (little-endian):
    /// `"IVF5" | metric u8 | n | d | nlist | rescore u32 | storage tag u8
    /// | [PQ: m u32, ksub u32] | centroids | lists | payload`, where the
    /// payload is the f32 rows (tag 0), the SQ8 codebook (`d` biases, one
    /// scale) and int8 codes (tag 1), or the PQ sub-centroid tables, the
    /// trained error bound and the `⌈m/2⌉`-byte code rows (tag 2) —
    /// DESIGN.md §10.2 has the byte diagram. The output buffer is
    /// preallocated to its exact final size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let list_bytes: usize = self.lists.iter().map(|l| 4 + l.len() * 4).sum();
        let header = 4 + 1 + 4 + 4 + 4 + 4;
        let expected = header + self.centroids.len() * 4 + list_bytes + self.storage.wire_len();
        let mut out = Vec::with_capacity(expected);
        out.extend_from_slice(SECTION_MAGIC);
        out.push(match self.metric {
            Metric::L1 => 0u8,
            Metric::L2 => 1u8,
        });
        out.extend_from_slice(&(self.n as u32).to_le_bytes());
        out.extend_from_slice(&(self.d as u32).to_le_bytes());
        out.extend_from_slice(&(self.lists.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.rescore_factor as u32).to_le_bytes());
        self.storage.write_tag(&mut out);
        for &c in &self.centroids {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for list in &self.lists {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &id in list {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        self.storage.write_payload(&mut out);
        debug_assert_eq!(out.len(), expected, "to_bytes size accounting drifted");
        out
    }

    /// Restores an index from [`IvfIndex::to_bytes`] output; `None` when
    /// the buffer is malformed or carries any other magic. Parsing is
    /// zero-copy over the input slice — fields decode straight out of
    /// `bytes` with no intermediate buffer.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader(bytes);
        if r.bytes(4)? != SECTION_MAGIC {
            return None;
        }
        let metric = match r.u8()? {
            0 => Metric::L1,
            1 => Metric::L2,
            _ => return None,
        };
        let n = r.u32()? as usize;
        let d = r.u32()? as usize;
        let nlist = r.u32()? as usize;
        // `build` never produces an empty index (it asserts `n > 0` and
        // clamps `nlist` into `1..=n`), so zero counts only appear in
        // corrupt buffers — and an accepted zero-list index would panic
        // later in `search`'s `nprobe.clamp(1, nlist)`.
        if n == 0 || d == 0 || nlist == 0 {
            return None;
        }
        let rescore_factor = (r.u32()? as usize).max(1);
        let geometry = storage::read_tag(&mut r)?;
        let centroids = r.f32_vec(nlist.checked_mul(d)?)?;
        // The lists must partition the positions `0..n` — a repeated id
        // would be served twice and leave another row unreachable — so
        // they take 4n bytes; an `n` the buffer cannot hold allocates nothing.
        if n > r.0.len() / 4 {
            return None;
        }
        let mut lists = Vec::with_capacity(nlist);
        let mut seen = vec![false; n];
        let mut total_ids = 0usize;
        for _ in 0..nlist {
            let len = r.u32()? as usize;
            total_ids += len;
            if total_ids > n {
                return None;
            }
            let list = r.u32_vec(len)?;
            for &id in &list {
                if std::mem::replace(seen.get_mut(id as usize)?, true) {
                    return None;
                }
            }
            lists.push(list);
        }
        if total_ids != n {
            return None;
        }
        let storage = storage::read_payload(&mut r, geometry, n, d)?;
        if !r.0.is_empty() {
            return None;
        }
        Some(IvfIndex {
            centroids,
            lists,
            storage,
            n,
            d,
            metric,
            rescore_factor,
        })
    }

    /// Batched parallel search (one reusable [`SearchScratch`] per pool
    /// lane, not per query).
    pub fn batch_search(&self, queries: &Tensor, k: usize, nprobe: usize) -> Vec<Vec<(u32, f64)>> {
        self.batch_search_rescored(queries, k, nprobe, None)
    }

    /// [`IvfIndex::batch_search`] with optional exact rescoring (see
    /// [`IvfIndex::search_rescored`]).
    pub fn batch_search_rescored(
        &self,
        queries: &Tensor,
        k: usize,
        nprobe: usize,
        exact: Option<&Tensor>,
    ) -> Vec<Vec<(u32, f64)>> {
        let q = queries.shape().rows();
        assert_eq!(
            queries.shape().last(),
            self.d,
            "query dimensionality mismatch"
        );
        let mut out: Vec<Vec<(u32, f64)>> = vec![Vec::new(); q];
        let per = pool::rows_per_lane(q);
        let qd = queries.data();
        pool::par_chunks_mut(&mut out, per, |c, chunk| {
            let mut scratch = SearchScratch::default();
            let start = c * per;
            for (i, slot) in chunk.iter_mut().enumerate() {
                let row = &qd[(start + i) * self.d..(start + i + 1) * self.d];
                self.search_into(&mut scratch, row, k, nprobe, exact, slot);
            }
        });
        out
    }
}

/// Zero-copy little-endian field reader over a borrowed byte slice.
pub(crate) struct Reader<'a>(pub(crate) &'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.bytes(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    pub(crate) fn f32(&mut self) -> Option<f32> {
        self.bytes(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn f32_vec(&mut self, count: usize) -> Option<Vec<f32>> {
        let raw = self.bytes(count.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    }

    fn u32_vec(&mut self, count: usize) -> Option<Vec<u32>> {
        let raw = self.bytes(count.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    }
}

/// Exact brute-force kNN over an embedding table (baseline for recall
/// measurements): a fused blocked scan, no candidate materialisation.
pub fn brute_force_knn(
    embeddings: &Tensor,
    query: &[f32],
    k: usize,
    metric: Metric,
) -> Vec<(u32, f64)> {
    let d = embeddings.shape().last();
    assert_eq!(query.len(), d, "query dimensionality mismatch");
    let mut topk = TopK::new(k);
    kernels::scan_block(metric, query, embeddings.data(), d, 0, &mut topk);
    topk.into_sorted()
}

/// Parallel batched brute-force kNN: one result row per query row,
/// splitting queries across the shared pool (the engine's no-IVF route).
/// Each lane reuses one fused top-k heap across all its queries.
pub fn brute_force_batch_knn(
    embeddings: &Tensor,
    queries: &Tensor,
    k: usize,
    metric: Metric,
) -> Vec<Vec<(u32, f64)>> {
    let d = embeddings.shape().last();
    let q = queries.shape().rows();
    assert_eq!(queries.shape().last(), d, "query dimensionality mismatch");
    let mut out: Vec<Vec<(u32, f64)>> = vec![Vec::new(); q];
    let per = pool::rows_per_lane(q);
    let qd = queries.data();
    let table = embeddings.data();
    pool::par_chunks_mut(&mut out, per, |c, chunk| {
        let mut topk = TopK::new(k);
        let start = c * per;
        for (i, slot) in chunk.iter_mut().enumerate() {
            let row = &qd[(start + i) * d..(start + i + 1) * d];
            topk.reset(k);
            kernels::scan_block(metric, row, table, d, 0, &mut topk);
            topk.drain_sorted_into(slot);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_tensor::Shape;

    impl IvfIndex {
        /// The payload, for the seam test in `storage.rs`, where the
        /// variants (and so the stored codes) are visible.
        pub(crate) fn storage(&self) -> &crate::storage::Storage {
            &self.storage
        }
    }

    fn table(n: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::randn(Shape::d2(n, d), 0.0, 1.0, &mut rng)
    }

    fn quantized(
        emb: &Tensor,
        nlist: usize,
        quantization: Quantization,
        rescore_factor: usize,
        rng: &mut StdRng,
    ) -> IvfIndex {
        let opts = IndexOptions {
            nlist: Some(nlist),
            quantization,
            rescore_factor,
            ..IndexOptions::default()
        };
        IvfIndex::build_with(emb, Metric::L1, &opts, rng)
    }

    #[test]
    fn full_probe_equals_brute_force() {
        let emb = table(200, 8, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let index = IvfIndex::build(&emb, 16, Metric::L1, &mut rng);
        for qi in [0usize, 57, 133] {
            let q = emb.row(qi);
            let ivf = index.search(q, 5, index.nlist());
            let bf = brute_force_knn(&emb, q, 5, Metric::L1);
            assert_eq!(
                ivf.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                bf.iter().map(|(i, _)| *i).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn self_query_returns_self_first() {
        let emb = table(100, 6, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let index = IvfIndex::build(&emb, 8, Metric::L2, &mut rng);
        let hits = index.search(emb.row(42), 1, 4);
        assert_eq!(hits[0].0, 42);
        assert_eq!(hits[0].1, 0.0);
    }

    #[test]
    fn partial_probe_has_high_recall() {
        let emb = table(500, 8, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let index = IvfIndex::build(&emb, 20, Metric::L1, &mut rng);
        let mut recall_sum = 0.0;
        let trials = 30;
        for qi in 0..trials {
            let q = emb.row(qi * 16);
            let approx = index.search(q, 10, 5);
            let exact = brute_force_knn(&emb, q, 10, Metric::L1);
            let exact_ids: Vec<u32> = exact.iter().map(|(i, _)| *i).collect();
            let hits = approx.iter().filter(|(i, _)| exact_ids.contains(i)).count();
            recall_sum += hits as f64 / 10.0;
        }
        let recall = recall_sum / trials as f64;
        assert!(recall > 0.6, "recall@10 with nprobe=5/20 too low: {recall}");
    }

    #[test]
    fn batch_search_matches_single() {
        let emb = table(150, 4, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let index = IvfIndex::build(&emb, 10, Metric::L1, &mut rng);
        let queries = table(9, 4, 8);
        let batch = index.batch_search(&queries, 3, 10);
        for (i, hits) in batch.iter().enumerate() {
            let single = index.search(queries.row(i), 3, 10);
            assert_eq!(hits, &single);
        }
    }

    #[test]
    fn memory_accounting_scales_with_n() {
        let small = IvfIndex::build(
            &table(50, 8, 9),
            4,
            Metric::L1,
            &mut StdRng::seed_from_u64(0),
        );
        let large = IvfIndex::build(
            &table(500, 8, 9),
            4,
            Metric::L1,
            &mut StdRng::seed_from_u64(0),
        );
        assert!(large.memory_bytes() > small.memory_bytes() * 5);
    }

    // The one `IVF5` layout, pinned byte for byte: an SQ8 build (`d`
    // biases, then the one scale) and a PQ build with an odd m, whose
    // every row ends in a zero high nibble. Each golden loads and
    // re-serialises to itself.
    #[test]
    fn ivf5_section_bytes_are_pinned() {
        const SQ8: &str = "49564635000600000002000000020000000400000001abaaaa3eabaaaa3e55\
            552541555525410300000000000000010000000200000003000000030000000400000005000000000000\
            0000000000b1b0303d000000171700e8e8e8ffffe8";
        const PQ: &str = "49564635000400000003000000020000000400000002030000000400000000\
            00284100002841000020410000003f0000003f0000000002000000020000000300000002000000000000\
            000100000000003041000000000000803f00002041000030410000803f00002041000000000000204100\
            0000000000204100000000000000003101120123000000";
        let rows = vec![
            0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 10.0, 10.0, 10.0, 11.0, 11.0, 10.0,
        ];
        for (golden, d, quantization) in [
            (SQ8, 2, Quantization::Sq8),
            (PQ, 3, Quantization::Pq { m: 3 }),
        ] {
            let golden: Vec<u8> = (0..golden.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).unwrap())
                .collect();
            let opts = IndexOptions {
                nlist: Some(2),
                quantization,
                ..IndexOptions::default()
            };
            let table = Tensor::from_vec(rows.clone(), Shape::d2(12 / d, d));
            let index =
                IvfIndex::build_with(&table, Metric::L1, &opts, &mut StdRng::seed_from_u64(3));
            assert_eq!(index.to_bytes(), golden, "{quantization:?}");
            let restored = IvfIndex::from_bytes(&golden).expect("pinned section loads");
            assert_eq!(restored.to_bytes(), golden, "{quantization:?}");
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(IvfIndex::from_bytes(b"nope").is_none());
        assert!(IvfIndex::from_bytes(b"IVF5").is_none());
        let emb = table(30, 4, 13);
        let index = IvfIndex::build(&emb, 4, Metric::L2, &mut StdRng::seed_from_u64(0));
        let mut bytes = index.to_bytes();
        bytes.truncate(bytes.len() - 7);
        assert!(IvfIndex::from_bytes(&bytes).is_none());
        bytes.clear();
        assert!(IvfIndex::from_bytes(&bytes).is_none());
        // Trailing garbage after a valid payload is rejected too.
        let mut bytes = index.to_bytes();
        bytes.push(0);
        assert!(IvfIndex::from_bytes(&bytes).is_none());
    }

    #[test]
    fn from_bytes_rejects_zero_counts() {
        // Fuzz regression: an all-zero header (n = d = nlist = 0, f32
        // storage) is self-consistent — zero lists summing to zero ids
        // over an empty table — so it used to decode; the first `search`
        // then panicked at `nprobe.clamp(1, 0)`. Zero counts must fail to
        // decode.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"IVF5");
        bytes.push(0); // metric: L1
        bytes.extend_from_slice(&[0u8; 12]); // n = d = nlist = 0
        bytes.extend_from_slice(&[4, 0, 0, 0, 0]); // rescore, tag
        assert!(IvfIndex::from_bytes(&bytes).is_none());
    }

    #[test]
    fn nlist_clamps_to_population() {
        let emb = table(3, 4, 10);
        let index = IvfIndex::build(&emb, 100, Metric::L2, &mut StdRng::seed_from_u64(0));
        assert_eq!(index.nlist(), 3);
        assert_eq!(index.search(emb.row(0), 3, 100).len(), 3);
    }

    #[test]
    fn sq8_memory_is_a_quarter_of_f32() {
        let emb = table(1000, 32, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let f32_index = IvfIndex::build(&emb, 16, Metric::L1, &mut rng);
        let mut rng = StdRng::seed_from_u64(21);
        let sq8 = quantized(&emb, 16, Quantization::Sq8, 4, &mut rng);
        assert!(
            (sq8.memory_bytes() as f64) < 0.30 * f32_index.memory_bytes() as f64,
            "sq8 {} vs f32 {}",
            sq8.memory_bytes(),
            f32_index.memory_bytes()
        );
        assert_eq!(sq8.quantization(), Quantization::Sq8);
        assert_eq!(f32_index.quantization(), Quantization::None);
    }

    #[test]
    fn sq8_full_probe_distances_stay_within_quantization_bound() {
        let emb = table(200, 16, 22);
        let mut rng = StdRng::seed_from_u64(23);
        let index = quantized(&emb, 8, Quantization::Sq8, 4, &mut rng);
        // The query is quantized too, so a distance deviates from exact
        // by at most twice the codebook bound.
        let bound = 2.0 * index.codebook().expect("sq8").l1_error_bound();
        for qi in [3usize, 77, 140] {
            let q = emb.row(qi);
            for (id, d) in index.search(q, 10, index.nlist()) {
                let exact = Metric::L1.dist(q, emb.row(id as usize));
                assert!(
                    (d - exact).abs() <= bound + 1e-5,
                    "id {id}: sq8 {d} vs exact {exact} (bound {bound})"
                );
            }
        }
    }

    #[test]
    fn sq8_rescoring_returns_exact_distances() {
        let emb = table(300, 12, 24);
        let mut rng = StdRng::seed_from_u64(25);
        let index = quantized(&emb, 8, Quantization::Sq8, 4, &mut rng);
        let q = emb.row(9);
        let rescored = index.search_rescored(q, 5, index.nlist(), Some(&emb));
        assert_eq!(rescored[0], (9, 0.0), "self-query must rescore to zero");
        for &(id, d) in &rescored {
            let exact = Metric::L1.dist(q, emb.row(id as usize));
            assert!((d - exact).abs() < 1e-9, "rescored distance must be exact");
        }
        // Batch rescoring agrees with the single-query path.
        let queries = table(5, 12, 26);
        let batch = index.batch_search_rescored(&queries, 4, 8, Some(&emb));
        for (i, hits) in batch.iter().enumerate() {
            assert_eq!(
                hits,
                &index.search_rescored(queries.row(i), 4, 8, Some(&emb))
            );
        }
    }

    #[test]
    fn decode_vector_matches_storage() {
        let emb = table(40, 6, 33);
        let mut rng = StdRng::seed_from_u64(34);
        let f32_index = IvfIndex::build(&emb, 4, Metric::L1, &mut rng);
        let mut out = Vec::new();
        f32_index.decode_vector_into(7, &mut out);
        assert_eq!(out.as_slice(), emb.row(7));
        let mut rng = StdRng::seed_from_u64(34);
        let sq8 = quantized(&emb, 4, Quantization::Sq8, 4, &mut rng);
        let half_step = sq8.codebook().unwrap().scale * 0.5;
        let mut decoded = Vec::new();
        sq8.decode_vector_into(7, &mut decoded);
        for (&v, &w) in emb.row(7).iter().zip(&decoded) {
            assert!((v - w).abs() <= half_step + 1e-6);
        }
    }

    #[test]
    fn pq_memory_is_under_six_percent_of_f32() {
        // 16-entry codebooks are small enough that the bound already holds
        // at 2000 rows (at 100k rows m = 16 lands at 5.2% — `index_scale`,
        // DESIGN.md §12.4).
        let emb = table(2000, 64, 50);
        let mut rng = StdRng::seed_from_u64(51);
        let f32_index = IvfIndex::build(&emb, 16, Metric::L1, &mut rng);
        let mut rng = StdRng::seed_from_u64(51);
        let pq = quantized(&emb, 16, Quantization::Pq { m: 8 }, 8, &mut rng);
        assert!(
            (pq.memory_bytes() as f64) < 0.06 * f32_index.memory_bytes() as f64,
            "pq {} vs f32 {}",
            pq.memory_bytes(),
            f32_index.memory_bytes()
        );
        assert_eq!(pq.quantization(), Quantization::Pq { m: 8 });
        assert!(pq.pq_codebook().is_some() && pq.codebook().is_none());
    }

    #[test]
    fn pq_full_probe_distances_stay_within_trained_bound() {
        let emb = table(400, 16, 52);
        let mut rng = StdRng::seed_from_u64(53);
        let index = quantized(&emb, 8, Quantization::Pq { m: 4 }, 8, &mut rng);
        let bound = index.pq_codebook().expect("pq").l1_error_bound();
        for qi in [3usize, 177, 340] {
            let q = emb.row(qi);
            for (id, d) in index.search(q, 10, index.nlist()) {
                let exact = Metric::L1.dist(q, emb.row(id as usize));
                assert!(
                    (d - exact).abs() <= bound + 1e-5,
                    "id {id}: pq {d} vs exact {exact} (bound {bound})"
                );
            }
        }
    }

    #[test]
    fn pq_rescoring_returns_exact_distances() {
        let emb = table(300, 12, 54);
        let mut rng = StdRng::seed_from_u64(55);
        let index = quantized(&emb, 8, Quantization::Pq { m: 3 }, 8, &mut rng);
        let q = emb.row(9);
        let rescored = index.search_rescored(q, 5, index.nlist(), Some(&emb));
        assert_eq!(rescored[0], (9, 0.0), "self-query must rescore to zero");
        for &(id, d) in &rescored {
            let exact = Metric::L1.dist(q, emb.row(id as usize));
            assert!((d - exact).abs() < 1e-9, "rescored distance must be exact");
        }
        let queries = table(5, 12, 56);
        let batch = index.batch_search_rescored(&queries, 4, 8, Some(&emb));
        for (i, hits) in batch.iter().enumerate() {
            assert_eq!(
                hits,
                &index.search_rescored(queries.row(i), 4, 8, Some(&emb))
            );
        }
    }

    #[test]
    fn from_bytes_rejects_corrupt_pq_nibbles() {
        // Two corruptions must fail in from_bytes, not panic in the first
        // scan or decode: a nibble ≥ ksub (12 rows train ksub = 12, so
        // nibble 13 indexes past the table) and a non-zero trailing nibble
        // on an odd m (never produced by encode, so it can only be
        // corruption).
        let emb = table(12, 9, 61);
        let mut rng = StdRng::seed_from_u64(62);
        let index = quantized(&emb, 4, Quantization::Pq { m: 3 }, 4, &mut rng);
        let cb = index.pq_codebook().expect("pq");
        assert_eq!(
            (cb.ksub(), cb.code_stride()),
            (12, 2),
            "ceil(3 / 2) bytes per row"
        );
        let bytes = index.to_bytes();
        assert!(IvfIndex::from_bytes(&bytes).is_some(), "sanity");
        // Codes are the final n·stride bytes; corrupt the last row.
        let mut bad = bytes.clone();
        let first_of_last_row = bad.len() - 2;
        bad[first_of_last_row] = 0xDD; // nibbles 13, 13 ≥ ksub = 12
        assert!(IvfIndex::from_bytes(&bad).is_none());
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] |= 0xF0; // trailing nibble of odd m must stay zero
        assert!(IvfIndex::from_bytes(&bad).is_none());
    }

    #[test]
    fn quantization_parses_from_str() {
        for (s, want) in [
            ("f32", Quantization::None),
            ("none", Quantization::None),
            ("SQ8", Quantization::Sq8),
            ("int8", Quantization::Sq8),
            ("pq", Quantization::Pq { m: DEFAULT_PQ_M }),
            ("pq:16", Quantization::Pq { m: 16 }),
        ] {
            assert_eq!(s.parse::<Quantization>(), Ok(want), "{s}");
        }
        assert_eq!(
            "pq4".parse::<Quantization>(),
            Err("unknown quantization \"pq4\" (try sq8, pq or pq:M)".into())
        );
        assert!("pq4:16".parse::<Quantization>().is_err());
        assert!("pq:0".parse::<Quantization>().is_err());
    }

    #[test]
    fn brute_force_batch_matches_single() {
        let emb = table(120, 8, 40);
        let queries = table(7, 8, 41);
        let batch = brute_force_batch_knn(&emb, &queries, 6, Metric::L2);
        for (i, hits) in batch.iter().enumerate() {
            assert_eq!(hits, &brute_force_knn(&emb, queries.row(i), 6, Metric::L2));
        }
    }
}
