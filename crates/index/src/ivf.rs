//! IVF (inverted-file) vector index — the Faiss \[52\] substitute used for
//! embedding kNN queries (§V-E).
//!
//! Build: k-means coarse quantizer (the Voronoi partition) + one inverted
//! list per centroid; a one-list f32 index trains none. Search: score
//! the centroids, take the `nprobe` nearest cells by (distance, cell) and
//! scan their lists nearest-first. `nprobe = nlist` degenerates to exact
//! brute force, which the tests exploit to validate recall.
//!
//! Every search ranks by L1, the distance TrajCL compares embeddings
//! with. Storage is exact f32 rows (each list's rows as dimension-major
//! 8-row column blocks, scanned like the centroids by
//! [`crate::kernels::l1_scan_columns`]), SQ8 scalar-quantized codes
//! ([`Quantization::Sq8`]: one byte per dimension; the query is quantized
//! too and lists are scanned in pure integer arithmetic through
//! [`crate::kernels::dispatch::sad`]) or PQ product-quantized codes
//! ([`Quantization::Pq`]: `m` 4-bit codes per *vector*, two per byte,
//! scanned via a per-query ADC lookup table).
//! Quantized distances are approximate; re-ranking them against exact
//! vectors is [`crate::IndexSnapshot::search_rescored`]'s job, which
//! over-fetches [`IvfIndex::rescore_factor`]` · k` candidates from here.
//! All scans feed the fused bounded top-k selector, never a full sort.
//! Whatever depends on *how* rows are stored sits behind `Storage`
//! (`storage.rs`); this file is the IVF half.

// A codec module (DESIGN.md §11.2): no cast in its non-test code may
// truncate, wrap, drop a sign or round.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )
)]

use rand::Rng;
use trajcl_tensor::{pool, Tensor};

use crate::kernels::{self, dispatch, PqCodebook, Sq8Codebook, TopK};
use crate::storage::{self, ScanScratch, Storage};

/// The distance every index searches under. It has one value, L1: the
/// constructors that take a `Metric` keep the parameter so callers name
/// the distance they rank by, and no index stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Manhattan distance (TrajCL compares embeddings with L1).
    L1,
}

impl Metric {
    /// L1 distance between two equal-length vectors (blocked f32 kernel,
    /// widened to `f64` at the boundary) — the distance every search
    /// reports.
    #[inline]
    pub fn dist(&self, a: &[f32], b: &[f32]) -> f64 {
        kernels::l1_f32(a, b) as f64
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
    /// optionally rescored exactly. A scan distance is within
    /// `2 × l1_error_bound` ([`crate::Sq8Codebook::l1_error_bound`]) of
    /// exact for any query.
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
    /// The storage tag of the TCE1 tail. A PQ tag is followed on the wire
    /// (not necessarily directly) by `m u32`.
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
    /// IVF cells to train (`None` = one list, an exhaustive scan; an f32
    /// one-list part trains no k-means).
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
    /// against exact vectors ([`crate::IndexSnapshot::search_rescored`]);
    /// at least 1.
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

/// Reusable per-thread search state: the probe selection's heap and
/// cell order, and the storage scan's heap and per-query tables. One
/// scratch serves any number of queries and indexes — batch search
/// allocates one per pool lane, and snapshot searches share one per
/// thread across shards and queries.
#[derive(Default)]
pub struct SearchScratch {
    /// The `nprobe` nearest cells, by (distance, cell).
    probe: TopK,
    /// `(cell, centroid distance)`, nearest first.
    order: Vec<(u32, f64)>,
    scan: ScanScratch,
}

/// An IVF index over fixed-dimension vectors, stored as exact f32 rows,
/// SQ8 codes or PQ codes.
pub struct IvfIndex {
    /// The centroids as one column-block chunk
    /// ([`kernels::l1_scan_columns`]), cell `c` in row `c`.
    centroids: Vec<f32>,
    /// `0..nlist`: the ids the centroid chunk is scanned under.
    cells: Vec<u32>,
    lists: Vec<Vec<u32>>,
    storage: Storage,
    n: usize,
    d: usize,
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
    /// under `opts.quantization`, and `opts.rescore_factor` kept for
    /// callers that rescore ([`IvfIndex::rescore_factor`]). All
    /// randomness comes from `rng` (`opts.seed` is the caller's to seed
    /// it with); an f32 one-list index draws none, since its one cell is
    /// probed whatever its centroid.
    pub fn build_with(
        embeddings: &Tensor,
        _: Metric,
        opts: &IndexOptions,
        rng: &mut impl Rng,
    ) -> Self {
        let d = embeddings.shape().last();
        let n = embeddings.shape().rows();
        assert!(n > 0 && d > 0, "cannot index an empty table");
        let nlist = opts.nlist.unwrap_or(1).clamp(1, n);
        let data = embeddings.data();
        let (centroids, assign) = if nlist == 1 && opts.quantization == Quantization::None {
            (vec![0.0; d], vec![0; n])
        } else {
            kernels::kmeans(kernels::l1_f32, data, d, nlist, rng)
        };
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (i, &c) in assign.iter().enumerate() {
            #[expect(clippy::cast_possible_truncation, reason = "row ids are u32")]
            lists[c as usize].push(i as u32);
        }
        Self::from_lists(data, d, &centroids, lists, opts, rng)
    }

    /// The index over the row-major `(n, d)` table `data` whose cell `c`
    /// has the centroid in row `c` of `centroids` and holds the positions
    /// `lists[c]`: every position in exactly one list.
    pub(crate) fn from_lists(
        data: &[f32],
        d: usize,
        centroids: &[f32],
        lists: Vec<Vec<u32>>,
        opts: &IndexOptions,
        rng: &mut impl Rng,
    ) -> Self {
        let storage = storage::encode(opts.quantization, data, d, &lists, rng);
        let mut centroid_cols = Vec::new();
        kernels::push_column_blocks(&mut centroid_cols, d, centroids.chunks_exact(d));
        #[expect(
            clippy::cast_possible_truncation,
            reason = "nlist ≤ n, and row ids are u32"
        )]
        let cells = (0..lists.len() as u32).collect();
        IvfIndex {
            centroids: centroid_cols,
            cells,
            lists,
            storage,
            n: data.len() / d,
            d,
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
            + (self.centroids.len() + self.cells.len()) * 4
            + self.lists.iter().map(|l| l.len() * 4 + 24).sum::<usize>()
    }

    /// kNN search probing the `nprobe` nearest Voronoi cells. Returns
    /// `(id, distance)` sorted ascending; fewer than `k` results only when
    /// the probed lists hold fewer vectors. Quantized (SQ8/PQ) distances
    /// are approximate (error-bounded, see [`Quantization`]).
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u32, f64)> {
        let mut scratch = SearchScratch::default();
        let mut out = Vec::new();
        self.search_into(&mut scratch, query, k, nprobe, &mut out);
        out
    }

    /// The scratch-reusing search core behind every public search entry.
    pub fn search_into(
        &self,
        scratch: &mut SearchScratch,
        query: &[f32],
        k: usize,
        nprobe: usize,
        out: &mut Vec<(u32, f64)>,
    ) {
        assert_eq!(query.len(), self.d, "query dimensionality mismatch");
        // The `nprobe` nearest cells by (distance, cell), scanned
        // nearest-first so the heap's bound tightens early. The probed set,
        // and so the answer, does not depend on that order.
        let SearchScratch { probe, order, scan } = scratch;
        probe.reset(nprobe.clamp(1, self.lists.len()));
        let centroids = std::iter::once((&self.cells[..], &self.centroids[..]));
        kernels::l1_scan_columns(dispatch::level(), query, centroids, probe);
        probe.drain_sorted_into(order);
        scan.topk.reset(k);
        let probed = order.iter().map(|&(c, _)| {
            let c = c as usize;
            (c, self.lists[c].as_slice())
        });
        self.storage.scan(self.d, query, probed, scan);
        scan.topk.drain_sorted_into(out);
    }

    /// Candidates to fetch for `k` results that will be re-ranked
    /// exactly: `rescore_factor · k` on quantized (SQ8/PQ) storage, `None`
    /// on f32 storage, whose distances need no rescoring.
    pub(crate) fn rescore_fetch(&self, k: usize) -> Option<usize> {
        (self.quantization() != Quantization::None)
            .then(|| k.saturating_mul(self.rescore_factor).max(k))
    }

    /// Batched parallel search (one reusable [`SearchScratch`] per pool
    /// lane, not per query).
    pub fn batch_search(&self, queries: &Tensor, k: usize, nprobe: usize) -> Vec<Vec<(u32, f64)>> {
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
                self.search_into(&mut scratch, row, k, nprobe, slot);
            }
        });
        out
    }
}

/// Exact brute-force kNN over an embedding table (baseline for recall
/// measurements): a fused blocked scan, no candidate materialisation.
pub fn brute_force_knn(embeddings: &Tensor, query: &[f32], k: usize, _: Metric) -> Vec<(u32, f64)> {
    let d = embeddings.shape().last();
    assert_eq!(query.len(), d, "query dimensionality mismatch");
    let mut topk = TopK::new(k);
    scan_table(query, embeddings.data(), d, &mut topk);
    topk.into_sorted()
}

/// Offers every row of the contiguous `(n, d)` table to `topk` under its
/// row position.
#[inline]
fn scan_table(query: &[f32], table: &[f32], d: usize, topk: &mut TopK) {
    for (i, row) in table.chunks_exact(d).enumerate() {
        #[expect(clippy::cast_possible_truncation, reason = "row ids are u32")]
        topk.offer(i as u32, kernels::l1_f32(query, row) as f64);
    }
}

/// Parallel batched brute-force kNN: one result row per query row,
/// splitting queries across the shared pool (the engine's kNN route).
/// Each lane reuses one fused top-k heap across all its queries.
pub fn brute_force_batch_knn(
    embeddings: &Tensor,
    queries: &Tensor,
    k: usize,
    _: Metric,
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
            scan_table(row, table, d, &mut topk);
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

        /// The centroids row-major, read back from their column blocks.
        fn centroid_rows(&self) -> Vec<f32> {
            let cells = 0..self.nlist();
            let at = |c| kernels::column_block_offset(self.d, c);
            let column = |c| self.centroids[at(c)..].iter().step_by(kernels::BLOCK_ROWS);
            let rows = cells.map(|c| column(c).take(self.d));
            rows.flatten().copied().collect()
        }

        /// Every row in position order, as `decode_vector_into` reads it.
        fn decoded_rows(&self) -> Vec<f32> {
            let mut out = Vec::new();
            for id in 0..self.n as u32 {
                self.decode_vector_into(id, &mut out);
            }
            out
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
        let index = IvfIndex::build(&emb, 8, Metric::L1, &mut rng);
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

    #[test]
    fn nlist_clamps_to_population() {
        let emb = table(3, 4, 10);
        let index = IvfIndex::build(&emb, 100, Metric::L1, &mut StdRng::seed_from_u64(0));
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

    /// FNV-1a over a stream of 32-bit words.
    fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn bits(xs: &[f32]) -> impl Iterator<Item = u32> + '_ {
        xs.iter().map(|x| x.to_bits())
    }

    #[test]
    fn every_storage_trains_the_pinned_bytes() {
        // Digests of what one seeded build trains and stores, per storage:
        // the IVF centroids and lists (trained under L1), then the SQ8
        // codebook and codes, or the PQ sub-centroids and codes (trained
        // and encoded under squared L2). A change to either k-means
        // distance, to the Lloyd loop or to a codec moves a digest.
        use crate::storage::Storage;
        let emb = table(96, 8, 70);
        let mut got = Vec::new();
        for quantization in [
            Quantization::None,
            Quantization::Sq8,
            Quantization::Pq { m: 4 },
        ] {
            let index = quantized(&emb, 4, quantization, 4, &mut StdRng::seed_from_u64(71));
            let lists = index
                .lists
                .iter()
                .flat_map(|l| std::iter::once(l.len() as u32).chain(l.iter().copied()));
            let ivf = fnv(bits(&index.centroid_rows()).chain(lists));
            let stored = match index.storage() {
                Storage::F32 { .. } => fnv(bits(&index.decoded_rows())),
                Storage::Sq8 { codes, cb } => fnv(bits(&cb.bias)
                    .chain([cb.scale.to_bits()])
                    .chain(codes.iter().map(|&c| u32::from(c)))),
                Storage::Pq { codes, cb } => {
                    fnv(bits(cb.centroid_tables()).chain(codes.iter().map(|&c| u32::from(c))))
                }
            };
            got.push((ivf, stored));
        }
        const IVF: u64 = 9171944634584674375;
        assert_eq!(
            got,
            [
                (IVF, 3529568495958286375),
                (IVF, 18203030351744344694),
                (IVF, 18188995424305867340),
            ]
        );
    }

    #[test]
    fn brute_force_batch_matches_single() {
        let emb = table(120, 8, 40);
        let queries = table(7, 8, 41);
        let batch = brute_force_batch_knn(&emb, &queries, 6, Metric::L1);
        for (i, hits) in batch.iter().enumerate() {
            assert_eq!(hits, &brute_force_knn(&emb, queries.row(i), 6, Metric::L1));
        }
    }
}
