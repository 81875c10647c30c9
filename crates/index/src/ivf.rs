//! IVF (inverted-file) vector index — the Faiss \[52\] substitute used for
//! embedding kNN queries (§V-E).
//!
//! Build: k-means coarse quantizer (the Voronoi partition) + one inverted
//! list per centroid. Search: probe the `nprobe` nearest lists and scan
//! them exactly. `nprobe = nlist` degenerates to exact brute force, which
//! the tests exploit to validate recall.
//!
//! Storage is exact f32 rows, SQ8 scalar-quantized codes
//! ([`Quantization::Sq8`]: one byte per dimension with per-dimension
//! affine decode, scanned by the asymmetric f32-query × int8-database
//! kernels in [`crate::kernels`]) or PQ product-quantized codes
//! ([`Quantization::Pq`]: `m` codes per *vector* — one byte each, or two
//! per byte when `nbits ≤ 4` — scanned via a per-query ADC lookup table).
//! SQ8 indexes built with [`ScanMode::Symmetric`] additionally quantize
//! the *query* at search time and scan in pure integer arithmetic
//! through the runtime-dispatched SIMD kernels
//! ([`crate::kernels::dispatch`]). Quantized searches are optionally
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
    /// Per-dimension int8 scalar quantization (1 byte per dimension,
    /// asymmetric search, optional exact rescoring).
    Sq8,
    /// Product quantization: `m` k-means sub-quantizers with
    /// `2^nbits`-entry codebooks each — `m` bytes per vector, searched by
    /// per-query ADC lookup tables ([`crate::kernels::PqCodebook`]).
    /// Recall is recovered through the same over-fetch + exact-rescore
    /// path SQ8 uses.
    Pq {
        /// Subspace count (= codes per vector); clamped to `1..=d` at
        /// build time. With `nbits ≤ 4` two codes pack into each byte.
        m: usize,
        /// Code width in bits (clamped to `1..=8`; 8 ⇒ 256 centroids per
        /// subspace, `≤ 4` ⇒ nibble-packed rows).
        nbits: u8,
    },
}

/// Which kernel quantized SQ8 scans use before rescoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Exact f32 query against quantized rows (the default): per-element
    /// decode in the scan, distances exact up to row quantization error.
    #[default]
    Asymmetric,
    /// Quantize the query with the index's codebook too and scan codes
    /// against codes in pure integer arithmetic (no per-element decode;
    /// SIMD `psadbw`-class kernels via [`crate::kernels::dispatch`]).
    /// Requires a uniform-scale SQ8 codebook — [`IvfIndex::build_with`]
    /// trains one — and adds at most twice the asymmetric error, which the
    /// over-fetch + exact rescore path absorbs. Ignored (falls back to
    /// asymmetric) for f32 and PQ storage.
    Symmetric,
}

impl ScanMode {
    /// The scan byte of the `IVF4` section and the TCE1 tail.
    pub fn to_wire(self) -> u8 {
        match self {
            ScanMode::Asymmetric => 0,
            ScanMode::Symmetric => 1,
        }
    }

    /// Inverse of [`ScanMode::to_wire`]; `None` for an unknown byte.
    pub fn from_wire(byte: u8) -> Option<ScanMode> {
        match byte {
            0 => Some(ScanMode::Asymmetric),
            1 => Some(ScanMode::Symmetric),
            _ => None,
        }
    }
}

impl Quantization {
    /// The storage tag of the `IVF4` section and the TCE1 tail. A PQ tag
    /// is followed on the wire (not necessarily directly) by the
    /// `m u32 | nbits u8` geometry.
    pub fn wire_tag(self) -> u8 {
        match self {
            Quantization::None => 0,
            Quantization::Sq8 => 1,
            Quantization::Pq { .. } => 2,
        }
    }

    /// Inverse of [`Quantization::wire_tag`]. `geometry` reads the PQ
    /// `(m, nbits)` pair and is only called for the PQ tag; `None` for an
    /// unknown tag or a geometry outside `m ≥ 1`, `nbits ∈ 1..=8`.
    pub fn from_wire(
        tag: u8,
        geometry: impl FnOnce() -> Option<(usize, u8)>,
    ) -> Option<Quantization> {
        match tag {
            0 => Some(Quantization::None),
            1 => Some(Quantization::Sq8),
            2 => {
                let (m, nbits) = geometry()?;
                (m >= 1 && (1..=8).contains(&nbits)).then_some(Quantization::Pq { m, nbits })
            }
            _ => None,
        }
    }
}

impl std::str::FromStr for ScanMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ScanMode, String> {
        match s.to_lowercase().as_str() {
            "asym" | "asymmetric" => Ok(ScanMode::Asymmetric),
            "sym" | "symmetric" => Ok(ScanMode::Symmetric),
            _ => Err(format!("unknown scan mode {s:?} (try symmetric or asym)")),
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
            "pq" => {
                return Ok(Quantization::Pq {
                    m: DEFAULT_PQ_M,
                    nbits: 8,
                })
            }
            "pq4" => {
                return Ok(Quantization::Pq {
                    m: DEFAULT_PQ_M,
                    nbits: 4,
                })
            }
            _ => {}
        }
        for (prefix, nbits) in [("pq:", 8u8), ("pq4:", 4u8)] {
            if let Some(m) = lower.strip_prefix(prefix) {
                let m: usize = m
                    .parse()
                    .ok()
                    .filter(|&m| m >= 1)
                    .ok_or_else(|| format!("bad PQ subspace count in {s:?} (try {prefix}8)"))?;
                return Ok(Quantization::Pq { m, nbits });
            }
        }
        Err(format!(
            "unknown quantization {s:?} (try sq8, pq, pq4, pq:M or pq4:M)"
        ))
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
    /// codes (4× smaller); [`Quantization::Pq`] as `m`-byte
    /// product-quantized codes. A [`crate::MutableIndex`] write buffer
    /// always stays exact f32 until the next compaction.
    pub quantization: Quantization,
    /// Over-fetch multiplier for callers that rescore quantized hits
    /// against an exact table ([`IvfIndex::search_rescored`],
    /// [`crate::IndexSnapshot::search_rescored`]); at least 1.
    pub rescore_factor: usize,
    /// Scan kernel ([`ScanMode::Symmetric`] trains a uniform-scale SQ8
    /// codebook and scans in integer arithmetic; ignored by f32/PQ
    /// storage).
    pub scan: ScanMode,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            nlist: None,
            seed: 0,
            quantization: Quantization::None,
            rescore_factor: DEFAULT_RESCORE_FACTOR,
            scan: ScanMode::Asymmetric,
        }
    }
}

/// Magic of the one serialised section layout ([`IvfIndex::to_bytes`]).
const SECTION_MAGIC: &[u8; 4] = b"IVF4";

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
    scan: ScanMode,
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
    /// With [`ScanMode::Symmetric`] and [`Quantization::Sq8`] the
    /// codebook is trained with one *uniform* scale across dimensions
    /// ([`crate::kernels::Sq8Codebook::train_uniform`]) so list scans
    /// reduce to integer sum-of-absolute/squared-differences over code
    /// bytes; other storages ignore the mode (normalised back to
    /// asymmetric). All randomness comes from `rng` (`opts.seed` is the
    /// caller's to seed it with).
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
        let storage = storage::encode(opts.quantization, opts.scan, data, d, rng);
        let scan = storage.scan_mode(opts.scan);
        IvfIndex {
            centroids,
            lists,
            storage,
            n,
            d,
            metric,
            rescore_factor: opts.rescore_factor.max(1),
            scan,
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

    /// The scan mode this index was built with (always
    /// [`ScanMode::Asymmetric`] for f32/PQ storage).
    pub fn scan_mode(&self) -> ScanMode {
        self.scan
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
    /// are approximate — asymmetric (exact query vs quantized rows), or
    /// fully quantized under [`ScanMode::Symmetric`] — supply the exact
    /// table via [`IvfIndex::search_rescored`] for exact top-k distances.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u32, f64)> {
        self.search_rescored(query, k, nprobe, None)
    }

    /// [`IvfIndex::search`] with optional exact rescoring: when `exact`
    /// carries the original `(N, d)` f32 table, quantized (SQ8/PQ)
    /// searches over-fetch the top `rescore_factor · k` candidates by
    /// asymmetric distance and re-rank them with exact f32 distances
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
    /// // Without the exact table: asymmetric (quantized) distances.
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
        self.storage
            .scan(metric, self.scan, self.d, query, probed, state);
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

    /// Serialises the index as one `IVF4` section (little-endian):
    /// `"IVF4" | metric u8 | n | d | nlist | scan u8 | rescore u32 |
    /// storage tag u8 | [PQ: m u32, nbits u8, ksub u32] | centroids |
    /// lists | payload`, where the payload is the f32 rows (tag 0), the
    /// per-dimension SQ8 codebook and int8 codes (tag 1), or the PQ
    /// sub-centroid tables, the trained error bound and the code rows
    /// (tag 2; `ceil(m / 2)` bytes per row when `nbits ≤ 4`, `m`
    /// otherwise) — DESIGN.md §10.2 has the byte diagram. The output
    /// buffer is preallocated to its exact final size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let list_bytes: usize = self.lists.iter().map(|l| 4 + l.len() * 4).sum();
        let header = 4 + 1 + 4 + 4 + 4 + 1 + 4;
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
        out.push(self.scan.to_wire());
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
        let scan = ScanMode::from_wire(r.u8()?)?;
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
            scan,
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
        scan: ScanMode,
        rng: &mut StdRng,
    ) -> IvfIndex {
        let opts = IndexOptions {
            nlist: Some(nlist),
            quantization,
            rescore_factor,
            scan,
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

    // The `IVF4` section as written before `Reader` grew `u64` for the
    // WAL decoders (captured at commit 03adfee): same bytes out of the
    // same build, and the old bytes load and re-serialise to themselves.
    #[test]
    fn ivf4_section_bytes_are_pinned() {
        const GOLDEN: &str = "4956463400060000000200000002000000000400000001abaaaa3eabaaaa3e\
            5555254155552541030000000000000001000000020000000300000003000000040000000500000000\
            00000000000000b1b0303db1b0303d000000171700e8e8e8ffffe8";
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let rows = vec![
            0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 10.0, 10.0, 10.0, 11.0, 11.0, 10.0,
        ];
        let opts = IndexOptions {
            nlist: Some(2),
            quantization: Quantization::Sq8,
            ..IndexOptions::default()
        };
        let index = IvfIndex::build_with(
            &Tensor::from_vec(rows, Shape::d2(6, 2)),
            Metric::L1,
            &opts,
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(index.to_bytes(), golden);
        let restored = IvfIndex::from_bytes(&golden).expect("parent-written section loads");
        assert_eq!(restored.to_bytes(), golden);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(IvfIndex::from_bytes(b"nope").is_none());
        assert!(IvfIndex::from_bytes(b"IVF4").is_none());
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
        bytes.extend_from_slice(b"IVF4");
        bytes.push(0); // metric: L1
        bytes.extend_from_slice(&[0u8; 12]); // n = d = nlist = 0
        bytes.extend_from_slice(&[0, 4, 0, 0, 0, 0]); // scan, rescore, tag
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
        let sq8 = quantized(
            &emb,
            16,
            Quantization::Sq8,
            4,
            ScanMode::Asymmetric,
            &mut rng,
        );
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
        let index = quantized(
            &emb,
            8,
            Quantization::Sq8,
            4,
            ScanMode::Asymmetric,
            &mut rng,
        );
        let bound = index.codebook().expect("sq8").l1_error_bound();
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
        let index = quantized(
            &emb,
            8,
            Quantization::Sq8,
            4,
            ScanMode::Asymmetric,
            &mut rng,
        );
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
        let sq8 = quantized(
            &emb,
            4,
            Quantization::Sq8,
            4,
            ScanMode::Asymmetric,
            &mut rng,
        );
        let bound = sq8.codebook().unwrap();
        let mut decoded = Vec::new();
        sq8.decode_vector_into(7, &mut decoded);
        for (j, (&v, &w)) in emb.row(7).iter().zip(&decoded).enumerate() {
            assert!((v - w).abs() <= bound.step_error(j) + 1e-6);
        }
    }

    #[test]
    fn pq_memory_is_under_a_tenth_of_f32() {
        // 6-bit codes keep the codebook small enough that the 10% bound
        // already holds at 2000 rows (at 100k rows 8-bit PQ with m = 16
        // lands at 8.4% — `index_scale`, DESIGN.md §12.4).
        let emb = table(2000, 64, 50);
        let mut rng = StdRng::seed_from_u64(51);
        let f32_index = IvfIndex::build(&emb, 16, Metric::L1, &mut rng);
        let mut rng = StdRng::seed_from_u64(51);
        let pq = quantized(
            &emb,
            16,
            Quantization::Pq { m: 8, nbits: 6 },
            8,
            ScanMode::Asymmetric,
            &mut rng,
        );
        assert!(
            (pq.memory_bytes() as f64) < 0.10 * f32_index.memory_bytes() as f64,
            "pq {} vs f32 {}",
            pq.memory_bytes(),
            f32_index.memory_bytes()
        );
        assert_eq!(pq.quantization(), Quantization::Pq { m: 8, nbits: 6 });
        assert!(pq.pq_codebook().is_some() && pq.codebook().is_none());
    }

    #[test]
    fn pq_full_probe_distances_stay_within_trained_bound() {
        let emb = table(400, 16, 52);
        let mut rng = StdRng::seed_from_u64(53);
        let index = quantized(
            &emb,
            8,
            Quantization::Pq { m: 4, nbits: 8 },
            8,
            ScanMode::Asymmetric,
            &mut rng,
        );
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
        let index = quantized(
            &emb,
            8,
            Quantization::Pq { m: 3, nbits: 8 },
            8,
            ScanMode::Asymmetric,
            &mut rng,
        );
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
    fn from_bytes_rejects_out_of_range_pq_codes() {
        // A code must index the ksub-entry centroid table; with 6-bit
        // codes (ksub = 64) a corrupt byte of 200 has to fail in
        // from_bytes, not panic in the first scan or decode.
        let emb = table(60, 8, 59);
        let mut rng = StdRng::seed_from_u64(60);
        let index = quantized(
            &emb,
            4,
            Quantization::Pq { m: 2, nbits: 6 },
            4,
            ScanMode::Asymmetric,
            &mut rng,
        );
        let mut bytes = index.to_bytes();
        assert!(IvfIndex::from_bytes(&bytes).is_some(), "sanity");
        // Codes are the final n·m bytes of the section.
        let last = bytes.len() - 1;
        bytes[last] = 200;
        assert!(IvfIndex::from_bytes(&bytes).is_none());
    }

    #[test]
    fn from_bytes_rejects_corrupt_packed_pq_nibbles() {
        // Packed rows fail on two corruptions the byte check can't see:
        // a nibble ≥ ksub (3-bit codes → ksub 8, nibble 9 is garbage) and
        // a non-zero trailing nibble on an odd m (never produced by
        // encode, so it can only be corruption).
        let emb = table(60, 9, 61);
        let mut rng = StdRng::seed_from_u64(62);
        let index = quantized(
            &emb,
            4,
            Quantization::Pq { m: 3, nbits: 3 },
            4,
            ScanMode::Asymmetric,
            &mut rng,
        );
        let cb = index.pq_codebook().expect("pq");
        assert!(cb.packed());
        assert_eq!(cb.code_stride(), 2, "ceil(3 / 2) bytes per row");
        let bytes = index.to_bytes();
        assert!(IvfIndex::from_bytes(&bytes).is_some(), "sanity");
        // Codes are the final n·stride bytes; corrupt the last row.
        let mut bad = bytes.clone();
        let first_of_last_row = bad.len() - 2;
        bad[first_of_last_row] = 0x99; // nibbles 9, 9 ≥ ksub = 8
        assert!(IvfIndex::from_bytes(&bad).is_none());
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] |= 0xF0; // trailing nibble of odd m must stay zero
        assert!(IvfIndex::from_bytes(&bad).is_none());
    }

    #[test]
    fn symmetric_search_stays_within_error_bound_and_rescores_exactly() {
        let emb = table(300, 16, 67);
        let mut rng = StdRng::seed_from_u64(68);
        let index = quantized(&emb, 8, Quantization::Sq8, 4, ScanMode::Symmetric, &mut rng);
        // Symmetric distances quantize both sides, so they deviate from
        // exact by at most twice the codebook bound (queries drawn from
        // the table are inside the trained box).
        let bound = 2.0 * index.codebook().expect("sq8").l1_error_bound();
        for qi in [3usize, 111, 280] {
            let q = emb.row(qi);
            for (id, dq) in index.search(q, 10, index.nlist()) {
                let exact = Metric::L1.dist(q, emb.row(id as usize));
                assert!(
                    (dq - exact).abs() <= bound + 1e-5,
                    "id {id}: sym {dq} vs exact {exact} (bound {bound})"
                );
            }
        }
        // Rescoring returns exact distances, identical to batch.
        let q = emb.row(9);
        let rescored = index.search_rescored(q, 5, index.nlist(), Some(&emb));
        assert_eq!(rescored[0], (9, 0.0), "self-query must rescore to zero");
        for &(id, dq) in &rescored {
            let exact = Metric::L1.dist(q, emb.row(id as usize));
            assert!((dq - exact).abs() < 1e-9);
        }
        let queries = table(5, 16, 69);
        let batch = index.batch_search_rescored(&queries, 4, 8, Some(&emb));
        for (i, hits) in batch.iter().enumerate() {
            assert_eq!(
                hits,
                &index.search_rescored(queries.row(i), 4, 8, Some(&emb))
            );
        }
    }

    #[test]
    fn symmetric_mode_normalises_to_asymmetric_off_sq8() {
        let emb = table(50, 6, 70);
        let mut rng = StdRng::seed_from_u64(71);
        let f32_index = quantized(
            &emb,
            4,
            Quantization::None,
            4,
            ScanMode::Symmetric,
            &mut rng,
        );
        assert_eq!(f32_index.scan_mode(), ScanMode::Asymmetric);
        let mut rng = StdRng::seed_from_u64(71);
        let pq = quantized(
            &emb,
            4,
            Quantization::Pq { m: 2, nbits: 8 },
            4,
            ScanMode::Symmetric,
            &mut rng,
        );
        assert_eq!(pq.scan_mode(), ScanMode::Asymmetric);
    }

    #[test]
    fn scan_mode_and_pq4_parse_from_str() {
        assert_eq!("symmetric".parse::<ScanMode>(), Ok(ScanMode::Symmetric));
        assert_eq!("SYM".parse::<ScanMode>(), Ok(ScanMode::Symmetric));
        assert_eq!("asym".parse::<ScanMode>(), Ok(ScanMode::Asymmetric));
        assert!("fast".parse::<ScanMode>().is_err());
        assert_eq!(
            "pq4".parse::<Quantization>(),
            Ok(Quantization::Pq {
                m: DEFAULT_PQ_M,
                nbits: 4
            })
        );
        assert_eq!(
            "pq4:16".parse::<Quantization>(),
            Ok(Quantization::Pq { m: 16, nbits: 4 })
        );
        assert_eq!(
            "pq:16".parse::<Quantization>(),
            Ok(Quantization::Pq { m: 16, nbits: 8 })
        );
        assert!("pq4:0".parse::<Quantization>().is_err());
        assert!("pq5".parse::<Quantization>().is_err());
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
