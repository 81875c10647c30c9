//! Blocked, SIMD-friendly distance kernels, fused bounded top-k selection,
//! and the SQ8 scalar quantizer — the compute core of million-scale kNN.
//!
//! Design notes:
//!
//! * **Distance kernels** accumulate in `f32` across 8 independent lanes
//!   (one accumulator per unrolled element), so LLVM auto-vectorizes the
//!   inner loop into full-width SIMD without any per-element `f64` upcast.
//!   Every f32 vector a search scans — a sealed inverted list's rows, the
//!   IVF centroids, the write buffer's rows — is stored in column blocks
//!   of eight rows, each block dimension-major
//!   (`column_block_offset`), and one kernel, [`l1_scan_columns`],
//!   scores 32 of those rows per query broadcast (four register blocks of
//!   eight, summed lane by lane, each block filtered against the heap
//!   bound with one f32 compare), with `l1_f32`'s bits, compiled twice
//!   like the encoder's GEMM (an AVX2 copy and a baseline copy, picked by
//!   [`trajcl_tensor::cpu::level`]). The row-major [`l1_f32`] serves the
//!   exact reference scan, k-means and rescoring.
//! * **[`TopK`]** is a bounded binary max-heap fused into the scan: a
//!   candidate whose distance is not below the current k-th best is
//!   rejected with one comparison (early abandon), no full sort of the
//!   candidate set ever happens, and the heap storage is reusable across
//!   queries (see [`crate::ivf::SearchScratch`]) — no per-candidate-list
//!   allocation.
//! * **[`Sq8Codebook`]** quantizes every dimension to one byte
//!   (`v ≈ bias_j + scale · code_j`, code ∈ 0..=255) with a per-dimension
//!   bias and **one** scale, so the database shrinks 4×. The scan quantizes
//!   the *query* with the same codebook and works in the byte domain:
//!   `Σ scale·|q_j − c_j|` factors into one integer
//!   sum-of-absolute-differences times a constant ([`dispatch::sad`], one
//!   portable body the compiler lowers to `psadbw`). The over-fetch
//!   rescore restores exact results.
//! * **[`PqCodebook`]** goes below one byte per dimension: the vector is
//!   split into `m` subspaces and each subvector is replaced by the index
//!   of its nearest k-means-trained sub-centroid (at most 16 per
//!   subspace), two codes **packed per byte** (low nibble = even
//!   subspace). Search is ADC (asymmetric distance computation): one
//!   `m × ksub` lookup table of exact query-subvector-to-centroid
//!   distances is built per query ([`PqCodebook::build_lut_into`]) — small
//!   enough to live in L1 for any realistic `m` — after which scanning a
//!   row is `m` table lookups and adds ([`PqCodebook::lut_distance`]), no
//!   decode in the loop.
//! * Every SQ8 or PQ inverted-list scan is one loop, [`scan_ids_by`]:
//!   gather + per-row distance closure + the `TopK::offer` early abandon.
//!   Which closure a stored row needs is the storage's decision
//!   (`Storage::scan` in `storage.rs`), not a kernel per codec.
//! * **`kmeans`** is the one Lloyd loop: the IVF coarse quantizer trains
//!   through it under L1, every PQ sub-quantizer under squared L2 — the
//!   one place that distance exists, because Lloyd's mean update
//!   minimises it.

use rand::seq::SliceRandom;
use rand::Rng;
use trajcl_tensor::cpu::DispatchLevel;
use trajcl_tensor::pool;

pub mod dispatch;

/// Unroll width of the f32 kernels (accumulator lanes).
const LANES: usize = 8;

/// L1 distance, f32 accumulation, 8-wide unrolled.
#[inline]
pub fn l1_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            acc[j] += (xa[j] - xb[j]).abs();
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += (x - y).abs();
    }
    acc.iter().sum::<f32>() + tail
}

/// Rows per register block of [`l1_scan_columns`]: a column block holds
/// this many rows.
pub const BLOCK_ROWS: usize = LANES;

/// Register blocks one broadcast of a query value feeds in
/// [`l1_scan_columns`]: 32 rows, four accumulators and four running sums.
const GROUP_BLOCKS: usize = 4;

/// Index in a column-block table of `d`-dimensional rows of row `r`'s
/// value in dimension 0; its value in dimension `x` sits `x · BLOCK_ROWS`
/// further on. The table stores rows in blocks of [`BLOCK_ROWS`], each
/// block dimension-major: block `b` is the `d · BLOCK_ROWS` values from
/// `b · d · BLOCK_ROWS`, eight rows per dimension.
#[inline]
pub(crate) fn column_block_offset(d: usize, r: usize) -> usize {
    (r / BLOCK_ROWS * d) * BLOCK_ROWS + r % BLOCK_ROWS
}

/// Appends the rows of the row-major `(n, d)` table `rows` to `cols` as
/// column blocks (see `column_block_offset`), zero-padded to whole
/// blocks.
pub(crate) fn push_column_blocks<'a>(
    cols: &mut Vec<f32>,
    d: usize,
    rows: impl ExactSizeIterator<Item = &'a [f32]>,
) {
    let start = cols.len();
    cols.resize(start + rows.len().next_multiple_of(BLOCK_ROWS) * d, 0.0);
    let cols = &mut cols[start..];
    for (r, row) in rows.enumerate() {
        let slots = cols[column_block_offset(d, r)..]
            .iter_mut()
            .step_by(BLOCK_ROWS);
        slots.zip(row).for_each(|(slot, &v)| *slot = v);
    }
}

/// Offers every row of column-block chunks to `topk`, at its L1 distance
/// to `query`: one broadcast of a query value feeds four register blocks
/// of eight rows. The one f32 scan: the sealed IVF lists and centroids
/// (`ivf.rs`, `storage.rs`) and the write buffer's chunks (`mutable.rs`)
/// all go through it.
///
/// Each chunk is `(ids, cols)`: row `r` is `ids[r]`, and `cols` holds its
/// rows as column blocks of `query.len()` dimensions
/// (`column_block_offset`), at least `ids.len()` rows' worth rounded up
/// to whole blocks. A chunk is scanned in groups of four live blocks while
/// they fit, then its last one to three live blocks one at a time; lanes
/// past `ids.len()` may be computed but are never offered. The id type
/// `I` is what `topk` ranks ties by: sealed positions (`u32`) or external
/// ids (`u64`).
///
/// **Same bits as [`l1_f32`], lane-major.** Lane `j` of a row sums
/// dimensions `j, j + 8, …` in order, as in `l1_f32`. The kernel computes
/// lane 0 of all four blocks, then lane 1, and so on, and folds each lane
/// into a running sum that starts at `0`: `0 + l0 + l1 + … + l7`, then
/// `+ tail`, where the `d mod 8` tail is summed apart from `0`. That is
/// `l1_f32`'s fold exactly, because `0 + l0 == l0` when `l0` is a sum of
/// absolute values (never `−0`) or NaN. So each offered distance is
/// `l1_f32(query, row) as f64` at every `level`, which only picks how wide
/// the registers are.
///
/// **Exact f32 block filter.** Each block of eight is compared once with
/// the heap's bound in `f32` (see `offer_block`), and only the rows not
/// above it reach `offer`. A skipped row loses to the heap root under
/// `(total_cmp, id)` whatever its id; a tie, a NaN distance or a NaN
/// bound fails the strict `>` and reaches `offer`'s own rule. The retained
/// set is therefore exactly the per-row `offer` loop's, in any chunk
/// order.
pub fn l1_scan_columns<'a, I: Copy + Ord + 'a>(
    level: DispatchLevel,
    query: &[f32],
    chunks: impl Iterator<Item = (&'a [I], &'a [f32])>,
    topk: &mut TopK<I>,
) {
    if level.runs_avx2() {
        // SAFETY: `runs_avx2` returned true, which includes
        // `is_x86_feature_detected!("avx2")` on the running CPU.
        unsafe { l1_scan_columns_avx2(query, chunks, topk) }
    } else {
        l1_scan_columns_body(query, chunks, topk)
    }
}

/// [`l1_scan_columns_body`] compiled with 256-bit registers available (off
/// x86-64, where [`DispatchLevel::runs_avx2`] is never true, just the
/// body).
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn l1_scan_columns_avx2<'a, I: Copy + Ord + 'a>(
    query: &[f32],
    chunks: impl Iterator<Item = (&'a [I], &'a [f32])>,
    topk: &mut TopK<I>,
) {
    l1_scan_columns_body(query, chunks, topk);
}

/// The chunk walk of [`l1_scan_columns`], written once over lane arrays
/// and compiled per dispatch level: whole groups of [`GROUP_BLOCKS`] live
/// blocks, then a chunk's last one to three live blocks one at a time.
/// The heap's f32 bound is read once per call and again only after a
/// block offered a row.
#[inline(always)]
fn l1_scan_columns_body<'a, I: Copy + Ord + 'a>(
    query: &[f32],
    chunks: impl Iterator<Item = (&'a [I], &'a [f32])>,
    topk: &mut TopK<I>,
) {
    let d = query.len();
    let mut bound = f32_bound(topk);
    for (ids, cols) in chunks {
        let (units, _) = cols.as_chunks::<LANES>();
        for (group, ids) in ids.chunks(GROUP_BLOCKS * LANES).enumerate() {
            let units = &units[group * GROUP_BLOCKS * d..];
            if ids.len() > (GROUP_BLOCKS - 1) * LANES {
                let dist = block_distances::<GROUP_BLOCKS>(query, units);
                for (ids, dist) in ids.chunks(LANES).zip(&dist) {
                    offer_block(ids, dist, &mut bound, topk);
                }
            } else {
                for (b, ids) in ids.chunks(LANES).enumerate() {
                    let [dist] = block_distances::<1>(query, &units[b * d..]);
                    offer_block(ids, &dist, &mut bound, topk);
                }
            }
        }
    }
}

/// The L1 distances of `B` adjacent column blocks to `query`, lane by
/// lane: pass `j` sums dimensions `j, j + 8, …` of all `B` blocks, then
/// adds them to the running sums, and a last pass does the `d mod 8`
/// tail. `units[b * d + x]` is block `b`'s eight values of dimension `x`.
#[inline(always)]
fn block_distances<const B: usize>(query: &[f32], units: &[[f32; LANES]]) -> [[f32; LANES]; B] {
    let d = query.len();
    let (whole, tail_dims) = query.as_chunks::<LANES>();
    // Each block cut like the query, so every index below is in bounds
    // by construction.
    let blocks: [_; B] = std::array::from_fn(|b| units[b * d..][..d].as_chunks::<LANES>());
    let mut dist = [[0.0f32; LANES]; B];
    let mut fold = |acc: [[f32; LANES]; B]| {
        for (dist, acc) in dist.iter_mut().zip(&acc) {
            for r in 0..LANES {
                dist[r] += acc[r];
            }
        }
    };
    for j in 0..LANES {
        let mut acc = [[0.0f32; LANES]; B];
        for (g, q) in whole.iter().enumerate() {
            add_abs_diffs(&mut acc, q[j], |b| &blocks[b].0[g][j]);
        }
        fold(acc);
    }
    let mut tail = [[0.0f32; LANES]; B];
    for (t, &q) in tail_dims.iter().enumerate() {
        add_abs_diffs(&mut tail, q, |b| &blocks[b].1[t]);
    }
    fold(tail);
    dist
}

/// `acc[b][r] += |q − col(b)[r]|`: one query value against one
/// dimension of `B` blocks.
#[inline(always)]
fn add_abs_diffs<'a, const B: usize>(
    acc: &mut [[f32; LANES]; B],
    q: f32,
    col: impl Fn(usize) -> &'a [f32; LANES],
) {
    for (b, acc) in acc.iter_mut().enumerate() {
        let col = col(b);
        for r in 0..LANES {
            acc[r] += (q - col[r]).abs();
        }
    }
}

/// The f32 a block's distances are compared with: [`TopK::bound`] rounded
/// up to an `f32`, so `x > bound` implies `f64::from(x) > topk.bound()`.
/// A heap fed only by [`l1_scan_columns`] holds f32 distances widened, so
/// the cast is exact; the round-up keeps the filter safe for a heap that
/// also holds f64 distances.
#[inline(always)]
fn f32_bound<I: Copy + Ord>(topk: &TopK<I>) -> f32 {
    let wide = topk.bound();
    let bound = wide as f32;
    if f64::from(bound) < wide {
        bound.next_up()
    } else {
        bound
    }
}

/// Offers the live rows of one block (`ids`, at most eight) whose
/// distance is not above `bound`, then re-reads `bound` from the heap if
/// any row was offered. Such a row would lose to the heap root whatever
/// its id; a tie, a NaN distance or a NaN bound fails the strict `>` and
/// reaches `offer`'s `(total_cmp, id)` rule. Between re-reads `bound` may
/// lag the heap, which only lets more rows reach `offer`.
#[inline(always)]
fn offer_block<I: Copy + Ord>(ids: &[I], dist: &[f32; LANES], bound: &mut f32, topk: &mut TopK<I>) {
    let mut above = true;
    for &x in dist {
        above &= x > *bound;
    }
    if above {
        return;
    }
    for (&id, &x) in ids.iter().zip(dist) {
        if x > *bound {
            continue;
        }
        topk.offer(id, f64::from(x));
    }
    *bound = f32_bound(topk);
}

/// Squared L2 distance, f32 accumulation, 8-wide unrolled: what PQ
/// trains and encodes under, nothing else.
#[inline]
fn l2_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            let d = xa[j] - xb[j];
            acc[j] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    acc.iter().sum::<f32>() + tail
}

/// The one gather-scan loop of every SQ8 or PQ inverted-list scan: walk
/// the list, compute a per-row distance through `dist_of`, offer it to
/// the fused selector (whose `offer` is the O(1) early abandon).
///
/// The two codecs differ only in how a row id becomes a distance, so
/// `Storage::scan` (`storage.rs`) picks that closure once per query and
/// every quantized list runs through here (f32 lists go through
/// [`l1_scan_columns`]).
#[inline]
pub fn scan_ids_by(ids: &[u32], topk: &mut TopK, mut dist_of: impl FnMut(u32) -> f64) {
    for &id in ids {
        let d = dist_of(id);
        topk.offer(id, d);
    }
}

/// Index of the nearest row of `rows` to `query` under `dist` (k-means
/// assignment inner step; the earliest of equal minima); `rows` is
/// contiguous `(n, d)`.
#[inline]
fn argmin_row(
    dist: impl Fn(&[f32], &[f32]) -> f32,
    query: &[f32],
    rows: &[f32],
    d: usize,
) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, row) in rows.chunks_exact(d).enumerate() {
        let dd = dist(query, row);
        if dd < best_d {
            best_d = dd;
            best = i;
        }
    }
    best
}

/// Lloyd iterations of [`kmeans`].
const KMEANS_ITERS: usize = 10;

/// Plain Lloyd k-means of the contiguous `(n, d)` table `rows` into `k`
/// centroids (`k ≤ n`): distinct-random-row init, assignment through
/// [`argmin_row`] under `dist` fanned across the shared pool (the
/// O(n · k · d) inner loop), serial f64 means; an empty cluster keeps its
/// previous centroid. Returns the `(k, d)` centroid table and each row's
/// cell as of the last assignment step. `dist` is a kernel passed by
/// value (`Copy`), so the assignment loop calls it directly and inlines
/// it; called through a reference it stays an out-of-line call per row.
pub(crate) fn kmeans(
    dist: impl Fn(&[f32], &[f32]) -> f32 + Copy + Sync,
    rows: &[f32],
    d: usize,
    k: usize,
    rng: &mut impl Rng,
) -> (Vec<f32>, Vec<u32>) {
    let n = rows.len() / d;
    debug_assert!(k <= n);
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    let mut centroids: Vec<f32> = Vec::with_capacity(k * d);
    for &i in ids.iter().take(k) {
        centroids.extend_from_slice(&rows[i * d..(i + 1) * d]);
    }
    let mut assign = vec![0u32; n];
    for _ in 0..KMEANS_ITERS {
        let per = pool::rows_per_lane(n);
        let centroids_ref = &centroids;
        pool::par_chunks_mut(&mut assign, per, |c, chunk| {
            let start = c * per;
            for (i, slot) in chunk.iter_mut().enumerate() {
                let row = &rows[(start + i) * d..(start + i + 1) * d];
                *slot = argmin_row(dist, row, centroids_ref, d) as u32;
            }
        });
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0usize; k];
        for (i, &c) in assign.iter().enumerate() {
            counts[c as usize] += 1;
            for j in 0..d {
                sums[c as usize * d + j] += rows[i * d + j] as f64;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..d {
                    centroids[c * d + j] = (sums[c * d + j] / counts[c] as f64) as f32;
                }
            }
        }
    }
    (centroids, assign)
}

/// `dist`'s bits as an integer in [`f64::total_cmp`]'s order: all but
/// the sign flipped on negative values.
#[inline]
fn order_key(dist: f64) -> i64 {
    let bits = dist.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A bounded top-k selector: binary max-heap over `(distance, id)` with
/// the heap root as the early-abandon bound.
///
/// Ordering is `(distance, id)` ascending, so results are deterministic
/// even across equal distances. `offer` is O(1) for rejected candidates
/// (one comparison against the current k-th best) and O(log k) for
/// accepted ones. The backing storage is retained across [`TopK::reset`]
/// calls, so one scratch heap serves any number of queries without
/// reallocating.
///
/// The id type `I` is whatever the caller ranks ties by: row positions
/// (`u32`, the default — every scan kernel) or external ids (`u64` — the
/// write-buffer scan and [`crate::merge_partials`]).
#[derive(Default)]
pub struct TopK<I = u32> {
    k: usize,
    /// Max-heap: `heap[0]` is the worst retained candidate.
    heap: Vec<(f64, I)>,
}

impl<I: Copy + Ord> TopK<I> {
    /// An empty selector for `k` results.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: Vec::with_capacity(k.min(1 << 20)),
        }
    }

    /// Clears the selector and re-arms it for `k` results, keeping the
    /// backing allocation.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        // `reserve` is relative to the (now zero) length, so this
        // guarantees capacity for k retained candidates up front — capped
        // so a wire-supplied absurd k cannot become an absurd allocation.
        self.heap.reserve(k.min(1 << 20));
    }

    /// Number of retained candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current k-th best distance — the early-abandon bound (`+∞`
    /// while fewer than `k` are retained, `−∞` when `k` is 0). A candidate
    /// above it under `total_cmp` cannot enter the result set; one equal
    /// to it enters only on a smaller id.
    #[inline]
    pub fn bound(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.first().map_or(f64::NEG_INFINITY, |&(d, _)| d)
        }
    }

    /// Offers a candidate; rejects in O(1) when it cannot rank.
    #[inline]
    pub fn offer(&mut self, id: I, dist: f64) {
        if self.heap.len() < self.k {
            self.heap.push((dist, id));
            self.sift_up(self.heap.len() - 1);
        } else if self.k > 0 && Self::less((dist, id), self.heap[0]) {
            self.heap[0] = (dist, id);
            self.sift_down(0);
        }
    }

    /// `(dist, id)` lexicographic order (total over f64, `total_cmp`'s),
    /// computed without branches.
    #[inline]
    fn less(a: (f64, I), b: (f64, I)) -> bool {
        let (ka, kb) = (order_key(a.0), order_key(b.0));
        (ka < kb) | ((ka == kb) & (a.1 < b.1))
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::less(self.heap[parent], item) {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = item;
    }

    /// Moves `heap[i]` down past every larger child: the hole walks down
    /// and the item is written once.
    fn sift_down(&mut self, mut i: usize) {
        let (item, len) = (self.heap[i], self.heap.len());
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let child = if r < len && Self::less(self.heap[l], self.heap[r]) {
                r
            } else {
                l
            };
            if !Self::less(item, self.heap[child]) {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = item;
    }

    /// Drains the retained candidates into `out` as `(id, dist)` sorted
    /// ascending by `(dist, id)`, leaving the selector empty (storage
    /// kept). `out` is cleared first.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(I, f64)>) {
        out.clear();
        out.extend(self.heap.iter().map(|&(d, id)| (id, d)));
        self.heap.clear();
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    }

    /// Convenience: drain into a fresh vector.
    pub fn into_sorted(mut self) -> Vec<(I, f64)> {
        let mut out = Vec::new();
        self.drain_sorted_into(&mut out);
        out
    }
}

/// Scalar quantizer with one step for every dimension:
/// `v_j ≈ bias_j + scale · c_j` with `c_j ∈ 0..=255` (one byte per
/// dimension, 4× smaller than f32). A per-dimension bias keeps each
/// dimension's range; the one shared `scale` — the widest span over 255 —
/// is what lets two code rows be compared without decoding: the biases
/// cancel, so L1 is `scale · Σ|q_j − c_j|`, an exact integer sum
/// ([`dispatch::sad`]).
///
/// # Examples
///
/// ```
/// use trajcl_index::Sq8Codebook;
///
/// // Train over a (3, 2) table, then round-trip a row: the decode error
/// // is at most half a quantization step per dimension.
/// let table = [0.0f32, 10.0, 1.0, 20.0, 2.0, 30.0];
/// let cb = Sq8Codebook::train(&table, 2);
/// let mut codes = Vec::new();
/// cb.encode_into(&table[2..4], &mut codes);
/// assert_eq!(codes.len(), 2); // one byte per dimension
///
/// let mut decoded = [0.0f32; 2];
/// cb.decode_into(&codes, &mut decoded);
/// for j in 0..2 {
///     assert!((decoded[j] - table[2 + j]).abs() <= cb.scale / 2.0 + 1e-6);
/// }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Sq8Codebook {
    /// Per-dimension minimum (the value of code 0).
    pub bias: Vec<f32>,
    /// The step of one code increment, shared by every dimension.
    pub scale: f32,
}

impl Sq8Codebook {
    /// Trains the per-dimension minima and the one scale (the widest
    /// per-dimension span over 255) over a contiguous `(n, d)` table.
    /// Narrow dimensions pay a coarser step than their own span needs
    /// (reflected in [`Sq8Codebook::l1_error_bound`]), which the over-fetch
    /// rescore absorbs.
    pub fn train(data: &[f32], d: usize) -> Sq8Codebook {
        assert!(
            d > 0 && data.len().is_multiple_of(d),
            "table must be (n, d)"
        );
        let mut lo = vec![f32::INFINITY; d];
        let mut hi = vec![f32::NEG_INFINITY; d];
        for row in data.chunks_exact(d) {
            for (j, &v) in row.iter().enumerate() {
                lo[j] = lo[j].min(v);
                hi[j] = hi[j].max(v);
            }
        }
        // A degenerate table (every dimension constant, or none at all)
        // gets a zero scale: every code is 0 and decodes exactly to bias.
        let scale = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| {
                let span = h - l;
                if span.is_finite() && span > 0.0 {
                    span / 255.0
                } else {
                    0.0
                }
            })
            .fold(0.0f32, f32::max);
        let bias = lo
            .into_iter()
            .map(|l| if l.is_finite() { l } else { 0.0 })
            .collect();
        Sq8Codebook { bias, scale }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.bias.len()
    }

    /// Encodes one `d`-vector, appending `d` codes to `out`. Values
    /// outside the trained box clamp to code 0 or 255.
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        debug_assert_eq!(v.len(), self.dim());
        let s = self.scale;
        out.extend(v.iter().zip(&self.bias).map(|(&x, &b)| {
            if s > 0.0 {
                ((x - b) / s).round().clamp(0.0, 255.0) as u8
            } else {
                0u8
            }
        }));
    }

    /// Decodes `codes` (one row) into `out[..d]`.
    pub fn decode_into(&self, codes: &[u8], out: &mut [f32]) {
        debug_assert_eq!(codes.len(), self.dim());
        for ((o, &c), &b) in out.iter_mut().zip(codes).zip(&self.bias) {
            *o = b + self.scale * c as f32;
        }
    }

    /// L1 distance from `q` to the box the codes span,
    /// `Σ_j dist(q_j, [bias_j, bias_j + 255·scale])`: what
    /// [`Sq8Codebook::encode_into`]'s clamp cuts off a query outside it
    /// (0 inside). Every encoded row lies in the box, so per dimension
    /// `|q − x| = |q − clamp(q)| + |clamp(q) − x|`, and the L1 scan adds
    /// this once per query to stay within `d · scale` of exact.
    pub(crate) fn l1_to_box(&self, q: &[f32]) -> f64 {
        let top = 255.0 * self.scale;
        q.iter()
            .zip(&self.bias)
            .map(|(&x, &b)| f64::from((b - x).max(x - (b + top)).max(0.0)))
            .sum()
    }

    /// Worst-case L1 distance error of one quantized row (`d` half-steps)
    /// — the bound quantization-aware tests and the rescoring margin
    /// reason about.
    pub fn l1_error_bound(&self) -> f64 {
        self.dim() as f64 * f64::from(self.scale) * 0.5
    }

    /// Approximate resident bytes of the codebook itself.
    pub fn memory_bytes(&self) -> usize {
        (self.bias.len() + 1) * 4
    }
}

/// Product quantizer: the vector is split into `m` contiguous subspaces
/// and each subvector is stored as the 4-bit index of its nearest
/// sub-centroid (k-means-trained per subspace, at most 16 each), two
/// codes per byte — `⌈m/2⌉` bytes per vector.
///
/// Training follows standard practice: plain k-means (L2) per subspace
/// over (a sample of) the indexed table, encoding by nearest-centroid
/// assignment. Search never decodes rows: a per-query lookup table of
/// exact query-subvector-to-centroid distances turns each row scan into
/// `m` table lookups ([`PqCodebook::lut_distance`]).
///
/// When `d` is not a multiple of `m`, the first `d mod m` subspaces are
/// one dimension wider — any `1 ≤ m ≤ d` works.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use trajcl_index::PqCodebook;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // A tiny (32, 8) table; 3 subspaces (3, 3 and 2 dims), 4-bit codes.
/// let table: Vec<f32> = (0..32 * 8).map(|i| (i % 13) as f32 * 0.1).collect();
/// let mut cb = PqCodebook::train(&table, 8, 3, &mut rng);
/// let codes = cb.encode_table(&table); // ceil(3 / 2) = 2 bytes per row
/// assert_eq!(codes.len(), 32 * 2);
///
/// // ADC: build the per-query LUT once, then row distances are m lookups.
/// let query = &table[..8];
/// let mut lut = Vec::new();
/// cb.build_lut_into(query, &mut lut);
/// let d0 = cb.lut_distance(&lut, &codes[..2]);
/// assert!(d0 <= cb.l1_error_bound() + 1e-5); // self-row ≈ 0 within the bound
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PqCodebook {
    m: usize,
    /// Centroids per subspace (`min(16, n)` at training time).
    ksub: usize,
    d: usize,
    /// Subspace boundaries, `m + 1` entries; subspace `s` covers
    /// dimensions `offsets[s]..offsets[s+1]`. Derived from `(d, m)`.
    offsets: Vec<usize>,
    /// Concatenated per-subspace centroid tables (`ksub * d` floats):
    /// subspace `s` occupies `ksub * dsub_s` floats starting at
    /// `ksub * offsets[s]`, stored row-major (`ksub` rows of `dsub_s`).
    centroids: Vec<f32>,
    /// Max per-row L1 reconstruction error observed over the encoded
    /// table ([`PqCodebook::encode_table`]); 0 until a table is encoded.
    l1_bound: f32,
}

/// Most centroids a sub-quantizer trains: one 4-bit code, two per byte.
const PQ_KSUB: usize = 16;

/// Training-sample cap per sub-quantizer, as a multiple of `ksub`
/// (k-means quality saturates long before the full table is needed).
const PQ_TRAIN_POINTS_PER_CENTROID: usize = 128;

/// Subspace boundaries for a `(d, m)` split: `m + 1` offsets, the first
/// `d mod m` subspaces one dimension wider. The single source of truth —
/// encoding and decoding must agree on the split or codes decode against
/// the wrong centroids.
fn subspace_offsets(d: usize, m: usize) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(m + 1);
    offsets.push(0usize);
    for s in 0..m {
        offsets.push(offsets[s] + d / m + usize::from(s < d % m));
    }
    offsets
}

impl PqCodebook {
    /// Trains `m` sub-quantizers (`ksub = 16` centroids each, clamped to
    /// the table size) over a contiguous `(n, d)` table. Tables larger
    /// than `ksub ·` 128 rows are subsampled for training; encoding always
    /// covers every row. `m` is clamped to `1..=d`.
    pub fn train(data: &[f32], d: usize, m: usize, rng: &mut impl Rng) -> PqCodebook {
        assert!(
            d > 0 && data.len().is_multiple_of(d) && !data.is_empty(),
            "table must be a non-empty (n, d)"
        );
        let n = data.len() / d;
        let m = m.clamp(1, d);
        let ksub = PQ_KSUB.min(n);
        let offsets = subspace_offsets(d, m);
        // Sample training rows once, shared by every subspace.
        let cap = ksub * PQ_TRAIN_POINTS_PER_CENTROID;
        let sample: Vec<usize> = if n <= cap {
            (0..n).collect()
        } else {
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(rng);
            ids.truncate(cap);
            ids
        };
        // Subspace tables are stored back to back in subspace order.
        let mut centroids = Vec::with_capacity(ksub * d);
        for s in 0..m {
            let dsub = offsets[s + 1] - offsets[s];
            let off = offsets[s];
            let sub: Vec<f32> = sample
                .iter()
                .flat_map(|&i| data[i * d + off..i * d + off + dsub].iter().copied())
                .collect();
            centroids.extend(kmeans(l2_f32, &sub, dsub, ksub, rng).0);
        }
        PqCodebook {
            m,
            ksub,
            d,
            offsets,
            centroids,
            l1_bound: 0.0,
        }
    }

    /// Number of subspaces (= codes per vector).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Centroids per subspace (`min(16, n)` at training time).
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Bytes per stored code row: `ceil(m / 2)`. Subspace `2i` sits in
    /// the low nibble of byte `i`, `2i + 1` in the high nibble; the
    /// trailing nibble of an odd `m` is always zero.
    pub fn code_stride(&self) -> usize {
        self.m.div_ceil(2)
    }

    /// Code index of subspace `s` in a stored row.
    #[inline]
    pub fn code_at(&self, row: &[u8], s: usize) -> usize {
        let b = row[s / 2];
        (if s.is_multiple_of(2) {
            b & 0x0F
        } else {
            b >> 4
        }) as usize
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The centroid table of subspace `s` (`ksub` rows of `dsub_s`).
    fn sub_centroids(&self, s: usize) -> &[f32] {
        let dsub = self.offsets[s + 1] - self.offsets[s];
        let at = self.ksub * self.offsets[s];
        &self.centroids[at..at + self.ksub * dsub]
    }

    /// Encodes one `d`-vector, appending one nibble-packed code row
    /// ([`PqCodebook::code_stride`] bytes) to `out`.
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        debug_assert_eq!(v.len(), self.d);
        let start = out.len();
        out.resize(start + self.code_stride(), 0);
        for s in 0..self.m {
            let sub = &v[self.offsets[s]..self.offsets[s + 1]];
            let dsub = sub.len();
            let c = argmin_row(l2_f32, sub, self.sub_centroids(s), dsub) as u8;
            // ksub ≤ 16, so `c` always fits in the nibble.
            out[start + s / 2] |= if s % 2 == 0 { c } else { c << 4 };
        }
    }

    /// Encodes a whole `(n, d)` table (fanned across the shared pool) and
    /// records the max per-row L1 reconstruction error into the bound
    /// returned by [`PqCodebook::l1_error_bound`] — every sealed row is
    /// an encoded row, so the bound covers exactly what the index stores.
    pub fn encode_table(&mut self, data: &[f32]) -> Vec<u8> {
        assert!(data.len().is_multiple_of(self.d), "table must be (n, d)");
        let n = data.len() / self.d;
        let stride = self.code_stride();
        let mut codes = vec![0u8; n * stride];
        let per = pool::rows_per_lane(n);
        let this = &*self;
        pool::par_chunks_mut(&mut codes, per * stride, |c, chunk| {
            let start = c * per;
            let mut scratch = Vec::with_capacity(stride);
            for (i, crow) in chunk.chunks_exact_mut(stride).enumerate() {
                scratch.clear();
                this.encode_into(
                    &data[(start + i) * this.d..(start + i + 1) * this.d],
                    &mut scratch,
                );
                crow.copy_from_slice(&scratch);
            }
        });
        let mut worst = 0.0f32;
        let mut decoded = vec![0.0f32; self.d];
        for (row, crow) in data.chunks_exact(self.d).zip(codes.chunks_exact(stride)) {
            self.decode_into(crow, &mut decoded);
            worst = worst.max(l1_f32(row, &decoded));
        }
        self.l1_bound = worst;
        codes
    }

    /// Decodes one stored code row ([`PqCodebook::code_stride`] bytes)
    /// into `out[..d]` (centroid gather).
    pub fn decode_into(&self, codes: &[u8], out: &mut [f32]) {
        debug_assert_eq!(codes.len(), self.code_stride());
        debug_assert_eq!(out.len(), self.d);
        for s in 0..self.m {
            let c = self.code_at(codes, s);
            let dsub = self.offsets[s + 1] - self.offsets[s];
            let cen = &self.sub_centroids(s)[c * dsub..(c + 1) * dsub];
            out[self.offsets[s]..self.offsets[s + 1]].copy_from_slice(cen);
        }
    }

    /// Fills `lut` with the `m × ksub` ADC table for `query`:
    /// `lut[s * ksub + c]` is the exact L1 distance between the query's
    /// subvector `s` and centroid `c` of that subspace. Built once per
    /// query, reused for every scanned row.
    pub fn build_lut_into(&self, query: &[f32], lut: &mut Vec<f32>) {
        debug_assert_eq!(query.len(), self.d);
        lut.clear();
        lut.reserve(self.m * self.ksub);
        for s in 0..self.m {
            let qs = &query[self.offsets[s]..self.offsets[s + 1]];
            let dsub = qs.len();
            for cen in self.sub_centroids(s).chunks_exact(dsub) {
                lut.push(l1_f32(qs, cen));
            }
        }
    }

    /// ADC distance of one code row under a LUT from
    /// [`PqCodebook::build_lut_into`] — identical to the L1 distance
    /// between the query and the *decoded* row, because subspaces
    /// partition the dimensions.
    #[inline]
    pub fn lut_distance(&self, lut: &[f32], codes: &[u8]) -> f64 {
        debug_assert_eq!(lut.len(), self.m * self.ksub);
        debug_assert_eq!(codes.len(), self.code_stride());
        let mut acc = 0.0f32;
        // Low nibble = even subspace; the trailing high nibble of an odd
        // `m` is skipped.
        for (i, &b) in codes.iter().enumerate() {
            let s = 2 * i;
            acc += lut[s * self.ksub + (b & 0x0F) as usize];
            if s + 1 < self.m {
                acc += lut[(s + 1) * self.ksub + (b >> 4) as usize];
            }
        }
        acc as f64
    }

    /// Worst-case L1 distance error of any row encoded by the last
    /// [`PqCodebook::encode_table`] (by the triangle inequality, the ADC
    /// distance of a row deviates from its exact distance by at most the
    /// row's L1 reconstruction error).
    pub fn l1_error_bound(&self) -> f64 {
        self.l1_bound as f64
    }

    /// Approximate resident bytes of the codebook itself.
    pub fn memory_bytes(&self) -> usize {
        self.centroids.len() * 4 + self.offsets.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn randv(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-3.0f32..3.0)).collect()
    }

    impl PqCodebook {
        /// Every subspace's centroid table, back to back — for the
        /// pinned-bytes test in `ivf.rs`.
        pub(crate) fn centroid_tables(&self) -> &[f32] {
            &self.centroids
        }
    }

    /// One value of a row of `kind`: 0 ordinary, 1 signed zeros and
    /// subnormals, 2 ordinary with values near `f32::MAX` (two of them in a
    /// row overflow its sum to +∞), 3 ordinary with a NaN now and then.
    fn edge_value(kind: usize, rng: &mut StdRng) -> f32 {
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        match (kind, rng.gen_range(0u32..8)) {
            (1, 0..=2) => sign * 0.0,
            (1, _) => sign * f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
            (2, 0) => sign * f32::MAX * rng.gen_range(0.5f32..1.0),
            (3, 0) if rng.gen_bool(0.2) => f32::NAN,
            _ => rng.gen_range(-3.0f32..3.0),
        }
    }

    /// `rows` (row-major `(n, d)`) cut into chunks of `cap` rows, stored
    /// as column blocks over `stride` slots, with ids running against slot
    /// order so the id tie-break and slot order disagree.
    fn column_chunks(
        rows: &[f32],
        d: usize,
        cap: usize,
        stride: usize,
    ) -> Vec<(Vec<u64>, Vec<f32>)> {
        let n = rows.len() / d;
        let id = |r: usize| 3 * (n - r) as u64;
        (0..n)
            .step_by(cap)
            .map(|start| {
                let len = cap.min(n - start);
                let mut cols = vec![0.0f32; d * stride];
                for r in 0..len {
                    for x in 0..d {
                        cols[column_block_offset(d, r) + x * BLOCK_ROWS] =
                            rows[(start + r) * d + x];
                    }
                }
                ((start..start + len).map(id).collect(), cols)
            })
            .collect()
    }

    /// `(id, distance bits)` in rank order.
    fn ranked_bits(topk: TopK<u64>) -> Vec<(u64, u64)> {
        let hits = topk.into_sorted();
        hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
    }

    #[test]
    fn column_scan_matches_per_row_l1_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(41);
        // `(d, rows per chunk)`. 13 rows leave a ragged last block in every
        // chunk and 16 fill a stride of two blocks, too short for one
        // four-block group; 44 rows (stride 48) make one group and two tail
        // blocks. Then the write buffer's own chunks: d = 20 holds 204 rows
        // (stride 208: six groups, then two tail blocks), d = 48 holds 85
        // (stride 88: two groups, then three), and d = 520 and 523 hold 8
        // (stride 8, narrower than one group). Every row count up to two
        // chunks and a bit ends a chunk inside each block of a group.
        let shapes = (1..=70)
            .chain([128, 520, 523])
            .flat_map(|d| [(d, 13usize), (d, 16), (d, 44)])
            .chain([(20, 204), (48, 85), (520, 8), (523, 8)]);
        for (d, cap) in shapes {
            let stride = cap.next_multiple_of(BLOCK_ROWS);
            for n in 0..=2 * stride + 5 {
                let mut rows: Vec<f32> = (0..n)
                    .flat_map(|r| (0..d).map(move |x| (r, x)))
                    .map(|(r, _)| edge_value(r % 4, &mut rng))
                    .collect();
                // Duplicate rows make exact ties on distance.
                if n >= 4 {
                    let (head, rest) = rows.split_at_mut(2 * d);
                    rest[..d].copy_from_slice(&head[..d]);
                    rest[d..2 * d].copy_from_slice(&head[d..]);
                }
                let mut query: Vec<f32> = (0..d).map(|_| edge_value(n % 3, &mut rng)).collect();
                if n % 7 == 3 {
                    query[d / 2] = f32::NAN;
                }
                let chunks = column_chunks(&rows, d, cap, stride);
                let positions: Vec<Vec<u32>> = chunks
                    .iter()
                    .map(|(ids, _)| ids.iter().map(|&id| id as u32).collect())
                    .collect();
                for k in [0usize, 1, 3, 9, n, n + 2] {
                    let mut want = TopK::new(k);
                    for (r, row) in rows.chunks_exact(d).enumerate() {
                        want.offer(3 * (n - r) as u64, f64::from(l1_f32(&query, row)));
                    }
                    let want = ranked_bits(want);
                    for level in [DispatchLevel::Scalar, DispatchLevel::Avx2] {
                        let mut got = TopK::new(k);
                        let views = chunks.iter().map(|(ids, cols)| (&ids[..], &cols[..]));
                        l1_scan_columns(level, &query, views, &mut got);
                        assert_eq!(
                            ranked_bits(got),
                            want,
                            "d={d} cap={cap} n={n} k={k} {level:?}"
                        );
                        // Sealed positions: the same scan over u32 ids.
                        let mut got = TopK::<u32>::new(k);
                        let views = chunks.iter().zip(&positions);
                        let views = views.map(|((_, cols), ids)| (&ids[..], &cols[..]));
                        l1_scan_columns(level, &query, views, &mut got);
                        let got = got.into_sorted().into_iter();
                        let got: Vec<_> = got.map(|(id, d)| (u64::from(id), d.to_bits())).collect();
                        assert_eq!(got, want, "u32 d={d} cap={cap} n={n} k={k} {level:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn f32_kernels_match_scalar_reference() {
        for d in [1usize, 7, 8, 9, 31, 64, 130] {
            let a = randv(d, d as u64);
            let b = randv(d, d as u64 + 99);
            let l1_ref: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            let l2_ref: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((l1_f32(&a, &b) - l1_ref).abs() < 1e-4, "L1 d={d}");
            assert!((l2_f32(&a, &b) - l2_ref).abs() < 1e-3, "L2 d={d}");
        }
    }

    #[test]
    fn topk_selects_k_smallest_with_deterministic_ties() {
        let mut topk = TopK::new(3);
        for (id, d) in [
            (5u32, 2.0f64),
            (1, 1.0),
            (7, 1.0),
            (2, 3.0),
            (9, 0.5),
            (4, 2.0),
        ] {
            topk.offer(id, d);
        }
        assert_eq!(topk.into_sorted(), vec![(9, 0.5), (1, 1.0), (7, 1.0)]);
        // k larger than the candidate count keeps everything.
        let mut topk = TopK::new(10);
        topk.offer(3, 1.5);
        topk.offer(1, 0.5);
        assert_eq!(topk.into_sorted(), vec![(1, 0.5), (3, 1.5)]);
        // k = 0 retains nothing.
        let mut topk = TopK::new(0);
        topk.offer(1, 0.0);
        assert!(topk.is_empty());
    }

    #[test]
    fn topk_over_external_ids_breaks_ties_by_id() {
        // Ids past u32 and out of arrival order: equal distances must come
        // back ordered by the id itself, whatever was offered first.
        let big = u64::from(u32::MAX);
        let mut topk: TopK<u64> = TopK::new(3);
        for id in [big + 9, 4, big + 2, 11, big + 5] {
            topk.offer(id, 1.0);
        }
        topk.offer(big + 1, 0.5);
        assert_eq!(
            topk.into_sorted(),
            vec![(big + 1, 0.5), (4, 1.0), (11, 1.0)]
        );
    }

    #[test]
    fn topk_matches_full_sort_on_random_input() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(1usize..200);
            let k = rng.gen_range(1usize..20);
            let cands: Vec<(u32, f64)> = (0..n)
                .map(|i| (i as u32, rng.gen_range(0.0..10.0f64)))
                .collect();
            let mut topk = TopK::new(k);
            for &(id, d) in &cands {
                topk.offer(id, d);
            }
            let mut want = cands.clone();
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            want.truncate(k);
            assert_eq!(topk.into_sorted(), want);
        }
    }

    #[test]
    fn topk_bound_tracks_kth_best() {
        let mut topk = TopK::new(2);
        assert_eq!(topk.bound(), f64::INFINITY);
        topk.offer(0, 5.0);
        assert_eq!(topk.bound(), f64::INFINITY);
        topk.offer(1, 3.0);
        assert_eq!(topk.bound(), 5.0);
        topk.offer(2, 1.0);
        assert_eq!(topk.bound(), 3.0);
        assert_eq!(TopK::<u32>::new(0).bound(), f64::NEG_INFINITY);
    }

    #[test]
    fn sq8_round_trip_error_is_bounded() {
        let d = 24;
        let data = randv(96 * d, 5);
        let cb = Sq8Codebook::train(&data, d);
        // The one scale is the widest per-dimension span over 255.
        let widest = (0..d)
            .map(|j| {
                let col = data.iter().skip(j).step_by(d);
                let (lo, hi) = col.fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
                (hi - lo) / 255.0
            })
            .fold(0.0f32, f32::max);
        assert_eq!(cb.scale, widest);
        let mut codes = Vec::new();
        let mut decoded = vec![0.0f32; d];
        for row in data.chunks_exact(d) {
            codes.clear();
            cb.encode_into(row, &mut codes);
            cb.decode_into(&codes, &mut decoded);
            for (j, (&v, &w)) in row.iter().zip(&decoded).enumerate() {
                assert!(
                    (v - w).abs() <= cb.scale * 0.5 + 1e-6,
                    "dim {j}: {v} vs {w}"
                );
            }
        }
    }

    #[test]
    fn sq8_handles_constant_dimensions() {
        // One constant dimension must decode exactly and never divide by 0.
        let d = 3;
        let data = vec![1.0f32, 7.5, -2.0, 3.0, 7.5, 2.0];
        let cb = Sq8Codebook::train(&data, d);
        let mut codes = Vec::new();
        cb.encode_into(&data[..d], &mut codes);
        let mut decoded = vec![0.0f32; d];
        cb.decode_into(&codes, &mut decoded);
        assert_eq!(decoded[1], 7.5);
    }

    #[test]
    fn pq_round_trip_error_is_bounded_by_trained_bound() {
        let d = 24;
        let data = randv(300 * d, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut cb = PqCodebook::train(&data, d, 3, &mut rng);
        let codes = cb.encode_table(&data);
        assert_eq!(codes.len(), 300 * 2, "ceil(3 / 2) bytes per row");
        let bound = cb.l1_error_bound();
        assert!(bound > 0.0, "real data cannot encode losslessly");
        let mut decoded = vec![0.0f32; d];
        for (row, crow) in data.chunks_exact(d).zip(codes.chunks_exact(2)) {
            cb.decode_into(crow, &mut decoded);
            assert!(l1_f32(row, &decoded) as f64 <= bound + 1e-5);
        }
    }

    #[test]
    fn pq_lut_distance_equals_decoded_distance() {
        // ADC must be *exactly* the L1 distance to the decoded row (up to
        // f32 association noise) — for an uneven subspace split (d = 10,
        // m = 3 → widths 4, 3, 3) and odd and even m.
        let d = 10;
        let data = randv(120 * d, 21);
        let mut rng = StdRng::seed_from_u64(22);
        for m in [3, 4, 5] {
            let mut cb = PqCodebook::train(&data, d, m, &mut rng);
            let codes = cb.encode_table(&data);
            let q = randv(d, 777);
            let mut lut = Vec::new();
            let mut decoded = vec![0.0f32; d];
            cb.build_lut_into(&q, &mut lut);
            for crow in codes.chunks_exact(cb.code_stride()).take(40) {
                cb.decode_into(crow, &mut decoded);
                let want = l1_f32(&q, &decoded) as f64;
                let got = cb.lut_distance(&lut, crow);
                assert!((want - got).abs() < 1e-4, "{want} vs {got}");
            }
        }
    }

    #[test]
    fn pq_parameters_clamp() {
        let d = 8;
        let n = 12;
        let data = randv(n * d, 31);
        let mut rng = StdRng::seed_from_u64(32);
        // An m out of range clamps rather than panics.
        let mut cb = PqCodebook::train(&data, d, 99, &mut rng);
        assert_eq!(cb.m(), d);
        assert_eq!(cb.ksub(), n, "ksub clamps to the table size");
        let wide = randv(40 * d, 33);
        assert_eq!(PqCodebook::train(&wide, d, 2, &mut rng).ksub(), 16);
        cb.encode_table(&data);
        // With ksub == n and distinct rows, encoding is (near-)lossless.
        assert!(cb.l1_error_bound() < 1e-4);
    }

    #[test]
    fn kmeans_keeps_every_row_at_k_equals_n_and_empty_clusters_in_place() {
        // k == n over distinct rows: every row is its own centroid, its
        // cell holds exactly itself, and the single-member f64 mean gives
        // the row back bit for bit.
        let (n, d) = (9, 3);
        let rows = randv(n * d, 61);
        let mut rng = StdRng::seed_from_u64(62);
        let (centroids, assign) = kmeans(l2_f32, &rows, d, n, &mut rng);
        for (i, &c) in assign.iter().enumerate() {
            let c = c as usize;
            assert_eq!(centroids[c * d..(c + 1) * d], rows[i * d..(i + 1) * d]);
        }
        let mut cells = assign.clone();
        cells.sort_unstable();
        assert_eq!(cells, (0..n as u32).collect::<Vec<_>>());
        // Duplicate rows: both copies land in the first of the two equal
        // centroids (`argmin_row` keeps the earliest minimum), so the other
        // cluster is empty and must keep the row it was initialised with.
        let rows = [1.0f32, 2.0, 1.0, 2.0, 5.0, 6.0];
        let (centroids, assign) = kmeans(l1_f32, &rows, 2, 3, &mut rng);
        let empty: Vec<usize> = (0..3).filter(|c| !assign.contains(&(*c as u32))).collect();
        assert_eq!(empty.len(), 1);
        assert_eq!(centroids[empty[0] * 2..empty[0] * 2 + 2], [1.0, 2.0]);
    }

    #[test]
    fn pq_rows_pack_nearest_centroids_two_per_byte_with_odd_m() {
        // Each nibble holds its subspace's nearest centroid — low nibble =
        // even subspace — the trailing nibble of an odd m stays zero, and
        // decode gathers exactly those centroids.
        let d = 10;
        let n = 80;
        let data = randv(n * d, 41);
        let mut rng = StdRng::seed_from_u64(42);
        let mut cb = PqCodebook::train(&data, d, 3, &mut rng);
        assert_eq!(cb.code_stride(), 2, "ceil(3 / 2) bytes per row");
        let codes = cb.encode_table(&data);
        assert_eq!(codes.len(), n * 2);
        let mut dec = vec![0.0f32; d];
        for (row, crow) in data.chunks_exact(d).zip(codes.chunks_exact(2)) {
            cb.decode_into(crow, &mut dec);
            for s in 0..cb.m() {
                let (lo, hi) = (cb.offsets[s], cb.offsets[s + 1]);
                let want = argmin_row(l2_f32, &row[lo..hi], cb.sub_centroids(s), hi - lo);
                let c = cb.code_at(crow, s);
                assert_eq!(c, want);
                assert_eq!(
                    dec[lo..hi],
                    cb.sub_centroids(s)[c * (hi - lo)..(c + 1) * (hi - lo)]
                );
            }
            assert_eq!(crow[1] >> 4, 0, "trailing nibble of odd m is zero");
        }
    }

    #[test]
    fn symmetric_distance_equals_decoded_distance() {
        // The scaled byte sum must be *exactly* the L1 distance between
        // the two decoded vectors: biases cancel, scale factors out.
        let d = 24;
        let n = 64;
        let data = randv(n * d, 53);
        let cb = Sq8Codebook::train(&data, d);
        let s = f64::from(cb.scale);
        let q = randv(d, 54);
        let mut qcodes = Vec::new();
        cb.encode_into(&q, &mut qcodes);
        let mut codes = Vec::new();
        for row in data.chunks_exact(d) {
            cb.encode_into(row, &mut codes);
        }
        let mut qdec = vec![0.0f32; d];
        let mut rdec = vec![0.0f32; d];
        cb.decode_into(&qcodes, &mut qdec);
        for i in 0..n {
            let crow = &codes[i * d..(i + 1) * d];
            cb.decode_into(crow, &mut rdec);
            let want = l1_f32(&qdec, &rdec) as f64;
            let got = dispatch::sad_scalar(&qcodes, crow) as f64 * s;
            let tol = want.abs().max(1.0) * 1e-5;
            assert!((want - got).abs() <= tol, "row {i}: {want} vs {got}");
        }
    }

    #[test]
    fn box_offset_keeps_out_of_box_l1_within_d_steps_of_exact() {
        // Queries drawn three times wider than the table clamp on most
        // dimensions; with the box offset added the integer L1 is still
        // within d · scale of exact, and without it, it falls short.
        let d = 32;
        let n = 64;
        let data: Vec<f32> = randv(n * d, 9).iter().map(|v| v / 3.0).collect();
        let cb = Sq8Codebook::train(&data, d);
        let mut codes = Vec::new();
        for row in data.chunks_exact(d) {
            cb.encode_into(row, &mut codes);
        }
        let q = randv(d, 1234);
        let mut qcodes = Vec::new();
        cb.encode_into(&q, &mut qcodes);
        let offset = cb.l1_to_box(&q);
        assert!(
            offset > 2.0 * cb.l1_error_bound(),
            "the query is far out of the box"
        );
        for i in 0..n {
            let exact = l1_f32(&q, &data[i * d..(i + 1) * d]) as f64;
            let sad = dispatch::sad_scalar(&qcodes, &codes[i * d..(i + 1) * d]);
            let scanned = sad as f64 * f64::from(cb.scale) + offset;
            assert!(
                (exact - scanned).abs() <= 2.0 * cb.l1_error_bound() + 1e-4,
                "row {i}: exact {exact} vs scanned {scanned}"
            );
            assert!(exact - (scanned - offset) > 2.0 * cb.l1_error_bound());
        }
    }
}
