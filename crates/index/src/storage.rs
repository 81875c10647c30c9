//! The vector payload of an [`IvfIndex`](crate::IvfIndex) and every
//! decision that depends on how it is stored — the codec seam.
//!
//! [`Storage`] owns, for each variant: training and encoding
//! ([`encode`]), the scan of the inverted lists a search probes
//! ([`Storage::scan`]), row read-back ([`Storage::decode_row_into`]) and
//! memory accounting. `ivf.rs` keeps what is IVF — centroids, lists,
//! probing and the over-fetch a rescoring caller asks for — and never
//! looks at the variant. A fourth codec is one more variant here, one
//! more [`Quantization`] value and, if it needs per-query state, one more
//! field of [`ScanScratch`].

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

use crate::ivf::Quantization;
use crate::kernels::{self, dispatch, PqCodebook, Sq8Codebook, TopK, BLOCK_ROWS};

/// Exact rows as column blocks, list by list, or SQ8 / PQ codes,
/// row-major by position.
pub(crate) enum Storage {
    /// Each inverted list's rows in list order as column blocks
    /// ([`kernels::column_block_offset`]), zero-padded to whole blocks:
    /// list `c` is slots `starts[c]..starts[c + 1]` of `cols`, and row
    /// `pos` is slot `slot[pos]`.
    F32 {
        cols: Vec<f32>,
        starts: Vec<usize>,
        slot: Vec<u32>,
    },
    Sq8 {
        codes: Vec<u8>,
        cb: Sq8Codebook,
    },
    Pq {
        codes: Vec<u8>,
        cb: PqCodebook,
    },
}

/// What a scan writes: the fused top-k heap it offers into and the
/// per-query tables a codec builds first, allocations reused across a
/// batch.
#[derive(Default)]
pub(crate) struct ScanScratch {
    pub(crate) topk: TopK,
    /// PQ ADC lookup table (`m × ksub`).
    lut: Vec<f32>,
    /// Quantized query codes of the SQ8 scan.
    qcodes: Vec<u8>,
}

/// Trains the codec `quantization` names over the `(n, d)` table `data`
/// and encodes every row, f32 rows laid out list by list as `lists`
/// name them; only PQ training draws from `rng`.
pub(crate) fn encode(
    quantization: Quantization,
    data: &[f32],
    d: usize,
    lists: &[Vec<u32>],
    rng: &mut impl Rng,
) -> Storage {
    match quantization {
        Quantization::None => {
            let mut cols = Vec::new();
            let mut starts = vec![0];
            let mut slot = vec![0; data.len() / d];
            for list in lists {
                let first = starts[starts.len() - 1];
                for (s, &pos) in (first..).zip(list) {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "slots are u32 like row ids"
                    )]
                    let s = s as u32;
                    slot[pos as usize] = s;
                }
                let rows = list.iter().map(|&pos| row(data, d, pos));
                kernels::push_column_blocks(&mut cols, d, rows);
                starts.push(first + list.len().next_multiple_of(BLOCK_ROWS));
            }
            Storage::F32 { cols, starts, slot }
        }
        Quantization::Sq8 => {
            let cb = Sq8Codebook::train(data, d);
            let mut codes = Vec::with_capacity(data.len());
            for row in data.chunks_exact(d) {
                cb.encode_into(row, &mut codes);
            }
            Storage::Sq8 { codes, cb }
        }
        Quantization::Pq { m } => {
            let mut cb = PqCodebook::train(data, d, m, rng);
            let codes = cb.encode_table(data);
            Storage::Pq { codes, cb }
        }
    }
}

impl Storage {
    /// The quantization stored (for PQ, the *effective* parameters after
    /// build-time clamping).
    pub(crate) fn quantization(&self) -> Quantization {
        match self {
            Storage::F32 { .. } => Quantization::None,
            Storage::Sq8 { .. } => Quantization::Sq8,
            Storage::Pq { cb, .. } => Quantization::Pq { m: cb.m() },
        }
    }

    pub(crate) fn sq8_codebook(&self) -> Option<&Sq8Codebook> {
        match self {
            Storage::Sq8 { cb, .. } => Some(cb),
            _ => None,
        }
    }

    pub(crate) fn pq_codebook(&self) -> Option<&PqCodebook> {
        match self {
            Storage::Pq { cb, .. } => Some(cb),
            _ => None,
        }
    }

    /// Appends row `id` to `out`: the exact row for f32 storage, the
    /// decoded (quantized) row for SQ8/PQ.
    pub(crate) fn decode_row_into(&self, id: u32, d: usize, out: &mut Vec<f32>) {
        let start = out.len();
        out.resize(start + d, 0.0);
        let dst = &mut out[start..];
        match self {
            Storage::F32 { cols, slot, .. } => {
                let at = kernels::column_block_offset(d, slot[id as usize] as usize);
                let values = cols[at..].iter().step_by(BLOCK_ROWS);
                dst.iter_mut().zip(values).for_each(|(v, &x)| *v = x);
            }
            Storage::Sq8 { codes, cb } => cb.decode_into(row(codes, d, id), dst),
            Storage::Pq { codes, cb } => cb.decode_into(row(codes, cb.code_stride(), id), dst),
        }
    }

    /// Approximate resident bytes of the rows and their codebook (f32:
    /// the padded blocks and one slot per row).
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            Storage::F32 { cols, starts, slot } => {
                cols.len() * 4 + starts.len() * 8 + slot.len() * 4
            }
            Storage::Sq8 { codes, cb } => codes.len() + cb.memory_bytes(),
            Storage::Pq { codes, cb } => codes.len() + cb.memory_bytes(),
        }
    }

    /// Scans the lists `lists` names, `(cell, positions)`, against
    /// `query` into `scratch.topk` (armed by the caller). F32 lists go
    /// through [`kernels::l1_scan_columns`] in one call; SQ8 and PQ lists
    /// through [`kernels::scan_ids_by`] with the per-row distance picked
    /// once, here.
    pub(crate) fn scan<'a>(
        &'a self,
        d: usize,
        query: &[f32],
        lists: impl Iterator<Item = (usize, &'a [u32])>,
        scratch: &mut ScanScratch,
    ) {
        // Re-slice so `query.len() == d` is a fact inside this function:
        // the caller's length assert is out of sight once `scan` is not
        // inlined under it, and without it the f32 kernels keep their
        // per-row length reconciliation (measured: f32 search +25 %).
        let query = &query[..d];
        let ScanScratch { topk, lut, qcodes } = scratch;
        match self {
            Storage::F32 { cols, starts, .. } => {
                let chunks = lists.map(|(c, ids)| (ids, &cols[starts[c] * d..starts[c + 1] * d]));
                kernels::l1_scan_columns(dispatch::level(), query, chunks, topk);
            }
            Storage::Sq8 { codes, cb } => {
                // Codes against codes in the byte domain, no decode, exact
                // integer sums. Encoding clamps a query outside the
                // codebook's box, so the scan adds back the distance the
                // clamp removed, the same for every row.
                qcodes.clear();
                cb.encode_into(query, qcodes);
                let (scale, offset) = (f64::from(cb.scale), cb.l1_to_box(query));
                #[expect(clippy::cast_precision_loss, reason = "a byte SAD is exact in f64")]
                scan_lists(lists, topk, |id| {
                    dispatch::sad(qcodes, row(codes, d, id)) as f64 * scale + offset
                });
            }
            Storage::Pq { codes, cb } => {
                // One ADC lookup table per query (m × ksub exact subvector
                // distances); every scanned row is then m table lookups,
                // no decode.
                cb.build_lut_into(query, lut);
                let (lut, stride) = (&lut[..], cb.code_stride());
                scan_lists(lists, topk, |id| {
                    cb.lut_distance(lut, row(codes, stride, id))
                });
            }
        }
    }
}

/// Row `id` of a row-major table of `stride`-wide rows.
#[inline]
fn row<T>(table: &[T], stride: usize, id: u32) -> &[T] {
    &table[id as usize * stride..(id as usize + 1) * stride]
}

/// Every SQ8 or PQ list through the one gather loop, sharing one
/// distance closure.
fn scan_lists<'a>(
    lists: impl Iterator<Item = (usize, &'a [u32])>,
    topk: &mut TopK,
    mut dist_of: impl FnMut(u32) -> f64,
) {
    for (_, ids) in lists {
        kernels::scan_ids_by(ids, topk, &mut dist_of);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexOptions, IvfIndex, Metric};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_tensor::{Shape, Tensor};

    /// The distance a scan must offer for row `id`, through the public
    /// per-row functions over the storage's own rows. The SQ8 arm is the
    /// element-at-a-time reference sum, not the blocked one the scan runs.
    fn row_distance(s: &Storage, q: &[f32], id: u32) -> f64 {
        let d = q.len();
        match s {
            Storage::F32 { .. } => {
                let mut row = Vec::new();
                s.decode_row_into(id, d, &mut row);
                Metric::L1.dist(q, &row)
            }
            Storage::Sq8 { codes, cb } => {
                let mut qcodes = Vec::new();
                cb.encode_into(q, &mut qcodes);
                let (scale, codes) = (f64::from(cb.scale), row(codes, d, id));
                dispatch::sad_scalar(&qcodes, codes) as f64 * scale + cb.l1_to_box(q)
            }
            Storage::Pq { codes, cb } => {
                let mut lut = Vec::new();
                cb.build_lut_into(q, &mut lut);
                cb.lut_distance(&lut, row(codes, cb.code_stride(), id))
            }
        }
    }

    #[test]
    fn full_probe_search_is_the_sort_of_the_per_row_distance() {
        let (n, d, k) = (160, 12, 9);
        let mut rng = StdRng::seed_from_u64(90);
        let table = Tensor::randn(Shape::d2(n, d), 0.0, 1.0, &mut rng);
        let queries = Tensor::randn(Shape::d2(3, d), 0.0, 1.0, &mut rng);
        let storages = [
            Quantization::None,
            Quantization::Sq8,
            Quantization::Pq { m: 4 },
            Quantization::Pq { m: 5 },
        ];
        for quantization in storages {
            for nlist in [None, Some(6)] {
                let opts = IndexOptions {
                    nlist,
                    quantization,
                    ..IndexOptions::default()
                };
                let index = IvfIndex::build_with(&table, Metric::L1, &opts, &mut rng);
                for qi in 0..queries.shape().rows() {
                    let q = queries.row(qi);
                    let mut want: Vec<(u32, f64)> = (0..n as u32)
                        .map(|id| (id, row_distance(index.storage(), q, id)))
                        .collect();
                    want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    want.truncate(k);
                    assert_eq!(
                        index.search(q, k, index.nlist()),
                        want,
                        "{quantization:?} nlist {nlist:?}"
                    );
                }
            }
        }
    }

    /// A `d`-wide row of one of six kinds: three ordinary, one with a NaN,
    /// one with a ±∞, and one of signed zeros and values near `f32::MAX`
    /// (two of them overflow a sum to +∞).
    fn edge_row(d: usize, rng: &mut StdRng) -> Vec<f32> {
        let kind = rng.gen_range(0u32..6);
        let mut row: Vec<f32> = (0..d).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let at = rng.gen_range(0..d);
        match kind {
            3 => row[at] = f32::NAN,
            4 => {
                row[at] = if rng.gen_bool(0.5) {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                }
            }
            5 => {
                for v in &mut row {
                    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    *v = sign
                        * if rng.gen_bool(0.5) {
                            0.0
                        } else {
                            f32::MAX * 0.75
                        };
                }
            }
            _ => {}
        }
        row
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The f32 IVF at every `nprobe`, against the per-row reference:
        /// probe the `nprobe` nearest cells by (centroid distance, cell),
        /// then sort every probed row by (`l1_f32`, position). Lists of 0,
        /// 1, 7, 8, 9 and 33 rows cover empty lists, lone and ragged blocks
        /// and one four-block group; ids and distance bits must match.
        #[test]
        fn f32_partial_probes_answer_as_the_per_row_reference(
            seed in 0u64..1_000_000,
            d in 1usize..20,
            nlist in 1usize..7,
        ) {
            const SIZES: [usize; 6] = [0, 1, 7, 8, 9, 33];
            let mut rng = StdRng::seed_from_u64(seed);
            let sizes: Vec<usize> = (0..nlist).map(|_| SIZES[rng.gen_range(0..6)]).collect();
            let n: usize = sizes.iter().sum();
            if n == 0 {
                return;
            }
            let data: Vec<f32> = (0..n).flat_map(|_| edge_row(d, &mut rng)).collect();
            let mut positions: Vec<u32> = (0..n as u32).collect();
            positions.shuffle(&mut rng);
            let mut rest = &positions[..];
            let lists: Vec<Vec<u32>> = sizes
                .iter()
                .map(|&len| {
                    let (list, tail) = rest.split_at(len);
                    rest = tail;
                    let mut list = list.to_vec();
                    list.sort_unstable();
                    list
                })
                .collect();
            // Ordinary centroids, with a duplicate now and then so the
            // cell tie-break decides.
            let mut centroids: Vec<f32> = (0..nlist * d).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            if nlist > 1 && rng.gen_bool(0.3) {
                centroids.copy_within(0..d, d);
            }
            let opts = IndexOptions::default();
            let index = IvfIndex::from_lists(&data, d, &centroids, lists.clone(), &opts, &mut rng);
            let row = |id: usize| &data[id * d..(id + 1) * d];
            for id in 0..n {
                let mut back = Vec::new();
                index.decode_vector_into(id as u32, &mut back);
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&back), bits(row(id)), "row {}", id);
            }
            let mut query: Vec<f32> = (0..d).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
            if rng.gen_bool(0.1) {
                query[d / 2] = f32::NAN;
            }
            let mut cells: Vec<(f32, usize)> = centroids
                .chunks_exact(d)
                .map(|c| kernels::l1_f32(&query, c))
                .zip(0..)
                .collect();
            cells.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for nprobe in 1..=nlist + 1 {
                let probed = cells.iter().take(nprobe).flat_map(|&(_, c)| &lists[c]);
                let mut want: Vec<(u32, u64)> = probed
                    .map(|&id| (id, Metric::L1.dist(&query, row(id as usize)).to_bits()))
                    .collect();
                want.sort_by(|a, b| {
                    let (x, y) = (f64::from_bits(a.1), f64::from_bits(b.1));
                    x.total_cmp(&y).then(a.0.cmp(&b.0))
                });
                for k in [1, 4, n, n + 2] {
                    let got: Vec<(u32, u64)> = index
                        .search(&query, k, nprobe)
                        .into_iter()
                        .map(|(id, dist)| (id, dist.to_bits()))
                        .collect();
                    let want = &want[..k.min(want.len())];
                    prop_assert_eq!(got, want, "nprobe {} k {} sizes {:?}", nprobe, k, sizes);
                }
            }
        }
    }
}
