//! The vector payload of an [`IvfIndex`](crate::IvfIndex) and every
//! decision that depends on how it is stored — the codec seam.
//!
//! [`Storage`] owns, for each variant: training and encoding
//! ([`encode`]), the per-row distance an inverted-list scan
//! offers ([`Storage::scan`]), row read-back
//! ([`Storage::decode_row_into`]) and memory accounting. `ivf.rs` keeps
//! what is IVF — centroids, lists, probing and the over-fetch a rescoring
//! caller asks for — and never looks at the variant. A fourth codec is
//! one more variant here, one more [`Quantization`] value and, if it
//! needs per-query state, one more field of [`ScanScratch`].

use rand::Rng;

use crate::ivf::Quantization;
use crate::kernels::{self, dispatch, PqCodebook, Sq8Codebook, TopK};

/// Exact rows, SQ8 codes or PQ codes, row-major by position.
pub(crate) enum Storage {
    F32(Vec<f32>),
    Sq8 { codes: Vec<u8>, cb: Sq8Codebook },
    Pq { codes: Vec<u8>, cb: PqCodebook },
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

/// Trains the codec `quantization` names over the `(n, d)` table
/// `data` and encodes every row; only PQ training draws from `rng`.
pub(crate) fn encode(
    quantization: Quantization,
    data: &[f32],
    d: usize,
    rng: &mut impl Rng,
) -> Storage {
    match quantization {
        Quantization::None => Storage::F32(data.to_vec()),
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
            Storage::F32(_) => Quantization::None,
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
            Storage::F32(rows) => dst.copy_from_slice(row(rows, d, id)),
            Storage::Sq8 { codes, cb } => cb.decode_into(row(codes, d, id), dst),
            Storage::Pq { codes, cb } => cb.decode_into(row(codes, cb.code_stride(), id), dst),
        }
    }

    /// Approximate resident bytes of the rows and their codebook.
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            Storage::F32(rows) => rows.len() * 4,
            Storage::Sq8 { codes, cb } => codes.len() + cb.memory_bytes(),
            Storage::Pq { codes, cb } => codes.len() + cb.memory_bytes(),
        }
    }

    /// Scans the rows `lists` name against `query` into `scratch.topk`
    /// (armed by the caller): every list goes through
    /// [`kernels::scan_ids_by`] with the per-row L1 distance picked once,
    /// here.
    pub(crate) fn scan<'a>(
        &self,
        d: usize,
        query: &[f32],
        lists: impl Iterator<Item = &'a [u32]>,
        scratch: &mut ScanScratch,
    ) {
        // Re-slice so `query.len() == d` is a fact inside this function:
        // the caller's length assert is out of sight once `scan` is not
        // inlined under it, and without it the f32 kernels keep their
        // per-row length reconciliation (measured: f32 search +25 %).
        let query = &query[..d];
        let ScanScratch { topk, lut, qcodes } = scratch;
        match self {
            Storage::F32(rows) => scan_lists(lists, topk, |id| {
                kernels::l1_f32(query, row(rows, d, id)) as f64
            }),
            Storage::Sq8 { codes, cb } => {
                // Codes against codes in the byte domain, no decode, exact
                // integer sums. Encoding clamps a query outside the
                // codebook's box, so the scan adds back the distance the
                // clamp removed, the same for every row.
                qcodes.clear();
                cb.encode_into(query, qcodes);
                let (scale, offset) = (f64::from(cb.scale), cb.l1_to_box(query));
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

/// Every list through the one gather loop, sharing one distance closure.
fn scan_lists<'a>(
    lists: impl Iterator<Item = &'a [u32]>,
    topk: &mut TopK,
    mut dist_of: impl FnMut(u32) -> f64,
) {
    for ids in lists {
        kernels::scan_ids_by(ids, topk, &mut dist_of);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexOptions, IvfIndex, Metric};
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_tensor::{Shape, Tensor};

    /// The distance a scan must offer for row `id`, through the public
    /// per-row functions over the storage's own rows. The SQ8 arm is the
    /// element-at-a-time reference sum, not the blocked one the scan runs.
    fn row_distance(s: &Storage, q: &[f32], id: u32) -> f64 {
        let d = q.len();
        match s {
            Storage::F32(rows) => Metric::L1.dist(q, row(rows, d, id)),
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
}
