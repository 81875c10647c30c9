//! The SQ8 scan's byte kernel, and the process-wide dispatch report.
//!
//! The SQ8 scan (`Storage::scan`) works in the byte domain: the sum of
//! absolute differences between two `u8` code rows. [`sad`] is one
//! portable body for every CPU. It sums 32-byte blocks in `u32` and
//! widens each block into a `u64` total, a shape the compiler lowers to
//! `psadbw` at the baseline x86-64 target, so there is no hand-written
//! copy per CPU level and no function pointer to pick one. The sums are
//! exact integers, so every CPU returns the same bits.
//!
//! The dispatch level itself — feature detection, the
//! `TRAJCL_FORCE_SCALAR` override, one decision per process — lives in
//! [`trajcl_tensor::cpu`]. It picks the encoder's f32 kernels and, in this
//! crate, the copy of the write buffer's blocked L1 scan
//! ([`super::l1_scan_columns`]: AVX2 or baseline). It is re-exported here
//! so `kernels::dispatch::{level, description, …}` keep resolving for the
//! callers that report it.

pub use trajcl_tensor::cpu::{description, forced_scalar, level, DispatchLevel};

/// Bytes summed per block: each block's sum (≤ 32 · 255) is exact in
/// `u32` before it is widened into the `u64` total.
const BLOCK: usize = 32;

/// Sum of absolute differences, `Σ |a_i − b_i|` over equal-length byte
/// rows, exact in `u64`.
#[inline]
pub fn sad(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(BLOCK);
    let mut cb = b.chunks_exact(BLOCK);
    let mut total = 0u64;
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        let block: u32 = xa
            .iter()
            .zip(xb)
            .map(|(&x, &y)| u32::from(x.abs_diff(y)))
            .sum();
        total += u64::from(block);
    }
    total + sad_scalar(ca.remainder(), cb.remainder())
}

/// The element-at-a-time reference [`sad`] must match bit for bit; `sad`
/// also runs it on the bytes after its last whole block.
#[inline]
pub fn sad_scalar(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u64::from(x.abs_diff(y)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn randb(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..=255u8)).collect()
    }

    /// `Σ |a_i − b_i|` through signed arithmetic, no shared code.
    fn naive(a: &[u8], b: &[u8]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (i32::from(x) - i32::from(y)).unsigned_abs() as u64)
            .sum()
    }

    #[test]
    fn scalar_kernels_match_naive_reference() {
        for n in [0usize, 1, 7, 31, 32, 33, 63, 64, 65, 200] {
            let a = randb(n, n as u64);
            let b = randb(n, n as u64 + 7);
            assert_eq!(sad_scalar(&a, &b), naive(&a, &b), "sad n={n}");
        }
    }

    #[test]
    fn sad_matches_naive_reference_at_every_length() {
        // Every length up to 300 covers empty rows, tails of every size
        // and several whole blocks; all-0 against all-255 is the largest
        // sum each length can produce.
        for n in 0..=300usize {
            let a = randb(n, 1000 + n as u64);
            let b = randb(n, 2000 + n as u64);
            assert_eq!(sad(&a, &b), naive(&a, &b), "random n={n}");
            let (lo, hi) = (vec![0u8; n], vec![255u8; n]);
            assert_eq!(sad(&lo, &hi), n as u64 * 255, "saturated n={n}");
            assert_eq!(sad(&hi, &lo), n as u64 * 255, "saturated n={n}");
        }
    }
}
