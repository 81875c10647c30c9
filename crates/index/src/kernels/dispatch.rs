//! Runtime CPU dispatch for the integer scan kernels.
//!
//! The SQ8 scan (`Storage::scan`) works in the byte domain: sum of
//! absolute (or squared) differences between two `u8` code rows, widened
//! into integer accumulators. That shape maps
//! onto dedicated x86 instructions — `vpsadbw` sums 32 absolute byte
//! differences per instruction — so this module runs the widest
//! implementation the process-wide dispatch level allows:
//!
//! | level | SAD / SSD width |
//! |---|---|
//! | `Avx512` | 64 bytes per iteration |
//! | `Avx2` | 32 bytes per iteration |
//! | `Scalar` | portable Rust, auto-vectorized |
//!
//! The level itself — feature detection, the `TRAJCL_FORCE_SCALAR`
//! override, one decision per process — lives in [`trajcl_tensor::cpu`],
//! shared with the encoder's f32 kernels, and is re-exported here so
//! `kernels::dispatch::{level, select, description, …}` keep resolving.
//!
//! Every implementation returns **bit-identical integer results**: the
//! sums are exact (no floating-point reassociation), so a search executed
//! under any dispatch level produces the same candidates in the same
//! order. The scalar-vs-SIMD equivalence tests in this module assert
//! exactly that.
//!
//! Accumulator ranges: per element the L1 difference is ≤ 255 and the
//! squared difference ≤ 65 025, so a `u64` accumulator is exact for any
//! practical dimensionality; the AVX2/AVX-512 SSD paths accumulate
//! 16-bit `madd` products in 32-bit lanes, which stays exact below
//! `d ≈ 2^24` — far above any embedding width this crate handles
//! (debug-asserted at the entry points).

pub use trajcl_tensor::cpu::{description, forced_scalar, level, select, DispatchLevel};

/// Sum-of-absolute-differences / sum-of-squared-differences function
/// over two equal-length byte slices.
pub type ByteDistFn = fn(&[u8], &[u8]) -> u64;

/// The sum-of-absolute-differences kernel for the current dispatch level.
/// Resolve once per scan, not per row.
#[inline]
pub fn sad_fn() -> ByteDistFn {
    match level() {
        DispatchLevel::Scalar => sad_scalar,
        #[cfg(target_arch = "x86_64")]
        DispatchLevel::Avx2 => x86::sad_avx2_entry,
        #[cfg(target_arch = "x86_64")]
        DispatchLevel::Avx512 => x86::sad_avx512_entry,
        #[cfg(not(target_arch = "x86_64"))]
        _ => sad_scalar,
    }
}

/// The sum-of-squared-differences kernel for the current dispatch level.
/// Resolve once per scan, not per row.
#[inline]
pub fn ssd_fn() -> ByteDistFn {
    match level() {
        DispatchLevel::Scalar => ssd_scalar,
        #[cfg(target_arch = "x86_64")]
        DispatchLevel::Avx2 => x86::ssd_avx2_entry,
        #[cfg(target_arch = "x86_64")]
        DispatchLevel::Avx512 => x86::ssd_avx512_entry,
        #[cfg(not(target_arch = "x86_64"))]
        _ => ssd_scalar,
    }
}

/// Portable SAD: `Σ |a_i − b_i|` over bytes, exact in `u64`. The
/// reference implementation every SIMD path must match bit-for-bit.
pub fn sad_scalar(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u64::from(x.abs_diff(y)))
        .sum()
}

/// Portable SSD: `Σ (a_i − b_i)²` over bytes, exact in `u64`.
pub fn ssd_scalar(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = u64::from(x.abs_diff(y));
            d * d
        })
        .sum()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `std::arch` implementations. Structure of every kernel: process
    //! full-width chunks with unaligned loads, fold the vector
    //! accumulator horizontally, finish the tail with the scalar
    //! reference. All arithmetic is integer, so results are bit-identical
    //! to the scalar kernels.

    use std::arch::x86_64::*;

    use super::{sad_scalar, ssd_scalar};

    /// Plain-`fn` entry for the dispatch table (a `#[target_feature]`
    /// function cannot coerce to a function pointer).
    pub fn sad_avx2_entry(a: &[u8], b: &[u8]) -> u64 {
        // SAFETY: this entry is only installed by `sad_fn` after
        // `is_x86_feature_detected!("avx2")` returned true in `select`.
        unsafe { sad_avx2(a, b) }
    }

    /// See [`sad_avx2_entry`].
    pub fn ssd_avx2_entry(a: &[u8], b: &[u8]) -> u64 {
        // SAFETY: installed by `ssd_fn` only after AVX2 was detected.
        unsafe { ssd_avx2(a, b) }
    }

    /// See [`sad_avx2_entry`].
    pub fn sad_avx512_entry(a: &[u8], b: &[u8]) -> u64 {
        // SAFETY: installed by `sad_fn` only after `avx512bw` (which
        // implies `avx512f`) was detected.
        unsafe { sad_avx512(a, b) }
    }

    /// See [`sad_avx2_entry`].
    pub fn ssd_avx512_entry(a: &[u8], b: &[u8]) -> u64 {
        // SAFETY: installed by `ssd_fn` only after `avx512bw` was
        // detected.
        unsafe { ssd_avx512(a, b) }
    }

    /// AVX2 SAD: one `vpsadbw` per 32-byte chunk yields four u64 partial
    /// sums, accumulated with `vpaddq` — exact, no overflow possible
    /// (each partial grows by ≤ 8·255 per chunk).
    #[target_feature(enable = "avx2")]
    fn sad_avx2(a: &[u8], b: &[u8]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = _mm256_setzero_si256();
        let mut ca = a.chunks_exact(32);
        let mut cb = b.chunks_exact(32);
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            // SAFETY: `xa`/`xb` are exactly 32 bytes (`chunks_exact`),
            // and `loadu` has no alignment requirement.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(xa.as_ptr() as *const __m256i),
                    _mm256_loadu_si256(xb.as_ptr() as *const __m256i),
                )
            };
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
        }
        hsum_epi64_avx2(acc) + sad_scalar(ca.remainder(), cb.remainder())
    }

    /// AVX2 SSD: absolute byte differences (the unsigned-saturating
    /// subtraction trick), widened to 16 bits, squared-and-paired with
    /// `vpmaddwd` into 32-bit lanes, then widened to u64 per chunk so
    /// the running sum can never wrap.
    #[target_feature(enable = "avx2")]
    fn ssd_avx2(a: &[u8], b: &[u8]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let zero = _mm256_setzero_si256();
        let mut acc = zero;
        let mut ca = a.chunks_exact(32);
        let mut cb = b.chunks_exact(32);
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            // SAFETY: `xa`/`xb` are exactly 32 bytes (`chunks_exact`),
            // and `loadu` has no alignment requirement.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(xa.as_ptr() as *const __m256i),
                    _mm256_loadu_si256(xb.as_ptr() as *const __m256i),
                )
            };
            // |a - b| per byte: max(a -sat- b, b -sat- a).
            let ad = _mm256_or_si256(_mm256_subs_epu8(va, vb), _mm256_subs_epu8(vb, va));
            // Widen to u16 (interleave with zero; lane order is
            // irrelevant for a sum), square-and-add pairs into i32.
            let lo = _mm256_unpacklo_epi8(ad, zero);
            let hi = _mm256_unpackhi_epi8(ad, zero);
            let sq = _mm256_add_epi32(_mm256_madd_epi16(lo, lo), _mm256_madd_epi16(hi, hi));
            // Widen the eight i32 partials to u64 before accumulating:
            // per chunk each partial is ≤ 4·255² < 2^19, far below i32
            // range, and the u64 accumulator never wraps.
            acc = _mm256_add_epi64(acc, _mm256_unpacklo_epi32(sq, zero));
            acc = _mm256_add_epi64(acc, _mm256_unpackhi_epi32(sq, zero));
        }
        hsum_epi64_avx2(acc) + ssd_scalar(ca.remainder(), cb.remainder())
    }

    /// Horizontal sum of the four u64 lanes of an AVX2 accumulator.
    #[target_feature(enable = "avx2")]
    fn hsum_epi64_avx2(v: __m256i) -> u64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi64(lo, hi);
        let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
        _mm_cvtsi128_si64(s) as u64
    }

    /// AVX-512 SAD: `vpsadbw` over 64-byte chunks (eight u64 partials
    /// per register), AVX2 tail via the 32-byte kernel logic folded into
    /// the scalar remainder for simplicity.
    #[target_feature(enable = "avx512bw")]
    fn sad_avx512(a: &[u8], b: &[u8]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = _mm512_setzero_si512();
        let mut ca = a.chunks_exact(64);
        let mut cb = b.chunks_exact(64);
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            // SAFETY: `xa`/`xb` are exactly 64 bytes (`chunks_exact`),
            // and `loadu` has no alignment requirement.
            let (va, vb) = unsafe {
                (
                    _mm512_loadu_si512(xa.as_ptr() as *const __m512i),
                    _mm512_loadu_si512(xb.as_ptr() as *const __m512i),
                )
            };
            acc = _mm512_add_epi64(acc, _mm512_sad_epu8(va, vb));
        }
        _mm512_reduce_add_epi64(acc) as u64 + sad_scalar(ca.remainder(), cb.remainder())
    }

    /// AVX-512 SSD: same shape as the AVX2 kernel at 64-byte width.
    #[target_feature(enable = "avx512bw")]
    fn ssd_avx512(a: &[u8], b: &[u8]) -> u64 {
        debug_assert_eq!(a.len(), b.len());
        let zero = _mm512_setzero_si512();
        let mut acc = zero;
        let mut ca = a.chunks_exact(64);
        let mut cb = b.chunks_exact(64);
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            // SAFETY: `xa`/`xb` are exactly 64 bytes (`chunks_exact`),
            // and `loadu` has no alignment requirement.
            let (va, vb) = unsafe {
                (
                    _mm512_loadu_si512(xa.as_ptr() as *const __m512i),
                    _mm512_loadu_si512(xb.as_ptr() as *const __m512i),
                )
            };
            let ad = _mm512_or_si512(_mm512_subs_epu8(va, vb), _mm512_subs_epu8(vb, va));
            let lo = _mm512_unpacklo_epi8(ad, zero);
            let hi = _mm512_unpackhi_epi8(ad, zero);
            let sq = _mm512_add_epi32(_mm512_madd_epi16(lo, lo), _mm512_madd_epi16(hi, hi));
            acc = _mm512_add_epi64(acc, _mm512_unpacklo_epi32(sq, zero));
            acc = _mm512_add_epi64(acc, _mm512_unpackhi_epi32(sq, zero));
        }
        _mm512_reduce_add_epi64(acc) as u64 + ssd_scalar(ca.remainder(), cb.remainder())
    }
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

    #[test]
    fn scalar_kernels_match_naive_reference() {
        for n in [0usize, 1, 7, 31, 32, 33, 63, 64, 65, 200] {
            let a = randb(n, n as u64);
            let b = randb(n, n as u64 + 7);
            let sad: u64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (i32::from(x) - i32::from(y)).unsigned_abs() as u64)
                .sum();
            let ssd: u64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| {
                    let d = (i32::from(x) - i32::from(y)) as i64;
                    (d * d) as u64
                })
                .sum();
            assert_eq!(sad_scalar(&a, &b), sad, "sad n={n}");
            assert_eq!(ssd_scalar(&a, &b), ssd, "ssd n={n}");
        }
    }

    #[test]
    fn dispatched_kernels_are_bit_identical_to_scalar() {
        // Whatever `level()` resolved to in this process (native SIMD on
        // the default CI leg, scalar on the TRAJCL_FORCE_SCALAR leg),
        // the dispatched function must agree with the reference exactly
        // — including odd lengths that exercise every tail path.
        let (sad, ssd) = (sad_fn(), ssd_fn());
        for n in [0usize, 1, 15, 31, 32, 33, 63, 64, 65, 100, 127, 129, 513] {
            let a = randb(n, 1000 + n as u64);
            let b = randb(n, 2000 + n as u64);
            assert_eq!(
                sad(&a, &b),
                sad_scalar(&a, &b),
                "sad n={n} ({})",
                description()
            );
            assert_eq!(
                ssd(&a, &b),
                ssd_scalar(&a, &b),
                "ssd n={n} ({})",
                description()
            );
        }
        // Saturation corners: all-0 vs all-255 rows.
        let a = vec![0u8; 97];
        let b = vec![255u8; 97];
        assert_eq!(sad(&a, &b), 97 * 255);
        assert_eq!(ssd(&a, &b), 97 * 255 * 255);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_levels_match_scalar_when_available() {
        // Probe every implementation the CPU supports directly, so the
        // native CI leg covers AVX2 and AVX-512 even when `level()`
        // picked only the widest one.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let n = rng.gen_range(0usize..300);
            let a = randb(n, rng.gen());
            let b = randb(n, rng.gen());
            // The entry wrappers are safe fns whose inner unsafe is
            // justified by feature detection — mirrored here.
            if std::arch::is_x86_feature_detected!("avx2") {
                assert_eq!(
                    x86::sad_avx2_entry(&a, &b),
                    sad_scalar(&a, &b),
                    "avx2 sad n={n}"
                );
                assert_eq!(
                    x86::ssd_avx2_entry(&a, &b),
                    ssd_scalar(&a, &b),
                    "avx2 ssd n={n}"
                );
            }
            if std::arch::is_x86_feature_detected!("avx512bw") {
                assert_eq!(
                    x86::sad_avx512_entry(&a, &b),
                    sad_scalar(&a, &b),
                    "avx512 sad n={n}"
                );
                assert_eq!(
                    x86::ssd_avx512_entry(&a, &b),
                    ssd_scalar(&a, &b),
                    "avx512 ssd n={n}"
                );
            }
        }
    }
}
