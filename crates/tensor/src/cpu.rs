//! The process-wide CPU dispatch decision, shared by every kernel family
//! in the workspace.
//!
//! The f32 kernels of this crate ([`crate::kernels`]: GEMM, softmax) and
//! the index's write-buffer L1 scan
//! (`trajcl_index::kernels::l1_scan_columns`) pick an implementation at
//! run time from one decision, made **once per process**;
//! `trajcl_index::kernels::dispatch` re-exports it so the benchmarks can
//! report it (the index's SQ8 byte kernel has one body at every level):
//!
//! | level | selected when | f32 kernels (GEMM, softmax, buffer L1 scan) |
//! |---|---|---|
//! | `Avx512` | `avx512bw` detected | the AVX2 copy |
//! | `Avx2` | `avx2` detected | the AVX2 copy |
//! | `Scalar` | fallback / forced | baseline copy |
//!
//! Detection uses [`std::arch::is_x86_feature_detected!`]; on non-x86_64
//! targets only the scalar level exists. Setting the environment variable
//! `TRAJCL_FORCE_SCALAR` (to anything but `0` or the empty string) pins
//! the scalar level regardless of CPU features — CI runs the test suites
//! once natively and once forced, so both sides of every dispatch stay
//! exercised. Every kernel returns **bit-identical results at every
//! level**, so a forward pass or a search executed under any of them
//! produces the same bytes.

use std::sync::OnceLock;

/// Which kernel implementation the process dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchLevel {
    /// Portable Rust (also the `TRAJCL_FORCE_SCALAR` path).
    Scalar,
    /// 256-bit vectors.
    Avx2,
    /// `avx512bw` detected; the f32 kernels run their AVX2 copy.
    Avx512,
}

impl DispatchLevel {
    /// Whether the f32 kernels may run their copy compiled with AVX2
    /// enabled: the level asks for vectors *and* the running CPU reports
    /// the feature. Checking the CPU here, not only in [`select`], is what
    /// keeps a hand-built `DispatchLevel::Avx2` from reaching an
    /// instruction the CPU lacks (the check is one cached atomic load).
    #[inline]
    pub fn runs_avx2(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            self != DispatchLevel::Scalar && std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }
}

/// `TRAJCL_FORCE_SCALAR` is honoured when set to anything but `"0"` or
/// the empty string.
fn env_force_scalar() -> bool {
    std::env::var_os("TRAJCL_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// The dispatch decision for a given override state: widest detected
/// feature set unless the scalar path is forced. Factored out of the
/// cached [`level`] so tests can probe both outcomes in one process.
pub fn select(force_scalar: bool) -> DispatchLevel {
    if force_scalar {
        return DispatchLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512bw") {
            return DispatchLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return DispatchLevel::Avx2;
        }
    }
    DispatchLevel::Scalar
}

/// The process-wide dispatch level (feature detection + the
/// `TRAJCL_FORCE_SCALAR` override, evaluated once and cached).
pub fn level() -> DispatchLevel {
    static LEVEL: OnceLock<DispatchLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| select(env_force_scalar()))
}

/// True when `TRAJCL_FORCE_SCALAR` pinned the scalar path (recorded in
/// bench reports so rows are comparable across boxes).
pub fn forced_scalar() -> bool {
    level() == DispatchLevel::Scalar && env_force_scalar()
}

/// Human-readable dispatch description for logs and bench JSON:
/// `"avx512"`, `"avx2"`, `"scalar"` or `"scalar(forced)"`.
pub fn description() -> &'static str {
    match (level(), forced_scalar()) {
        (_, true) => "scalar(forced)",
        (DispatchLevel::Avx512, _) => "avx512",
        (DispatchLevel::Avx2, _) => "avx2",
        (DispatchLevel::Scalar, _) => "scalar",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_honours_force_scalar_for_both_outcomes() {
        // `select(true)` is the TRAJCL_FORCE_SCALAR outcome; the forced
        // path must be scalar on every box. `select(false)` is the
        // native outcome — on x86_64 with SIMD it differs, elsewhere it
        // is scalar too. Both are valid dispatch results by construction.
        assert_eq!(select(true), DispatchLevel::Scalar);
        assert!(!select(true).runs_avx2());
        let native = select(false);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(native, DispatchLevel::Scalar);
        assert_eq!(native.runs_avx2(), native != DispatchLevel::Scalar);
        assert!(!description().is_empty());
    }
}
