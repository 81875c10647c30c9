//! Offline drop-in subset of the `proptest` API.
//!
//! Supports what the workspace's property tests use: range and tuple
//! strategies, `prop::collection::vec`, `prop_map`, the `proptest!` macro
//! with an optional `#![proptest_config(...)]` header and attributes (doc
//! comments included) on each property, and the `prop_assert*` macros. Cases are generated from a deterministic
//! per-test RNG; failing cases are reported with their case index but NOT
//! shrunk (rerun with the printed seed logic to reproduce — generation is
//! pure in the test name and case index).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Value-generation strategy.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy!((A, B), (A, B, C), (A, B, C, D));

/// Collection size specification: an exact count or a range of counts.
pub trait SizeBounds {
    /// Draws a size.
    fn sample_size(&self, rng: &mut StdRng) -> usize;
}

impl SizeBounds for usize {
    fn sample_size(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

impl SizeBounds for std::ops::Range<usize> {
    fn sample_size(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeBounds for std::ops::RangeInclusive<usize> {
    fn sample_size(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// Strategy namespace mirroring `proptest::prelude::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeBounds, Strategy};
        use rand::rngs::StdRng;

        /// Strategy for `Vec<S::Value>` with the given size bounds.
        pub struct VecStrategy<S, Z> {
            elem: S,
            size: Z,
        }

        /// Vector strategy from an element strategy and a size (exact
        /// `usize` or `Range<usize>`).
        pub fn vec<S: Strategy, Z: SizeBounds>(elem: S, size: Z) -> VecStrategy<S, Z> {
            VecStrategy { elem, size }
        }

        impl<S: Strategy, Z: SizeBounds> Strategy for VecStrategy<S, Z> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let n = self.size.sample_size(rng);
                (0..n).map(|_| self.elem.sample(rng)).collect()
            }
        }
    }
}

/// Per-block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic per-test RNG: seeded from the test's name so adding or
/// reordering sibling tests never changes a test's cases.
pub fn rng_for(test_name: &str) -> StdRng {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h)
}

/// Everything the tests import.
pub mod prelude {
    pub use super::{prop, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts inside a `proptest!` body (panics with case context).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Defines property tests: each listed function runs `cases` random cases.
/// A function's attributes — its `#[test]`, and doc comments or any other
/// attribute written before it — are kept on the generated test.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cfg.cases {
                    $( let $arg = $crate::Strategy::sample(&($strat), &mut rng); )+
                    let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        $body
                    }));
                    if let Err(payload) = result {
                        eprintln!(
                            "proptest case {case}/{} failed for `{}`",
                            cfg.cases,
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (f64, f64)> {
        (0.0f64..10.0, 5.0f64..6.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 1.0f64..2.0, n in 3usize..7) {
            prop_assert!((1.0..2.0).contains(&x));
            prop_assert!((3..7).contains(&n));
        }

        #[test]
        fn vec_and_map_compose(v in prop::collection::vec(0.0f32..1.0, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }

        #[test]
        fn tuple_and_named_strategy(p in arb_pair()) {
            prop_assert!(p.0 < 10.0);
            prop_assert_eq!(p.1.floor(), 5.0);
        }

        #[test]
        fn exact_size_vec(v in prop::collection::vec(0u32..9, 4)) {
            prop_assert_eq!(v.len(), 4);
        }

        /// A doc comment and a second attribute before the function. The
        /// failing body passes only if `should_panic` reached the
        /// generated test.
        #[test]
        #[should_panic(expected = "attributes reach the generated test")]
        fn documented_property_keeps_its_attributes(n in 0u8..4) {
            prop_assert!(n > 9, "attributes reach the generated test");
        }
    }

    #[test]
    fn prop_map_applies() {
        let s = (0usize..5).prop_map(|x| x * 2);
        let mut rng = super::rng_for("prop_map_applies");
        for _ in 0..50 {
            let v = s.sample(&mut rng);
            assert!(v % 2 == 0 && v < 10);
        }
    }
}
