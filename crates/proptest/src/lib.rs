//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to a crate registry, so this crate
//! provides the subset of the proptest API the workspace's property tests
//! use, backed by a deterministic SplitMix64 case generator:
//!
//! - the [`proptest!`] macro with `pattern in strategy` and `name: Type`
//!   parameters;
//! - range strategies (`0u64..10_000`, `1u8..=99`, `0.0f64..1.0`);
//! - [`collection::vec`] and [`any`] (integers, floats, `bool`, `char`,
//!   `String`);
//! - [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Unlike upstream proptest there is no shrinking and no persistence: each
//! test runs a fixed number of cases from a seed derived from the test-name
//! hash, so failures reproduce exactly across runs.

use std::ops::{Range, RangeInclusive};

/// Number of cases each property test runs (upstream default: 256).
pub const CASES: u32 = 256;

/// Deterministic case-generator RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Derives the per-test seed from the test's name.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng::new(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer draw in `[0, n)` for `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        // Widening-multiply range reduction; the modulo bias over a u64
        // source is far below anything a 256-case test could observe.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

/// Values with a canonical "anything goes" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Strategy producing unconstrained values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.uniform_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                // 1/4096 of draws pin the inclusive endpoint so `..=hi`
                // actually exercises it.
                if rng.below(4096) == 0 {
                    hi
                } else {
                    lo + (rng.uniform_f64() as $t) * (hi - lo)
                }
            }
        }
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.uniform_f64() as $t
            }
        }
    )*};
}
float_strategies!(f32, f64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for char {
    /// Weighted toward what text formats must escape: a quarter plain
    /// ASCII (controls included), a quarter `"` or `\`, a quarter the
    /// Basic Multilingual Plane and a quarter any scalar value. A drawn
    /// surrogate becomes U+FFFD.
    fn arbitrary(rng: &mut TestRng) -> char {
        let x = rng.next_u64();
        let code = match x % 4 {
            0 => (x >> 2) % 0x80,
            1 if x & 4 == 0 => u64::from(b'"'),
            1 => u64::from(b'\\'),
            2 => (x >> 2) % 0x1_0000,
            _ => (x >> 2) % 0x11_0000,
        };
        char::from_u32(code as u32).unwrap_or('\u{fffd}')
    }
}

impl Arbitrary for String {
    /// Up to 32 [`char`] draws.
    fn arbitrary(rng: &mut TestRng) -> String {
        let len = rng.below(33);
        (0..len).map(|_| char::arbitrary(rng)).collect()
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident $idx:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}
tuple_strategies!(
    (A 0, B 1),
    (A 0, B 1, C 2),
    (A 0, B 1, C 2, D 3)
);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy producing `Vec`s with lengths drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// A vector of values from `element` with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::sample(&self.len, rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary,
        Strategy, TestRng,
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Defines property tests.
///
/// Each function body runs [`CASES`] times with parameters drawn from their
/// strategies; `name: Type` parameters draw from [`any`]. The case seed is
/// derived from the test name, so runs are deterministic.
#[macro_export]
macro_rules! proptest {
    // Entry: split the block into individual test functions.
    ($($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __rng = $crate::TestRng::for_test(stringify!($name));
                for __case in 0..$crate::CASES {
                    let _ = __case;
                    $crate::proptest!(@bind __rng, $($params)*);
                    $body
                }
            }
        )*
    };

    // Parameter munching: `pattern in strategy` (strategy is an expr, which
    // the parser ends at the separating comma) or `name: Type`.
    (@bind $rng:ident $(,)?) => {};
    (@bind $rng:ident, mut $var:ident in $strat:expr) => {
        #[allow(unused_mut)]
        let mut $var = $crate::Strategy::sample(&($strat), &mut $rng);
    };
    (@bind $rng:ident, mut $var:ident in $strat:expr, $($rest:tt)*) => {
        #[allow(unused_mut)]
        let mut $var = $crate::Strategy::sample(&($strat), &mut $rng);
        $crate::proptest!(@bind $rng, $($rest)*);
    };
    (@bind $rng:ident, $var:ident in $strat:expr) => {
        let $var = $crate::Strategy::sample(&($strat), &mut $rng);
    };
    (@bind $rng:ident, $var:ident in $strat:expr, $($rest:tt)*) => {
        let $var = $crate::Strategy::sample(&($strat), &mut $rng);
        $crate::proptest!(@bind $rng, $($rest)*);
    };
    (@bind $rng:ident, $var:ident : $ty:ty) => {
        let $var = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
    };
    (@bind $rng:ident, $var:ident : $ty:ty, $($rest:tt)*) => {
        let $var = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
        $crate::proptest!(@bind $rng, $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 1u8..=9, f in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=9).contains(&y));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_strategy_respects_len(v in collection::vec(any::<u8>(), 2..6), seed: u64) {
            let _ = seed;
            prop_assert!((2..6).contains(&v.len()));
        }

        #[test]
        fn mut_bindings_work(mut v in collection::vec(0u8..4, 0..8)) {
            v.push(9);
            prop_assert_eq!(*v.last().unwrap(), 9);
        }
    }
}
