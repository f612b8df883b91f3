//! Deterministic, stream-split randomness.
//!
//! Every stochastic quantity in the reproduction (world-switch jitter,
//! per-byte hash-rate jitter, cross-core publication delay, SATIN's random
//! wake-up deviation, random area choice, …) draws from a [`SimRng`] derived
//! from a single master seed, so an entire experiment is reproducible from one
//! `u64`. Independent subsystems take independent *streams* from a
//! [`RngFactory`] so that adding a draw in one subsystem does not perturb the
//! sequence seen by another.

/// A deterministic random number generator for simulation components.
///
/// Self-contained xoshiro256++ generator (seeded through a SplitMix64
/// expansion, the initialization the xoshiro authors recommend) with a few
/// convenience draws used throughout the reproduction. Carrying our own
/// generator keeps the workspace free of registry dependencies and pins the
/// stream bit-for-bit across toolchains.
///
/// # Example
///
/// ```
/// use satin_sim::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state; the
        // all-zero state (unreachable from SplitMix64) would be a fixed point.
        let mut z = seed;
        let mut next = || {
            let out = splitmix64(z);
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            out
        };
        SimRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    pub(crate) fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub(crate) fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        lo + self.uniform_f64() * (hi - lo)
    }

    /// Uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    // `m as u64` keeps the low half of the product on purpose: that is
    // Lemire's rejection test.
    #[allow(clippy::cast_possible_truncation)]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SimRng::below(0)");
        // Lemire's multiply-shift with rejection: unbiased and branch-light.
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer draw in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.uniform_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            // below(i + 1) <= i < slice.len(), a usize.
            #[allow(clippy::cast_possible_truncation)]
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element index of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    // below(len) < len, a usize.
    #[allow(clippy::cast_possible_truncation)]
    pub fn pick_index<T>(&mut self, slice: &[T]) -> usize {
        assert!(!slice.is_empty(), "SimRng::pick_index on empty slice");
        self.below(slice.len() as u64) as usize
    }
}

/// Derives independent [`SimRng`] streams from a single master seed.
///
/// Streams are identified by a label so that experiment code reads as
/// `factory.stream("prober")`, and the derivation is stable across runs.
///
/// # Example
///
/// ```
/// use satin_sim::RngFactory;
/// let f = RngFactory::new(7);
/// let mut a1 = f.stream("timing");
/// let mut a2 = f.stream("timing");
/// let mut b = f.stream("prober");
/// assert_eq!(a1.next_u64(), a2.next_u64());
/// assert_ne!(a1.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// Creates a factory from a master seed.
    pub const fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// Derives the stream named `label`.
    pub fn stream(&self, label: &str) -> SimRng {
        SimRng::seed_from(splitmix64(self.master_seed ^ fnv1a64(label.as_bytes())))
    }

    /// Derives a numbered sub-stream, e.g. one per repetition round.
    #[cfg(test)]
    pub(crate) fn substream(&self, label: &str, index: u64) -> SimRng {
        let base = self.master_seed ^ fnv1a64(label.as_bytes());
        SimRng::seed_from(splitmix64(base.wrapping_add(splitmix64(index))))
    }
}

/// 64-bit FNV-1a over bytes; used only for stable label→seed derivation.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer; decorrelates nearby seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(1);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_independent_by_label() {
        let f = RngFactory::new(99);
        let x = f.stream("a").next_u64();
        let y = f.stream("b").next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn substreams_differ_by_index() {
        let f = RngFactory::new(5);
        assert_ne!(
            f.substream("round", 0).next_u64(),
            f.substream("round", 1).next_u64()
        );
    }

    #[test]
    fn uniform_range_in_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.uniform_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn below_and_int_range() {
        let mut rng = SimRng::seed_from(4);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
            let v = rng.int_range_inclusive(3, 5);
            assert!((3..=5).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::seed_from(0).below(0);
    }

    proptest! {
        #[test]
        fn prop_pick_index_in_bounds(len in 1usize..100, seed in 0u64..1000) {
            let v = vec![0u8; len];
            let idx = SimRng::seed_from(seed).pick_index(&v);
            prop_assert!(idx < len);
        }

        #[test]
        fn prop_shuffle_preserves_multiset(mut v in proptest::collection::vec(0u8..8, 0..64), seed: u64) {
            let mut expected = v.clone();
            SimRng::seed_from(seed).shuffle(&mut v);
            expected.sort_unstable();
            v.sort_unstable();
            prop_assert_eq!(v, expected);
        }
    }
}
