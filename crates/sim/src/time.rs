//! Virtual time: nanosecond-resolution instants and durations.
//!
//! The simulator never consults the wall clock. All timing constants in the
//! reproduction are taken from the SATIN paper's measurements and expressed as
//! [`SimDuration`] values; [`SimTime`] is an instant measured from simulated
//! boot (time zero).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulated boot.
///
/// `SimTime` is a monotone, totally ordered newtype over `u64`. It is the only
/// clock in the reproduction: every measurement the paper made with the Juno
/// board's counters is made here against `SimTime`.
///
/// # Example
///
/// ```
/// use satin_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_nanos(), 5_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use satin_sim::SimDuration;
/// let d = SimDuration::from_secs_f64(6.67e-9);
/// assert_eq!(d.as_nanos(), 7); // rounds up: never under-bill simulated work
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulated boot instant.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after boot.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after boot.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after boot.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after boot.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since boot.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since boot as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier > self` (simulated time cannot run
    /// backwards); saturates in release builds.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Checked addition of a duration; `None` on overflow.
    #[cfg(test)]
    pub(crate) fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    #[cfg(test)]
    pub(crate) const MAX: SimDuration = SimDuration(u64::MAX);

    /// A duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// A duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// A duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// A duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Converts a floating-point number of seconds, rounding *up* to the next
    /// nanosecond so that simulated work is never under-billed.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    // The asserts bound `nanos` to [0, u64::MAX], so the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64: invalid seconds value {secs}"
        );
        let nanos = secs * 1e9;
        assert!(
            nanos <= u64::MAX as f64,
            "SimDuration::from_secs_f64: {secs}s overflows"
        );
        // The ceiling in integers (`f64::ceil` is a library call on the
        // x86-64 baseline). Below 2^53 the truncation and its round trip are
        // exact, so `t + 1` is taken exactly when `nanos` has a fraction; at
        // and above 2^53 every f64 is whole and `t` is already the ceiling
        // (2^64 saturates to `u64::MAX`).
        let t = nanos as u64;
        SimDuration(if (t as f64) < nanos { t + 1 } else { t })
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Checked multiplication by an integer count; `None` on overflow.
    #[cfg(test)]
    pub(crate) fn checked_mul(self, count: u64) -> Option<SimDuration> {
        self.0.checked_mul(count).map(SimDuration)
    }

    /// `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(4).as_nanos(), 4_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn from_secs_f64_rounds_up() {
        // The paper's fastest per-byte rate is 6.67e-9 s; it must not round to 6ns.
        assert_eq!(SimDuration::from_secs_f64(6.67e-9).as_nanos(), 7);
        assert_eq!(SimDuration::from_secs_f64(0.0).as_nanos(), 0);
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
    }

    /// Seconds values that stress the integer ceiling: arbitrary bit
    /// patterns, ordinary ranges, whole nanoseconds, the 2^53 boundary where
    /// f64 stops having fractions, and the top of the valid range.
    struct SecsStrategy;

    impl proptest::Strategy for SecsStrategy {
        type Value = f64;
        fn sample(&self, rng: &mut proptest::TestRng) -> f64 {
            const TOP: f64 = u64::MAX as f64 / 1e9;
            let two53 = (1u64 << 53) as f64;
            match rng.below(7) {
                0 => f64::from_bits(rng.next_u64()).abs(),
                1 => rng.uniform_f64() * 1e-3,
                2 => rng.uniform_f64() * 100.0,
                3 => rng.below(1 << 60) as f64 / 1e9,
                4 => (two53 + (rng.below(64) as f64 - 32.0)) / 1e9,
                5 => TOP * (1.0 - rng.uniform_f64() * 1e-12),
                _ => f64::from_bits(TOP.to_bits() - rng.below(8)),
            }
        }
    }

    proptest::proptest! {
        /// The integer ceiling equals the `f64::ceil` reference for every
        /// input the asserts accept.
        #[test]
        fn prop_from_secs_f64_matches_float_ceil(secs in SecsStrategy) {
            let nanos = secs * 1e9;
            if secs.is_finite() && nanos <= u64::MAX as f64 {
                let reference = nanos.ceil() as u64;
                proptest::prop_assert_eq!(SimDuration::from_secs_f64(secs).as_nanos(), reference);
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(4);
        assert_eq!((t + d).as_nanos(), 14_000);
        assert_eq!((t - d).as_nanos(), 6_000);
        assert_eq!(((t + d) - t).as_nanos(), 4_000);
        assert_eq!((d * 3).as_nanos(), 12_000);
        assert_eq!((d / 2).as_nanos(), 2_000);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_nanos(), 4);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn ordering_and_max_of() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max_of(b), b);
        assert_eq!(b.max_of(a), b);
    }

    #[test]
    fn checked_ops() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert!(SimDuration::MAX.checked_mul(2).is_none());
        assert_eq!(
            SimDuration::from_nanos(3).checked_mul(3),
            Some(SimDuration::from_nanos(9))
        );
    }
}
