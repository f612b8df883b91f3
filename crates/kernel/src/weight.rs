//! Linux's nice-to-weight table for CFS vruntime accounting.
//!
//! Taken from `kernel/sched/core.c` (`sched_prio_to_weight`): each nice level
//! is ~1.25× the CPU share of the next. vruntime advances as
//! `delta_exec * NICE_0_WEIGHT / weight`, so low-nice (heavy) tasks accrue
//! vruntime slowly and get picked more often.

/// Weight of a nice-0 task.
pub(crate) const NICE_0_WEIGHT: u64 = 1024;

/// `sched_prio_to_weight` from the Linux kernel, indexed by `nice + 20`.
pub(crate) const SCHED_PRIO_TO_WEIGHT: [u64; 40] = [
    88761, 71755, 56483, 46273, 36291, // -20 .. -16
    29154, 23254, 18705, 14949, 11916, // -15 .. -11
    9548, 7620, 6100, 4904, 3906, // -10 .. -6
    3121, 2501, 1991, 1586, 1277, // -5 .. -1
    1024, 820, 655, 526, 423, // 0 .. 4
    335, 272, 215, 172, 137, // 5 .. 9
    110, 87, 70, 56, 45, // 10 .. 14
    36, 29, 23, 18, 15, // 15 .. 19
];

/// The CFS weight of a nice value.
///
/// # Panics
///
/// Panics if `nice` is outside `[-20, 19]`.
///
/// # Example
///
/// ```
/// assert_eq!(satin_kernel::weight::weight_of(0), 1024);
/// assert_eq!(satin_kernel::weight::weight_of(-20), 88761);
/// assert_eq!(satin_kernel::weight::weight_of(19), 15);
/// ```
pub fn weight_of(nice: i8) -> u64 {
    assert!((-20..=19).contains(&nice), "nice {nice} out of range");
    SCHED_PRIO_TO_WEIGHT[(nice + 20) as usize]
}

/// Scales an execution time (ns) into weighted vruntime delta.
///
/// # Example
///
/// ```
/// // A nice-0 task accrues vruntime at wall rate:
/// assert_eq!(satin_kernel::weight::vruntime_delta(1000, 0), 1000);
/// // A heavy task accrues more slowly:
/// assert!(satin_kernel::weight::vruntime_delta(1000, -10) < 1000);
/// // A light task accrues faster:
/// assert!(satin_kernel::weight::vruntime_delta(1000, 10) > 1000);
/// ```
pub fn vruntime_delta(exec_ns: u64, nice: i8) -> u64 {
    let w = weight_of(nice);
    // delta = exec * NICE_0 / weight, in u128 to avoid overflow.
    ((exec_ns as u128 * NICE_0_WEIGHT as u128) / w as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_monotone_decreasing() {
        for w in SCHED_PRIO_TO_WEIGHT.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn ratio_is_about_1_25() {
        for w in SCHED_PRIO_TO_WEIGHT.windows(2) {
            let ratio = w[0] as f64 / w[1] as f64;
            assert!((1.1..1.4).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn nice_zero_is_identity() {
        assert_eq!(vruntime_delta(123_456, 0), 123_456);
    }

    #[test]
    fn extremes() {
        assert_eq!(weight_of(-20), 88761);
        assert_eq!(weight_of(19), 15);
        // nice 19 task accrues ~68x faster than nice 0.
        let d = vruntime_delta(1000, 19);
        assert!((60_000..80_000).contains(&d), "{d}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_nice_rejected() {
        weight_of(20);
    }

    #[test]
    fn no_overflow_on_large_exec() {
        // A year of ns at nice -20 must not overflow.
        let year_ns: u64 = 365 * 24 * 3600 * 1_000_000_000;
        let _ = vruntime_delta(year_ns, -20);
    }
}
