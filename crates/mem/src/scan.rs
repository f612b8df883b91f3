//! In-flight scan observation: what does a sequential scanner actually see
//! when memory changes under it?
//!
//! The whole race condition of the paper (Figure 3, Equation 1) comes down to
//! one question: when the secure world scans `[base, base+len)` at a per-byte
//! rate `r` starting at `t0`, and the rootkit restores a malicious byte at
//! time `w`, does the scanner observe the malicious value or the restored
//! one? The answer is per byte: byte `k` is read at `t0 + k·r`, so the
//! scanner sees the value memory held *at that instant*.
//!
//! [`ScanWindow`] implements this exactly: it snapshots the range at scan
//! start, and each write that lands during the scan is applied only to the
//! bytes the scanner has **not yet passed** (read instant at or after the
//! write instant). The result is the byte string the scanner observed, which
//! the integrity checker then hashes. Equation 1 is therefore *emergent*: the
//! attacker escapes exactly when every malicious byte was restored before its
//! read instant.

use crate::addr::{MemRange, PhysAddr};
use satin_sim::{SimDuration, SimTime};

/// An active sequential scan over a memory range.
///
/// # Example
///
/// ```
/// use satin_mem::{MemRange, PhysAddr, ScanWindow};
/// use satin_sim::SimTime;
///
/// let range = MemRange::new(PhysAddr::new(0), 4);
/// // Scan starts at t=0 and reads one byte every 10ns.
/// let mut w = ScanWindow::begin(range, SimTime::ZERO, 10e-9, vec![0xAA; 4]);
/// // At t=25ns (between reading byte 2 and byte 3) everything becomes 0x00:
/// w.note_write(SimTime::from_nanos(25), PhysAddr::new(0), &[0x00; 4]);
/// // Bytes 0..=2 were read at 0,10,20ns (before the write): still 0xAA.
/// // Byte 3 is read at 30ns (after the write): 0x00.
/// assert_eq!(w.observed(), &[0xAA, 0xAA, 0xAA, 0x00]);
/// ```
#[derive(Debug, Clone)]
pub struct ScanWindow {
    range: MemRange,
    start: SimTime,
    secs_per_byte: f64,
    observed: Vec<u8>,
    last_write: SimTime,
    overlapping_writes: u64,
}

impl ScanWindow {
    /// Starts a scan of `range` at `start`, reading one byte every
    /// `secs_per_byte` seconds, given the range's content at scan start.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot.len() != range.len()`, the range is empty, or the
    /// rate is not finite and positive.
    pub fn begin(range: MemRange, start: SimTime, secs_per_byte: f64, snapshot: Vec<u8>) -> Self {
        assert!(!range.is_empty(), "empty scan range");
        assert_eq!(snapshot.len() as u64, range.len(), "snapshot size mismatch");
        assert!(
            secs_per_byte.is_finite() && secs_per_byte > 0.0,
            "invalid scan rate {secs_per_byte}"
        );
        ScanWindow {
            range,
            start,
            secs_per_byte,
            observed: snapshot,
            last_write: SimTime::ZERO,
            overlapping_writes: 0,
        }
    }

    /// The scanned range.
    pub fn range(&self) -> MemRange {
        self.range
    }

    /// When the scan started.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The instant byte `offset` (relative to the range start) is read.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is beyond the range.
    pub fn read_instant(&self, offset: u64) -> SimTime {
        assert!(offset < self.range.len(), "offset beyond scan range");
        self.start + SimDuration::from_secs_f64(self.secs_per_byte * offset as f64)
    }

    /// The instant the scan finishes (after reading the last byte).
    pub fn end(&self) -> SimTime {
        self.start + SimDuration::from_secs_f64(self.secs_per_byte * self.range.len() as f64)
    }

    /// Duration of the whole scan.
    pub fn duration(&self) -> SimDuration {
        self.end().since(self.start)
    }

    /// Records a write of `bytes` at `addr` occurring at `time`. Only the
    /// intersection with the scanned range matters; bytes whose read instant
    /// is **at or after** `time` observe the new value.
    ///
    /// Writes must be reported in nondecreasing time order (the event loop
    /// naturally does this).
    ///
    /// # Panics
    ///
    /// Panics if writes arrive out of time order.
    pub fn note_write(&mut self, time: SimTime, addr: PhysAddr, bytes: &[u8]) {
        assert!(
            time >= self.last_write,
            "writes must be reported in time order"
        );
        self.last_write = time;
        let write_range = MemRange::new(addr, bytes.len() as u64);
        let Some(hit) = self.range.intersection(&write_range) else {
            return;
        };
        self.overlapping_writes += 1;
        for i in 0..hit.len() {
            let a = hit.start() + i;
            let scan_off = a.offset_from(self.range.start());
            if self.read_instant(scan_off) >= time {
                // Both offsets index slices whose lengths are usize; the
                // intersection bounds them.
                #[allow(clippy::cast_possible_truncation)]
                let src_off = a.offset_from(write_range.start()) as usize;
                #[allow(clippy::cast_possible_truncation)]
                let dst_off = scan_off as usize;
                let src = bytes
                    .get(src_off)
                    .copied()
                    .expect("intersection offset within the written bytes");
                *self
                    .observed
                    .get_mut(dst_off)
                    .expect("intersection offset within the scanned range") = src;
            }
        }
    }

    /// Number of writes that landed inside the scanned range while the
    /// window was open — regardless of whether the racing write beat the
    /// per-byte read instant. Nonzero means the scan is *torn*: it raced a
    /// concurrent mutator and its observation is not an atomic snapshot.
    pub fn overlapping_writes(&self) -> u64 {
        self.overlapping_writes
    }

    /// `true` if at least one concurrent write intersected the window.
    pub fn is_torn(&self) -> bool {
        self.overlapping_writes > 0
    }

    /// The byte string the scanner observed.
    pub fn observed(&self) -> &[u8] {
        &self.observed
    }

    /// Consumes the window, returning the observed bytes.
    pub fn into_observed(self) -> Vec<u8> {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn window(len: u64, rate_ns: u64) -> ScanWindow {
        ScanWindow::begin(
            MemRange::new(PhysAddr::new(1000), len),
            SimTime::from_micros(1),
            rate_ns as f64 * 1e-9,
            vec![0u8; len as usize],
        )
    }

    #[test]
    fn no_writes_observes_snapshot() {
        let w = ScanWindow::begin(
            MemRange::new(PhysAddr::new(0), 3),
            SimTime::ZERO,
            1e-9,
            vec![7, 8, 9],
        );
        assert_eq!(w.observed(), &[7, 8, 9]);
        assert!(!w.is_torn());
    }

    #[test]
    fn overlapping_writes_mark_the_window_torn() {
        let mut w = window(10, 100);
        // A write wholly outside the range does not tear the window.
        w.note_write(SimTime::from_micros(1), PhysAddr::new(0), &[1; 4]);
        assert_eq!(w.overlapping_writes(), 0);
        // One intersecting the range does, even if every racing byte was
        // already read (last read instant is 1900ns here).
        w.note_write(SimTime::from_nanos(1950), PhysAddr::new(1000), &[2; 4]);
        assert_eq!(w.overlapping_writes(), 1);
        assert!(w.is_torn());
    }

    #[test]
    fn write_before_read_is_seen() {
        let mut w = window(10, 100);
        // Byte 9 is read at 1µs + 900ns; write at 1µs + 500ns to byte 9.
        w.note_write(SimTime::from_nanos(1_500), PhysAddr::new(1009), &[0xFF]);
        assert_eq!(w.observed()[9], 0xFF);
    }

    #[test]
    fn write_after_read_is_missed() {
        let mut w = window(10, 100);
        // Byte 0 read at exactly 1µs; write at 1µs + 1ns: missed.
        w.note_write(SimTime::from_nanos(1_001), PhysAddr::new(1000), &[0xFF]);
        assert_eq!(w.observed()[0], 0x00);
    }

    #[test]
    fn write_at_exact_read_instant_is_seen() {
        let mut w = window(10, 100);
        // Byte 3 read at 1µs + 300ns; write at exactly that instant → seen.
        w.note_write(SimTime::from_nanos(1_300), PhysAddr::new(1003), &[0xEE]);
        assert_eq!(w.observed()[3], 0xEE);
    }

    #[test]
    fn partial_overlap() {
        let mut w = window(10, 100);
        // Write spans [998, 1002): only offsets 0 and 1 are in the range.
        w.note_write(
            SimTime::from_nanos(1_000),
            PhysAddr::new(998),
            &[1, 2, 3, 4],
        );
        assert_eq!(&w.observed()[..3], &[3, 4, 0]);
    }

    #[test]
    fn later_write_overrides_earlier_for_unread_bytes() {
        let mut w = window(4, 1_000_000); // 1ms per byte: everything unread
        w.note_write(SimTime::from_micros(2), PhysAddr::new(1002), &[0xAA]);
        w.note_write(SimTime::from_micros(3), PhysAddr::new(1002), &[0xBB]);
        assert_eq!(w.observed()[2], 0xBB);
    }

    #[test]
    fn attack_then_recover_race() {
        // The paper's race in miniature: hijack before the scan, restore
        // mid-scan. Bytes read before the restore show the hijack.
        let w = ScanWindow::begin(
            MemRange::new(PhysAddr::new(0), 100),
            SimTime::ZERO,
            10e-9, // 10ns per byte → offset k read at 10k ns
            vec![0x41; 100],
        );
        // Rootkit hijacked offset 50 before the scan started (snapshot shows it).
        let mut snapshot_with_hijack = vec![0x41; 100];
        snapshot_with_hijack[50] = 0x66;
        let mut w2 = ScanWindow::begin(w.range(), w.start(), 10e-9, snapshot_with_hijack);
        // Restore lands at 400ns — before byte 50's read instant (500ns):
        w2.note_write(SimTime::from_nanos(400), PhysAddr::new(50), &[0x41]);
        assert_eq!(
            w2.observed()[50],
            0x41,
            "attacker wins: restore beat the scan"
        );
        // Restore lands at 600ns — after byte 50 was read: hijack observed.
        let mut snapshot_with_hijack = vec![0x41; 100];
        snapshot_with_hijack[50] = 0x66;
        let mut w3 = ScanWindow::begin(w.range(), w.start(), 10e-9, snapshot_with_hijack);
        w3.note_write(SimTime::from_nanos(600), PhysAddr::new(50), &[0x41]);
        assert_eq!(
            w3.observed()[50],
            0x66,
            "defender wins: scan beat the restore"
        );
        let _ = w;
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_writes_rejected() {
        let mut w = window(4, 100);
        w.note_write(SimTime::from_micros(5), PhysAddr::new(1000), &[1]);
        w.note_write(SimTime::from_micros(4), PhysAddr::new(1001), &[1]);
    }

    #[test]
    fn end_and_duration() {
        let w = window(1000, 10);
        assert_eq!(w.duration().as_nanos(), 10_000);
        assert_eq!(w.end(), SimTime::from_micros(11));
        assert_eq!(w.read_instant(0), SimTime::from_micros(1));
    }

    proptest! {
        /// Invariant 6 (DESIGN.md): observed bytes equal memory-at-read-instant
        /// for every byte, for arbitrary write sequences. We verify against a
        /// brute-force per-byte replay.
        #[test]
        fn prop_observed_matches_bruteforce(
            len in 1u64..64,
            rate in 1u64..50,
            writes in proptest::collection::vec(
                (0u64..5_000, 0u64..70, any::<u8>()),
                0..20,
            ),
        ) {
            let range = MemRange::new(PhysAddr::new(100), len);
            let snapshot = vec![0u8; len as usize];
            let mut w = ScanWindow::begin(range, SimTime::ZERO, rate as f64 * 1e-9, snapshot.clone());
            let mut sorted = writes.clone();
            sorted.sort_by_key(|(t, _, _)| *t);
            for (t, addr_off, val) in &sorted {
                w.note_write(SimTime::from_nanos(*t), PhysAddr::new(100 + addr_off), &[*val]);
            }
            // Brute force: for each byte, find the last write at or before its
            // read instant.
            for k in 0..len {
                let read_t = k * rate; // ns
                let mut expect = 0u8;
                for (t, addr_off, val) in &sorted {
                    if *addr_off == k && *t <= read_t {
                        expect = *val;
                    }
                }
                prop_assert_eq!(w.observed()[k as usize], expect, "byte {}", k);
            }
        }
    }
}
