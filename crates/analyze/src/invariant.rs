//! Re-derives the paper's closed-form race equations from a recorded run and
//! checks the simulated outcome against them.
//!
//! **Equation 1** (§IV-C): the attacker escapes a scan iff
//! `Ts_switch + s·Ts_1byte > Tns_sched + Tns_threshold + Tns_recover`, where
//! `s` is the number of bytes scanned before the malicious byte. For every
//! *fair-race* window in the mark log — the hijack was live when the round's
//! timer fired and no prober observation tipped the evader off beforehand —
//! the closed form must agree with what the simulation did: if Eq.1 says the
//! introspection wins, the session must carry a `detection` mark. The count
//! of disagreements is [`InvariantReport::eq1_residual`].
//!
//! **Equation 2** (§IV-C/§V-B): the protected prefix
//! `S = (Tns_sched + Tns_threshold + Tns_recover − Ts_switch) / Ts_1byte`
//! bounds the safe area size. Two checks: every completed scan window in the
//! log must fit the bound ([`InvariantReport::eq2_window_residual`] counts
//! oversized windows), and a [`ScanWindow`] micro-simulation binary-searched
//! over byte offsets must place the escape boundary exactly where the closed
//! form does ([`InvariantReport::eq2_boundary_residual`] is the distance in
//! bytes between the two).
//!
//! On a SATIN campaign run all three residuals are exactly zero — `ci.sh`
//! gates on this over seeds 7, 42, and 1009.

use crate::hb::MarkRecord;
use satin_attack::race::RaceParams;
use satin_mem::{MemRange, PhysAddr, ScanWindow, PAPER_KERNEL_SIZE};
use satin_sim::{MarkTag, SimDuration, SimTime};

/// The outcome of auditing one run's mark log against Eq.1 and Eq.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantReport {
    /// Eq.2's protected prefix for the audited parameters, bytes.
    pub protected_prefix_bytes: u64,
    /// Completed scan windows in the log.
    pub audited_windows: u64,
    /// Windows that covered the hijacked address in a fair race.
    pub fair_race_windows: u64,
    /// Windows that covered the hijacked address after the evader was
    /// already tipped off (early warning from a closely preceding round).
    pub early_warning_windows: u64,
    /// Fair-race windows where Eq.1 predicts a catch but no detection mark
    /// exists — must be 0.
    pub eq1_residual: u64,
    /// Scan windows longer than Eq.2's safe-area bound — must be 0 on SATIN
    /// runs (every one of the 19 areas fits the bound).
    pub eq2_window_residual: u64,
    /// Distance in bytes between the micro-simulated escape boundary and
    /// Eq.2's closed form — must be 0.
    pub eq2_boundary_residual: u64,
}

impl InvariantReport {
    /// `true` when every residual is exactly zero.
    pub fn is_clean(&self) -> bool {
        self.eq1_residual == 0 && self.eq2_window_residual == 0 && self.eq2_boundary_residual == 0
    }
}

impl std::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "invariants: prefix={}B windows={} fair-race={} early-warning={}",
            self.protected_prefix_bytes,
            self.audited_windows,
            self.fair_race_windows,
            self.early_warning_windows
        )?;
        writeln!(
            f,
            "residuals: eq1={} eq2-window={} eq2-boundary={}B -> {}",
            self.eq1_residual,
            self.eq2_window_residual,
            self.eq2_boundary_residual,
            if self.is_clean() { "CLEAN" } else { "VIOLATED" }
        )
    }
}

/// One reassembled introspection session (fire → window → publish).
#[derive(Debug, Clone)]
struct Session {
    fired: SimTime,
    window: Option<(u64, u64)>, // (base, len)
    detected: bool,
}

/// The evader's head start: a prober observation closer than this before a
/// fire means the recovery was already racing when the round began (mirrors
/// the detection campaign's fair-race classification).
const HEAD_START: SimDuration = SimDuration::from_millis(10);

/// Audits a recorded mark log against Eq.1 and Eq.2 under `params`.
pub fn audit(marks: &[MarkRecord], params: &RaceParams) -> InvariantReport {
    let num_cores = marks.iter().map(|m| m.mark.core + 1).max().unwrap_or(1);

    // Reassemble per-core sessions and the global attack chronology.
    let mut open: Vec<Option<Session>> = vec![None; num_cores];
    let mut sessions: Vec<Session> = Vec::new();
    let mut lifecycle: Vec<(SimTime, bool)> = Vec::new(); // (at, installed)
    let mut hijack_addrs: Vec<u64> = Vec::new();
    let mut observes: Vec<SimTime> = Vec::new();
    for m in marks {
        let core = m.mark.core;
        match m.mark.tag {
            MarkTag::SecureFire => {
                if let Some(s) = open[core].take() {
                    sessions.push(s);
                }
                open[core] = Some(Session {
                    fired: m.at,
                    window: None,
                    detected: false,
                });
            }
            MarkTag::ScanBegin => {
                if let Some(s) = open[core].as_mut() {
                    s.window = Some((m.mark.a, m.mark.b));
                }
            }
            MarkTag::Detection => {
                if let Some(s) = open[core].as_mut() {
                    s.detected = true;
                }
            }
            MarkTag::AttackInstall => {
                lifecycle.push((m.at, true));
                if !hijack_addrs.contains(&m.mark.a) {
                    hijack_addrs.push(m.mark.a);
                }
            }
            MarkTag::AttackRestore => lifecycle.push((m.at, false)),
            MarkTag::AttackObserve => observes.push(m.at),
            MarkTag::ScanEnd | MarkTag::Publish | MarkTag::RecoveryBegin => {}
        }
    }
    for s in open.into_iter().flatten() {
        sessions.push(s);
    }

    let active_at = |t: SimTime| -> bool {
        let mut active = false;
        for &(at, installed) in &lifecycle {
            if at <= t {
                active = installed;
            } else {
                break;
            }
        }
        active
    };
    let tipped_off = |fired: SimTime| -> bool {
        observes
            .iter()
            .any(|&d| d < fired && fired.saturating_since(d) < HEAD_START)
    };

    let bound = params.max_safe_area_bytes();
    let mut audited_windows = 0u64;
    let mut fair = 0u64;
    let mut early = 0u64;
    let mut eq1_residual = 0u64;
    let mut eq2_window_residual = 0u64;
    for s in &sessions {
        let Some((base, len)) = s.window else {
            continue;
        };
        audited_windows += 1;
        if len > bound {
            eq2_window_residual += 1;
        }
        let Some(&addr) = hijack_addrs.iter().find(|&&a| a >= base && a < base + len) else {
            continue; // window does not cover the hijack: nothing to race
        };
        if active_at(s.fired) && !tipped_off(s.fired) {
            fair += 1;
            // Eq.1 with s = bytes scanned before the hijacked entry. If the
            // closed form says the introspection wins the race, the session
            // must have detected.
            let offset = addr - base;
            if !params.attacker_escapes(offset) && !s.detected {
                eq1_residual += 1;
            }
        } else {
            early += 1;
        }
    }

    InvariantReport {
        protected_prefix_bytes: params.protected_prefix_bytes(),
        audited_windows,
        fair_race_windows: fair,
        early_warning_windows: early,
        eq1_residual,
        eq2_window_residual,
        eq2_boundary_residual: eq2_boundary_residual(params),
    }
}

/// Micro-simulates the §IV-C race through the [`ScanWindow`] TOCTTOU
/// machinery at one byte offset: does the attacker's restore land before the
/// scanner reads offset `s`?
fn escapes_in_micro_sim(params: &RaceParams, s: u64) -> bool {
    let t_fire = SimTime::from_millis(10);
    let switch = SimDuration::from_secs_f64(params.ts_switch);
    let mut snapshot = vec![0u8; PAPER_KERNEL_SIZE as usize];
    snapshot[s as usize] = 0xEE; // the malicious byte
    let mut window = ScanWindow::begin(
        MemRange::new(PhysAddr::new(0), PAPER_KERNEL_SIZE),
        t_fire + switch,
        params.ts_1byte,
        snapshot,
    );
    let restore_at = t_fire + SimDuration::from_secs_f64(params.evasion_latency());
    window.note_write(restore_at, PhysAddr::new(s), &[0x00]);
    window.observed()[s as usize] == 0x00
}

/// Binary-searches the micro-simulated escape boundary and returns its
/// distance in bytes from Eq.2's closed form (0 = exact agreement).
pub(crate) fn eq2_boundary_residual(params: &RaceParams) -> u64 {
    let closed_form = params.protected_prefix_bytes();
    if closed_form >= PAPER_KERNEL_SIZE {
        return 0; // no boundary inside the kernel to compare against
    }
    // The escape predicate is monotone in s: find the first escaping offset.
    let (mut lo, mut hi) = (0u64, PAPER_KERNEL_SIZE - 1);
    if !escapes_in_micro_sim(params, hi) {
        // Attacker never escapes even at the last byte; the closed form must
        // agree that the whole kernel is protected.
        return closed_form.saturating_sub(PAPER_KERNEL_SIZE);
    }
    if escapes_in_micro_sim(params, lo) {
        return closed_form + 1; // escapes at byte 0: boundary is 0
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if escapes_in_micro_sim(params, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // `hi` is the first escaping offset; Eq.2 says that is closed_form + 1.
    hi.abs_diff(closed_form + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_sim::Mark;

    fn rec(t_ns: u64, mark: Mark) -> MarkRecord {
        MarkRecord {
            at: SimTime::from_nanos(t_ns),
            mark,
        }
    }

    /// One fire→scan→publish(→detection) session over a window covering the
    /// hijacked address.
    fn session_marks(core: usize, t_ns: u64, detected: bool) -> Vec<MarkRecord> {
        let mut v = vec![
            rec(t_ns, Mark::new(MarkTag::SecureFire, core)),
            rec(
                t_ns + 10,
                Mark::with_args(MarkTag::ScanBegin, core, 0x1000, 0x8000),
            ),
            rec(t_ns + 1_000, Mark::new(MarkTag::ScanEnd, core)),
            rec(
                t_ns + 1_100,
                Mark::with_args(MarkTag::Publish, core, t_ns + 1_100, 0),
            ),
        ];
        if detected {
            v.push(rec(
                t_ns + 1_100,
                Mark::with_args(MarkTag::Detection, core, t_ns + 1_100, 1),
            ));
        }
        v
    }

    #[test]
    fn fair_race_with_detection_is_clean() {
        let mut marks = vec![rec(
            0,
            Mark::with_args(MarkTag::AttackInstall, 1, 0x2000, 0),
        )];
        marks.extend(session_marks(0, 1_000_000, true));
        let r = audit(&marks, &RaceParams::paper_worst_case());
        assert_eq!(r.audited_windows, 1);
        assert_eq!(r.fair_race_windows, 1);
        assert_eq!(r.eq1_residual, 0);
        assert_eq!(r.eq2_window_residual, 0);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn missed_detection_in_fair_race_is_a_residual() {
        let mut marks = vec![rec(
            0,
            Mark::with_args(MarkTag::AttackInstall, 1, 0x2000, 0),
        )];
        marks.extend(session_marks(0, 1_000_000, false));
        let r = audit(&marks, &RaceParams::paper_worst_case());
        assert_eq!(r.eq1_residual, 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn tipped_off_session_is_early_warning_not_residual() {
        let mut marks = vec![
            rec(0, Mark::with_args(MarkTag::AttackInstall, 1, 0x2000, 0)),
            // An observation 2 ms before the fire: the evader has a head
            // start, so a miss is legitimate.
            rec(
                998_000_000,
                Mark::with_args(MarkTag::AttackObserve, 1, 0, 0),
            ),
        ];
        marks.extend(session_marks(0, 1_000_000_000, false));
        let r = audit(&marks, &RaceParams::paper_worst_case());
        assert_eq!(r.fair_race_windows, 0);
        assert_eq!(r.early_warning_windows, 1);
        assert_eq!(r.eq1_residual, 0);
    }

    #[test]
    fn inactive_hijack_is_not_a_fair_race() {
        let mut marks = vec![
            rec(0, Mark::with_args(MarkTag::AttackInstall, 1, 0x2000, 0)),
            rec(
                500_000,
                Mark::with_args(MarkTag::AttackRestore, 1, 0x2000, 0),
            ),
        ];
        marks.extend(session_marks(0, 1_000_000, false));
        let r = audit(&marks, &RaceParams::paper_worst_case());
        assert_eq!(r.fair_race_windows, 0);
        assert_eq!(r.eq1_residual, 0);
    }

    #[test]
    fn oversized_window_is_an_eq2_residual() {
        let p = RaceParams::paper_worst_case();
        let marks = vec![
            rec(0, Mark::new(MarkTag::SecureFire, 0)),
            rec(
                10,
                Mark::with_args(MarkTag::ScanBegin, 0, 0, p.max_safe_area_bytes() + 1),
            ),
            rec(1_000, Mark::new(MarkTag::ScanEnd, 0)),
            rec(1_100, Mark::with_args(MarkTag::Publish, 0, 1_100, 0)),
        ];
        let r = audit(&marks, &p);
        assert_eq!(r.eq2_window_residual, 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn micro_sim_boundary_matches_closed_form_exactly() {
        // The Eq.2 boundary re-derived through the TOCTTOU machinery lands
        // on the closed form to the byte (Invariant 7 of DESIGN.md).
        assert_eq!(eq2_boundary_residual(&RaceParams::paper_worst_case()), 0);
    }

    #[test]
    fn empty_log_is_clean() {
        let r = audit(&[], &RaceParams::paper_worst_case());
        assert_eq!(r.audited_windows, 0);
        assert!(r.is_clean());
    }
}
