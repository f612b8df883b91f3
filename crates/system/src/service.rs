//! Secure-world service plug-in points.

use satin_faults::SatinError;
use satin_hw::timing::{ScanStrategy, TimingModel};
use satin_hw::{CoreId, HwError, Platform, World};
use satin_mem::{KernelLayout, MemError, MemRange, PhysAddr, PhysMemory};
use satin_sim::{SimRng, SimTime, TraceCategory, TraceLog};

/// A request to scan one area, returned by the service from its timer
/// handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRequest {
    /// The service's identifier for the area (index into its area set).
    pub area_id: usize,
    /// The byte range to scan.
    pub range: MemRange,
    /// Scan strategy (Table I comparison).
    pub strategy: ScanStrategy,
}

/// The secure world's behaviour, invoked by the secure timer.
///
/// Implemented by SATIN (`satin-core`) and by the naive-introspection
/// baselines. Runs at S-EL1 inside the Test Secure Payload: the system
/// guarantees the normal world is frozen *on this core* while these methods
/// execute, and (in the default non-preemptive GIC configuration) that
/// normal-world interrupts cannot interrupt the round (§V-B).
pub trait SecureService {
    /// Trusted-boot hook: measure the pristine kernel and arm the initial
    /// per-core secure timers.
    ///
    /// # Errors
    ///
    /// A [`SatinError`] aborts the boot: the service is not installed and
    /// the campaign layer reports the seed as failed instead of panicking.
    fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), SatinError>;

    /// The secure timer fired on `core`. Return the area to scan this round,
    /// or `None` to skip scanning (the timer can be re-armed via `ctx`).
    fn on_secure_timer(&mut self, core: CoreId, ctx: &mut SecureCtx<'_>) -> Option<ScanRequest>;

    /// The scan finished; `observed` is exactly the byte string the
    /// sequential scanner saw (resolving any races with concurrent
    /// normal-world writes). Typically verifies the digest, raises alarms,
    /// and arms the next wake-up.
    fn on_scan_result(
        &mut self,
        core: CoreId,
        request: &ScanRequest,
        observed: &[u8],
        ctx: &mut SecureCtx<'_>,
    );
}

/// Capabilities available to the secure service during boot (trusted,
/// before any normal-world code has run).
pub struct BootCtx<'a> {
    pub(crate) platform: &'a mut Platform,
    pub(crate) mem: &'a PhysMemory,
    pub(crate) layout: &'a KernelLayout,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) armed: &'a mut Vec<(CoreId, SimTime)>,
}

impl<'a> BootCtx<'a> {
    /// The pristine kernel memory (for boot-time measurement).
    pub fn mem(&self) -> &PhysMemory {
        self.mem
    }

    /// The kernel layout.
    pub fn layout(&self) -> &KernelLayout {
        self.layout
    }

    /// Number of cores on the platform.
    pub fn num_cores(&self) -> usize {
        self.platform.topology().num_cores()
    }

    /// The timing model.
    pub fn timing(&self) -> &TimingModel {
        self.platform.timing()
    }

    /// Secure randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Arms `core`'s secure timer to fire at `at`. Boot runs in the secure
    /// world, so this always succeeds for valid cores.
    ///
    /// # Errors
    ///
    /// [`HwError::NoSuchCore`] for an out-of-range core.
    pub fn arm_core(&mut self, core: CoreId, at: SimTime) -> Result<(), HwError> {
        // Validate the core exists before touching state.
        self.platform.secure_timer(core)?;
        let t = self.platform.secure_timer_mut(core);
        t.write_cval(World::Secure, at)?;
        t.set_enabled(World::Secure, true)?;
        self.armed.push((core, at));
        Ok(())
    }
}

/// Capabilities available to the secure service while handling a secure
/// timer interrupt on one core.
pub struct SecureCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) fired: SimTime,
    pub(crate) core: CoreId,
    pub(crate) platform: &'a mut Platform,
    pub(crate) mem: &'a mut PhysMemory,
    pub(crate) scans: &'a mut Vec<crate::machine::ActiveScan>,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) trace: &'a mut TraceLog,
    pub(crate) rearm: &'a mut Option<(CoreId, SimTime)>,
    pub(crate) repairs: &'a mut u64,
    pub(crate) alarms: &'a mut u64,
}

impl<'a> SecureCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// When this session's secure timer fired (the round's start; during
    /// `on_scan_result` this is earlier than [`SecureCtx::now`] by the
    /// world-switch plus the scan duration).
    pub fn fired(&self) -> SimTime {
        self.fired
    }

    /// Secure randomness (the normal world cannot observe these draws).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Arms *this core's* secure timer for the next wake-up at `at`.
    /// ARMv8-A provides no way for one core to program another core's timer
    /// (§V-D), so the service can only re-arm the core it is running on.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not in the future.
    pub fn arm_self(&mut self, at: SimTime) {
        assert!(at > self.now, "secure timer must be armed in the future");
        let core = self.core;
        let t = self.platform.secure_timer_mut(core);
        t.write_cval(World::Secure, at)
            .expect("secure ctx runs in the secure world");
        t.set_enabled(World::Secure, true)
            .expect("secure ctx runs in the secure world");
        *self.rearm = Some((core, at));
    }

    /// Repairs normal-world memory from the secure world — the remediation
    /// path a TZ-RKP-class system takes on an alarm. The secure world's
    /// higher privilege lets it write any normal-world page regardless of
    /// AP bits; concurrent scans on other cores observe the write at the
    /// usual per-byte read instants.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] for out-of-bounds writes.
    pub fn repair_normal_memory(&mut self, addr: PhysAddr, bytes: &[u8]) -> Result<(), MemError> {
        self.mem.write_unchecked(addr, bytes)?;
        for scan in self.scans.iter_mut() {
            scan.window.note_write(self.now, addr, bytes);
        }
        *self.repairs += 1;
        self.trace.record(
            self.now,
            TraceCategory::SatinRepair,
            format!("{} bytes restored at {addr}", bytes.len()),
        );
        Ok(())
    }

    /// Raises an integrity alarm: counted in
    /// `SysStats::alarms` (which feeds the
    /// machine's detection-latency histogram) and traced as
    /// [`TraceCategory::SatinAlarm`].
    pub fn raise_alarm(&mut self, detail: impl Into<String>) {
        *self.alarms += 1;
        self.trace
            .record(self.now, TraceCategory::SatinAlarm, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_request_equality() {
        let r = ScanRequest {
            area_id: 3,
            range: MemRange::new(satin_mem::PhysAddr::new(0), 8),
            strategy: ScanStrategy::DirectHash,
        };
        assert_eq!(r, r.clone());
    }
}
