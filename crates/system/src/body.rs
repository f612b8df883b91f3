//! Normal-world thread behaviours.

use crate::machine::ActiveScan;
use crate::stats::SysStats;
use crate::timebuf::SharedTimeBuffer;
use satin_hw::timing::TimingModel;
use satin_hw::{CoreId, CoreKind};
use satin_kernel::syscall::SyscallTable;
use satin_mem::phys::WriteRecord;
use satin_mem::{KernelLayout, MemError, PhysAddr, PhysMemory};
use satin_sim::{Mark, MarkTag, SimDuration, SimRng, SimTime, TraceCategory, TraceLog};

/// What a task does after its busy period ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Then {
    /// Sleep for a duration (measured from the end of the busy period).
    SleepFor(SimDuration),
    /// Sleep until the next multiple of `period` — how the probers keep a
    /// fixed reporting cadence across cores.
    SleepAligned {
        /// The cadence period.
        period: SimDuration,
    },
    /// Sleep until the next `period` boundary plus a fixed `offset` — a
    /// deliberately phase-shifted cadence (the single-core prober's
    /// observer polls ~65 µs behind the reporter so the report has drained
    /// by read time).
    SleepAlignedOffset {
        /// The cadence period.
        period: SimDuration,
        /// Phase offset past each boundary.
        offset: SimDuration,
    },
    /// Go back to the runqueue (timeslice-style yield).
    Yield,
    /// Exit; the task never runs again.
    Exit,
}

/// The result of one `on_run` call: occupy the CPU for `busy`, then `then`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// CPU time this activation consumes.
    pub busy: SimDuration,
    /// What happens afterwards.
    pub then: Then,
}

impl RunOutcome {
    /// Busy for `busy`, then sleep `sleep`.
    pub fn sleep_after(busy: SimDuration, sleep: SimDuration) -> Self {
        RunOutcome {
            busy,
            then: Then::SleepFor(sleep),
        }
    }

    /// Busy for `busy`, then sleep to the next `period` boundary.
    pub fn sleep_aligned(busy: SimDuration, period: SimDuration) -> Self {
        RunOutcome {
            busy,
            then: Then::SleepAligned { period },
        }
    }

    /// Busy for `busy`, then sleep to the next `period` boundary plus
    /// `offset`.
    pub fn sleep_aligned_offset(
        busy: SimDuration,
        period: SimDuration,
        offset: SimDuration,
    ) -> Self {
        RunOutcome {
            busy,
            then: Then::SleepAlignedOffset { period, offset },
        }
    }

    /// Busy for `busy`, then yield.
    pub fn yield_after(busy: SimDuration) -> Self {
        RunOutcome {
            busy,
            then: Then::Yield,
        }
    }

    /// Busy for `busy`, then exit.
    pub fn exit_after(busy: SimDuration) -> Self {
        RunOutcome {
            busy,
            then: Then::Exit,
        }
    }
}

/// The behaviour of a normal-world task.
///
/// `on_run` is called when the task gets the CPU after a wake or yield; it
/// performs its effects through [`RunCtx`] (publishing time reports, writing
/// kernel memory, resolving syscalls) and returns how long the activation
/// occupies the CPU and what happens next. If a busy period is preempted
/// (RT wake, secure-world entry, timeslice), the remainder resumes later
/// without a second `on_run` call.
pub trait ThreadBody {
    /// One activation of the task.
    fn on_run(&mut self, ctx: &mut RunCtx<'_>) -> RunOutcome;
}

impl<F> ThreadBody for F
where
    F: FnMut(&mut RunCtx<'_>) -> RunOutcome,
{
    fn on_run(&mut self, ctx: &mut RunCtx<'_>) -> RunOutcome {
        self(ctx)
    }
}

/// Capabilities available to a normal-world task while it runs.
///
/// Everything here is something the paper's user-level or kernel-level code
/// could do from the normal world: read the shared counter, write to the
/// probers' shared buffer, modify kernel memory (with root), or look up a
/// syscall handler. Secure-world state is *not* reachable from here.
pub struct RunCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) core: CoreId,
    pub(crate) kind: CoreKind,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) timing: &'a TimingModel,
    pub(crate) time_buffer: &'a mut SharedTimeBuffer,
    pub(crate) mem: &'a mut PhysMemory,
    pub(crate) layout: &'a KernelLayout,
    pub(crate) scans: &'a mut Vec<ActiveScan>,
    pub(crate) trace: &'a mut TraceLog,
    pub(crate) stats: &'a mut SysStats,
    pub(crate) syscalls: &'a SyscallTable,
    pub(crate) marks: &'a mut Vec<Mark>,
}

impl<'a> RunCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The core this activation runs on.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Publishes a time report from this core into the shared buffer. The
    /// cross-core visibility delay is drawn from the calibrated distribution.
    /// Returns the sampled execution cost of the Time Reporter body, which
    /// the caller should include in its busy period.
    pub fn publish_time_report(&mut self) -> SimDuration {
        let exec = self.timing.sample_report_exec(self.rng);
        let publish_at = self.now + exec;
        let delay = self.timing.sample_publication_delay(self.rng);
        self.time_buffer
            .publish(self.core, publish_at, publish_at + delay, publish_at);
        self.stats.time_reports += 1;
        exec
    }

    /// Reads the freshest visible time report of `core`. Reading one's own
    /// core sees local stores immediately; remote cores see only published
    /// (drained) reports.
    pub fn read_time_report(&self, core: CoreId) -> Option<SimTime> {
        if core == self.core {
            self.time_buffer.read_local(core, self.now)
        } else {
            self.time_buffer.read_remote(core, self.now)
        }
    }

    /// Samples the execution cost of one Time Comparer pass over `cores`
    /// compared cores.
    pub fn compare_exec_cost(&mut self, cores: usize) -> SimDuration {
        self.timing.sample_compare_exec(cores, self.rng)
    }

    /// Samples the rootkit's total trace-recovery time (`Tns_recover`) on
    /// this core's microarchitecture (§IV-B2: A53 ≈ 5.80 ms, A57 ≈ 4.96 ms).
    pub fn recovery_cost(&mut self) -> SimDuration {
        self.timing.sample_recover(self.kind, self.rng)
    }

    /// The monitored kernel's layout.
    pub fn layout(&self) -> &KernelLayout {
        self.layout
    }

    /// Writes kernel memory bypassing page permissions — the attacker's path
    /// after the write-what-where exploit (§VII-A), or trusted kernel code.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] for out-of-bounds writes.
    pub fn write_kernel(&mut self, addr: PhysAddr, bytes: &[u8]) -> Result<WriteRecord, MemError> {
        let rec = self.mem.write_unchecked(addr, bytes)?;
        self.after_write(addr, bytes);
        Ok(rec)
    }

    /// Runs the write-what-where exploit on the page holding `addr`
    /// (flips its AP bits to writable). Returns `true` if the page was
    /// protected.
    pub fn exploit_ap_bits(&mut self, addr: PhysAddr) -> bool {
        self.mem.perms_mut().exploit_write_what_where(addr)
    }

    /// Resolves a syscall handler pointer the way the kernel would on a
    /// syscall: by reading the (possibly hijacked) table entry. Counts
    /// resolutions that hit a non-genuine pointer in the system stats.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] if the table lies outside memory.
    pub fn resolve_syscall(&mut self, nr: u64) -> Result<u64, MemError> {
        let ptr = self.mem.read_u64(self.syscalls.entry_addr(nr))?;
        self.stats.syscall_resolutions += 1;
        if let Some(genuine) = self.stats.genuine_syscall(nr) {
            if genuine != ptr {
                self.stats.hijacked_resolutions += 1;
            }
        }
        Ok(ptr)
    }

    /// Appends a trace entry.
    pub fn trace(&mut self, category: impl Into<TraceCategory>, detail: impl Into<String>) {
        self.trace.record(self.now, category, detail);
    }

    /// Emits a semantic [`Mark`] attributed to this activation's core,
    /// forwarded to the machine's installed [`satin_sim::SimObserver`] when
    /// the activation returns. With no observer installed marks vanish, so
    /// task bodies can mark unconditionally — recording never perturbs a
    /// run (the golden-trace snapshots pin this).
    pub fn mark(&mut self, tag: MarkTag) {
        self.mark_args(tag, 0, 0);
    }

    /// Emits a semantic [`Mark`] with tag-specific arguments (see
    /// [`MarkTag`] for each variant's argument meaning).
    pub fn mark_args(&mut self, tag: MarkTag, a: u64, b: u64) {
        self.marks.push(Mark {
            tag,
            core: self.core.index(),
            a,
            b,
        });
    }

    fn after_write(&mut self, addr: PhysAddr, bytes: &[u8]) {
        self.stats.kernel_writes += 1;
        for scan in self.scans.iter_mut() {
            scan.window.note_write(self.now, addr, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_constructors() {
        let d = SimDuration::from_micros(2);
        let s = SimDuration::from_micros(200);
        assert_eq!(RunOutcome::sleep_after(d, s).then, Then::SleepFor(s));
        assert_eq!(
            RunOutcome::sleep_aligned(d, s).then,
            Then::SleepAligned { period: s }
        );
        assert_eq!(RunOutcome::yield_after(d).then, Then::Yield);
        assert_eq!(RunOutcome::exit_after(d).then, Then::Exit);
        assert_eq!(RunOutcome::exit_after(d).busy, d);
    }

    #[test]
    fn closures_are_bodies() {
        fn assert_body<B: ThreadBody>(_b: &B) {}
        let b = |_: &mut RunCtx<'_>| RunOutcome::exit_after(SimDuration::ZERO);
        assert_body(&b);
    }
}
