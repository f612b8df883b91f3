//! The rich OS side of the machine: ticks, wakes, runqueue dispatch, task
//! completion, and effective-work accounting.

use super::cores::Running;
use super::System;
use crate::body::{RunCtx, RunOutcome, Then};
use crate::event::SysEvent;
use satin_hw::CoreId;
use satin_kernel::{tick, SchedClass, TaskId, TaskState};
use satin_sim::dist::SecondsDist;
use satin_sim::{SimTime, TraceCategory};

impl System {
    pub(super) fn on_tick(&mut self, now: SimTime, core: CoreId) {
        // Always schedule the next boundary (the hardware timer keeps going;
        // NO_HZ merely suppresses delivery while idle).
        let mut next = tick::next_boundary(now);
        // An injected jitter spike pushes one boundary late — the timing
        // anomaly a loaded or adversarial interrupt fabric produces.
        if let Some(extra) = self.faults.as_mut().and_then(|f| f.tick_jitter(now)) {
            next += extra;
            self.trace.record(
                now,
                TraceCategory::Custom("fault.jitter"),
                format!("{core} extra={extra}"),
            );
        }
        self.sim.schedule_at(next, SysEvent::TickBoundary { core });

        if self.cores.in_secure(core) {
            // Non-secure interrupt pends while the core is in the secure
            // world (SATIN's SCR_EL3.IRQ = 0 configuration, §V-B).
            return;
        }
        let idle = self.cores.running(core).is_none() && self.sched.queue_len(core) == 0;
        if !tick::delivered(idle) {
            return;
        }
        self.stats.ticks_delivered += 1;

        // KProber-I runs inside the (hijacked) timer IRQ handler.
        if let Some(mut hook) = self.tick_hook.take() {
            let kind = self.platform.core_kind(core);
            let cost = {
                let mut ctx = RunCtx {
                    now,
                    core,
                    kind,
                    rng: &mut self.rng_body,
                    timing: self.platform.timing(),
                    time_buffer: &mut self.time_buffer,
                    mem: &mut self.mem,
                    layout: &self.layout,
                    scans: &mut self.scans,
                    trace: &mut self.trace,
                    stats: &mut self.stats,
                    syscalls: &self.syscalls,
                    marks: &mut self.mark_buf,
                };
                hook.on_tick(&mut ctx);
                ctx.timing.irq_prober_exec.sample(&mut self.rng_timing)
            };
            self.flush_marks();
            self.stats.tick_hook_time += cost;
            self.tick_hook = Some(hook);
        }

        // CFS timeslice preemption.
        let preempt = if let Some(r) = self.cores.running(core) {
            let is_cfs = matches!(self.sched.task(r.task).class(), SchedClass::Cfs { .. });
            is_cfs
                && self.sched.queue_len(core) > 0
                && now.since(r.started) >= self.sched.timeslice(core)
        } else {
            false
        };
        if preempt {
            self.preempt_current(now, core);
            self.try_dispatch(now, core);
        }
    }

    pub(super) fn on_wake(&mut self, now: SimTime, task: TaskId) {
        let Some(core) = self.sched.wake(task) else {
            return;
        };
        if self.cores.in_secure(core) {
            // The core is in the secure world: the task sits on the frozen
            // runqueue until SecureDone. This is the prober's side channel.
            return;
        }
        let needs_dispatch = match self.cores.running(core) {
            None => true,
            Some(_) => self.sched.should_preempt(core, task),
        };
        if needs_dispatch {
            let latency = match self.sched.task(task).class() {
                SchedClass::RtFifo { .. } => self
                    .platform
                    .timing()
                    .sample_rt_dispatch(&mut self.rng_sched),
                SchedClass::Cfs { .. } => {
                    let q = self.sched.queue_len(core);
                    self.platform
                        .timing()
                        .sample_cfs_dispatch(q, &mut self.rng_sched)
                }
            };
            self.sim
                .schedule_at(now + latency, SysEvent::Dispatch { core });
        }
    }

    pub(super) fn try_dispatch(&mut self, now: SimTime, core: CoreId) {
        if self.cores.in_secure(core) {
            return;
        }
        if self.cores.running(core).is_some() {
            // Preempt only if the best queued task outranks the current one.
            let Some(next) = self.sched.peek_next(core) else {
                return;
            };
            if !self.sched.should_preempt(core, next) {
                return;
            }
            if matches!(self.sched.task(next).class(), SchedClass::RtFifo { .. }) {
                self.stats.metrics.core_mut(core).rt_preemptions += 1;
            }
            self.preempt_current(now, core);
        }
        let Some(task) = self.sched.pick_next(core) else {
            return;
        };
        self.sched.start_running(core, task);
        let idx = task.value() as usize;
        let (busy, then) = if let Some((remaining, then)) = self.resume[idx].take() {
            (remaining, then)
        } else {
            let outcome = self.call_body(now, core, task);
            (outcome.busy, outcome.then)
        };
        let token = self.cores.take_token(core);
        let busy_end = now + busy;
        *self.cores.running_mut(core) = Some(Running {
            task,
            started: now,
            busy_end,
            then,
            token,
        });
        self.sim
            .schedule_at(busy_end, SysEvent::TaskDone { core, task, token });
    }

    fn call_body(&mut self, now: SimTime, core: CoreId, task: TaskId) -> RunOutcome {
        let idx = task.value() as usize;
        let mut body = self.bodies[idx].take().expect("task body present");
        let kind = self.platform.core_kind(core);
        let outcome = {
            let mut ctx = RunCtx {
                now,
                core,
                kind,
                rng: &mut self.rng_body,
                timing: self.platform.timing(),
                time_buffer: &mut self.time_buffer,
                mem: &mut self.mem,
                layout: &self.layout,
                scans: &mut self.scans,
                trace: &mut self.trace,
                stats: &mut self.stats,
                syscalls: &self.syscalls,
                marks: &mut self.mark_buf,
            };
            body.on_run(&mut ctx)
        };
        self.flush_marks();
        self.bodies[idx] = Some(body);
        outcome
    }

    /// Forwards marks a task body queued during its activation to the sim
    /// observer, in emission order.
    fn flush_marks(&mut self) {
        for m in self.mark_buf.drain(..) {
            self.sim.mark(m);
        }
    }

    pub(super) fn preempt_current(&mut self, now: SimTime, core: CoreId) {
        let Some(r) = self.cores.running_mut(core).take() else {
            return;
        };
        let ran = now.saturating_since(r.started);
        self.account_work(r.task, core, r.started, now);
        self.sched
            .stop_running(core, r.task, ran, TaskState::Runnable);
        let remaining = r.busy_end.saturating_since(now);
        self.resume[r.task.value() as usize] = Some((remaining, r.then));
        self.stats.preemptions += 1;
    }

    pub(super) fn on_task_done(&mut self, now: SimTime, core: CoreId, task: TaskId, token: u64) {
        let valid = matches!(
            self.cores.running(core),
            Some(Running { task: t, token: k, .. }) if t == task && k == token
        );
        if !valid {
            return; // stale: the busy period was preempted
        }
        let r = self.cores.running_mut(core).take().expect("checked");
        let ran = now.since(r.started);
        self.account_work(task, core, r.started, now);
        let next_state = match r.then {
            Then::Yield => TaskState::Runnable,
            Then::SleepFor(_) | Then::SleepAligned { .. } | Then::SleepAlignedOffset { .. } => {
                TaskState::Sleeping
            }
            Then::Exit => TaskState::Exited,
        };
        self.sched.stop_running(core, task, ran, next_state);
        match r.then {
            Then::SleepFor(d) => {
                self.sim.schedule_at(now + d, SysEvent::TaskWake { task });
            }
            Then::SleepAligned { period } => {
                let p = period.as_nanos().max(1);
                let next = (now.as_nanos() / p + 1) * p;
                self.sim
                    .schedule_at(SimTime::from_nanos(next), SysEvent::TaskWake { task });
            }
            Then::SleepAlignedOffset { period, offset } => {
                let p = period.as_nanos().max(1);
                let o = offset.as_nanos() % p;
                // Next instant strictly after `now` that is ≡ o (mod p).
                let base = now.as_nanos().saturating_sub(o);
                let next = (base / p + 1) * p + o;
                self.sim
                    .schedule_at(SimTime::from_nanos(next), SysEvent::TaskWake { task });
            }
            Then::Yield | Then::Exit => {}
        }
        self.try_dispatch(now, core);
    }

    pub(super) fn account_work(
        &mut self,
        task: TaskId,
        core: CoreId,
        start: SimTime,
        end: SimTime,
    ) {
        let kind = self.platform.core_kind(core);
        let t = self.platform.timing();
        let (pollution_until, strength) = self.cores.pollution(core);
        let slowdown = t.post_secure_slowdown * strength;
        self.work[task.value() as usize].accrue(
            start,
            end,
            pollution_until,
            slowdown,
            t.relative_speed(kind),
        );
    }
}
