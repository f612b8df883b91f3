//! The world boundary: secure timer fires, the [`ActiveScan`] lifecycle,
//! and the exit effects a secure round leaves on the normal world.

use super::cores::SecureSession;
use super::{ActiveScan, System};
use crate::event::SysEvent;
use crate::service::{ScanRequest, SecureCtx};
use satin_faults::PublicationFate;
use satin_hw::CoreId;
use satin_mem::ScanWindow;
use satin_sim::{Mark, MarkTag, SimDuration, SimTime, TraceCategory};
use satin_telemetry::TrackId;

/// The telemetry track a core's spans land on (track *n* = core *n*).
fn track(core: CoreId) -> TrackId {
    TrackId(core.index() as u32)
}

impl System {
    pub(super) fn on_secure_fire(&mut self, now: SimTime, core: CoreId, generation: u64) {
        if self.cores.timer_gen(core) != generation {
            return; // superseded by a re-arm
        }
        let should_fire = self
            .platform
            .secure_timer(core)
            .map(|t| t.should_fire(now))
            .unwrap_or(false);
        if !should_fire || self.cores.in_secure(core) {
            return;
        }
        // One-shot: disable until the service re-arms.
        self.platform
            .secure_timer_mut(core)
            .set_enabled(satin_hw::World::Secure, false)
            .expect("secure world disables its own timer");
        self.cores.bump_timer_gen(core);
        self.sim.mark(Mark::new(MarkTag::SecureFire, core.index()));

        // The secure interrupt preempts whatever the normal world was doing.
        self.preempt_current(now, core);

        let switch = self
            .platform
            .timing()
            .sample_ts_switch(&mut self.rng_timing);
        let entry = self
            .platform
            .monitor_mut()
            .enter_secure(core, now, switch)
            .expect("core was in normal world");
        self.stats.secure_entries += 1;
        self.stats.metrics.core_mut(core).world_switches += 1;
        self.trace.record(
            now,
            TraceCategory::SecureEnter,
            format!("{core} switch={switch}"),
        );
        let session_span =
            self.telemetry
                .start("secure.session", track(core), now, None, format!("{core}"));
        self.telemetry.complete(
            "world.switch_in",
            track(core),
            now,
            entry,
            Some(session_span),
            format!("switch={switch}"),
        );

        let request = self.call_service_timer(now, core);
        match request {
            Some(request) => {
                let kind = self.platform.core_kind(core);
                let rate = self.platform.timing().sample_scan_rate(
                    kind,
                    request.strategy,
                    &mut self.rng_timing,
                );
                // Preemptive secure world (SCR_EL3.IRQ = 1): every NS
                // interrupt pauses the scan, stretching its effective
                // per-byte rate. SATIN's non-preemptive configuration pends
                // them instead (see Gic::route), so the rate is unaffected.
                let preemptible = self.platform.gic().config().irq_to_el3();
                let stretch = if preemptible {
                    1.0 / (1.0 - self.ns_interrupt_load)
                } else {
                    1.0
                };
                // Borrow-once view: the window's bounds are validated here
                // and never re-checked while the snapshot is taken.
                let snapshot = self
                    .mem
                    .view(request.range)
                    .expect("scan request inside memory")
                    .to_vec();
                let window = ScanWindow::begin(
                    request.range,
                    entry,
                    rate.secs_per_byte() * stretch,
                    snapshot,
                );
                let scan_end = window.end();
                self.trace.record(
                    now,
                    TraceCategory::SecureScan,
                    format!(
                        "{core} area={} len={} rate={:.3}ns/B",
                        request.area_id,
                        request.range.len(),
                        rate.secs_per_byte() * 1e9
                    ),
                );
                self.stats.metrics.core_mut(core).scans_started += 1;
                self.sim.mark(Mark::with_args(
                    MarkTag::ScanBegin,
                    core.index(),
                    request.range.start().value(),
                    request.range.len(),
                ));
                self.telemetry.complete(
                    "scan.window",
                    track(core),
                    entry,
                    scan_end,
                    Some(session_span),
                    format!("area={} len={}", request.area_id, request.range.len()),
                );
                self.scans.push(ActiveScan {
                    core,
                    request,
                    window,
                });
                self.cores.set_secure(
                    core,
                    Some(SecureSession {
                        fired: now,
                        scan_end,
                        span: session_span,
                    }),
                );
                self.sim
                    .schedule_at(scan_end, SysEvent::SecureDone { core });
            }
            None => {
                let scan_end = entry + SimDuration::from_micros(1);
                self.cores.set_secure(
                    core,
                    Some(SecureSession {
                        fired: now,
                        scan_end,
                        span: session_span,
                    }),
                );
                self.sim
                    .schedule_at(scan_end, SysEvent::SecureDone { core });
            }
        }
    }

    fn call_service_timer(&mut self, now: SimTime, core: CoreId) -> Option<ScanRequest> {
        let mut service = self.service.take()?;
        let kind = self.platform.core_kind(core);
        let mut rearm = None;
        let request = {
            let mut ctx = SecureCtx {
                now,
                fired: now,
                core,
                kind,
                platform: &mut self.platform,
                mem: &mut self.mem,
                scans: &mut self.scans,
                rng: &mut self.rng_secure,
                trace: &mut self.trace,
                rearm: &mut rearm,
                repairs: &mut self.stats.secure_repairs,
                alarms: &mut self.stats.alarms,
            };
            service.on_secure_timer(core, &mut ctx)
        };
        self.service = Some(service);
        self.schedule_rearm(rearm);
        request
    }

    fn schedule_rearm(&mut self, rearm: Option<(CoreId, SimTime)>) {
        if let Some((core, at)) = rearm {
            let gen = self.cores.timer_gen(core);
            self.sim.schedule_at(
                at,
                SysEvent::SecureTimerFire {
                    core,
                    generation: gen,
                },
            );
        }
    }

    pub(super) fn on_secure_done(&mut self, now: SimTime, core: CoreId) {
        let Some(session) = self.cores.secure(core) else {
            return;
        };
        debug_assert_eq!(session.scan_end, now);
        let alarms_before = self.stats.alarms;

        // Resolve the finished scan (if this round scanned).
        if let Some(pos) = self.scans.iter().position(|s| s.core == core) {
            let scan = self.scans.remove(pos);
            {
                let m = self.stats.metrics.core_mut(core);
                m.scans_completed += 1;
                if scan.window.is_torn() {
                    m.scans_torn += 1;
                }
            }
            self.stats
                .metrics
                .record_hash_window(scan.window.duration());
            let mut observed = scan.window.into_observed();
            // An injected corruption flips the observed bytes between the
            // scanner and the verifier — a transfer fault the digest check
            // must flag, not crash on.
            if let Some(f) = self.faults.as_mut() {
                if f.corrupt_window(now, &mut observed) {
                    self.trace.record(
                        now,
                        TraceCategory::Custom("fault.corrupt"),
                        format!("{core} len={}", observed.len()),
                    );
                }
            }
            if let Some(mut service) = self.service.take() {
                let kind = self.platform.core_kind(core);
                let mut rearm = None;
                {
                    let mut ctx = SecureCtx {
                        now,
                        fired: session.fired,
                        core,
                        kind,
                        platform: &mut self.platform,
                        mem: &mut self.mem,
                        scans: &mut self.scans,
                        rng: &mut self.rng_secure,
                        trace: &mut self.trace,
                        rearm: &mut rearm,
                        repairs: &mut self.stats.secure_repairs,
                        alarms: &mut self.stats.alarms,
                    };
                    service.on_scan_result(core, &scan.request, &observed, &mut ctx);
                }
                self.service = Some(service);
                self.schedule_rearm(rearm);
            }
            self.sim.mark(Mark::new(MarkTag::ScanEnd, core.index()));
        }

        let switch = self
            .platform
            .timing()
            .sample_ts_switch(&mut self.rng_timing);
        let mut resume = self
            .platform
            .monitor_mut()
            .exit_secure(core, now, switch)
            .expect("core was in secure world");
        // The round's cross-core publication can be faulted: dropped (the
        // results never reach the normal world — detection slips to a later
        // round) or delayed (the world-switch out stalls, shifting every
        // exit effect later by the same amount).
        let fate = self
            .faults
            .as_mut()
            .map(|f| f.publication_fate(now))
            .unwrap_or(PublicationFate::Deliver);
        match fate {
            PublicationFate::Deliver => {}
            PublicationFate::Drop => {
                self.trace.record(
                    now,
                    TraceCategory::Custom("fault.drop"),
                    format!("{core} publication dropped"),
                );
            }
            PublicationFate::Delay(by) => {
                resume += by;
                self.trace.record(
                    now,
                    TraceCategory::Custom("fault.delay"),
                    format!("{core} by={by}"),
                );
            }
        }
        let dropped = matches!(fate, PublicationFate::Drop);
        let residency = resume.since(session.fired);
        self.tsp.record_invocation(core, session.fired, residency);
        self.cores.set_secure(core, None);
        {
            let m = self.stats.metrics.core_mut(core);
            m.world_switches += 1;
            m.pollution_windows += 1;
        }
        // The round's results are visible to the normal world once the
        // world-switch out completes: the session span closes at `resume`,
        // and a detection (any alarm raised inside this round) counts its
        // latency from timer fire to that publication instant. A dropped
        // publication produces none of these — the secure round ran, but
        // nothing crossed the world boundary.
        self.telemetry.complete(
            "world.switch_out",
            track(core),
            now,
            resume,
            Some(session.span),
            format!("switch={switch}"),
        );
        self.telemetry.end(session.span, resume);
        if dropped {
            self.telemetry.instant(
                "fault.drop_publication",
                track(core),
                resume,
                format!("residency={residency}"),
            );
        } else {
            self.stats.metrics.record_publication_delay(residency);
            self.telemetry.instant(
                "publish",
                track(core),
                resume,
                format!("residency={residency}"),
            );
            self.sim.mark(Mark::with_args(
                MarkTag::Publish,
                core.index(),
                resume.as_nanos(),
                0,
            ));
        }
        if !dropped && self.stats.alarms > alarms_before {
            self.stats.metrics.record_detection_latency(residency);
            self.telemetry.instant(
                "detection",
                track(core),
                resume,
                format!("alarms={}", self.stats.alarms - alarms_before),
            );
            self.sim.mark(Mark::with_args(
                MarkTag::Detection,
                core.index(),
                resume.as_nanos(),
                self.stats.alarms - alarms_before,
            ));
        }
        // The scan streamed through shared cache/DRAM: the interference
        // window opens machine-wide (see TimingModel::post_secure_slowdown),
        // with strength scaled by how busy the machine was — interrupting a
        // loaded machine disturbs more state (the paper's 6-task > 1-task
        // ordering in Figure 7).
        let n = self.cores.len();
        let busy = (0..n)
            .filter(|i| {
                let c = CoreId::new(*i);
                self.cores.running(c).is_some() || self.sched.queue_len(c) > 0
            })
            .count();
        let strength = 0.85 + 0.15 * busy as f64 / n as f64;
        let pollution_until = resume + self.platform.timing().pollution_window;
        self.cores.open_pollution_window(pollution_until, strength);
        self.trace.record(
            now,
            TraceCategory::SecureExit,
            format!("{core} residency={residency}"),
        );
        self.sim.schedule_at(resume, SysEvent::Dispatch { core });
    }
}
