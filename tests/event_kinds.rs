//! Events per kind for one quick `juno-r1` detection cell, pinned exactly.
//!
//! The simulated event stream is deterministic and host-independent, so the
//! number of events a cell dispatches, split by [`SysEvent`] kind, is a
//! sim-domain fact: a change that adds or removes events (on purpose or
//! not) changes this snapshot. It extends the `events_dispatched` line the
//! `seed_*.snap` golden traces pin to the cell the campaigns actually run.
//!
//! The counts come through the machine's observer seat
//! (`System::set_sim_observer`). Regenerate intentionally with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test event_kinds
//! ```

use satin::attack::{TzEvader, TzEvaderConfig};
use satin::core::Satin;
use satin::scenario::Scenario;
use satin::sim::{SimDuration, SimObserver, SimTime};
use satin::system::{SysEvent, SystemBuilder};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

const SEED: u64 = 42;

/// Event kinds in snapshot order.
const KINDS: [&str; 6] = [
    "tick",
    "task_wake",
    "dispatch",
    "task_done",
    "secure_fire",
    "secure_done",
];

/// Per-kind dispatch counts plus the queue's high-water mark.
#[derive(Debug, Default)]
struct Counts {
    events: [u64; 6],
    queue_depth_max: usize,
}

struct KindCounter(Rc<RefCell<Counts>>);

impl SimObserver<SysEvent> for KindCounter {
    fn on_scheduled(&mut self, _: SimTime, _: u64, _: &SysEvent, queue_depth: usize) {
        let mut c = self.0.borrow_mut();
        c.queue_depth_max = c.queue_depth_max.max(queue_depth);
    }

    fn on_dispatched(&mut self, _: SimTime, _: u64, event: &SysEvent, _: usize) {
        let kind = match event {
            SysEvent::TickBoundary { .. } => 0,
            SysEvent::TaskWake { .. } => 1,
            SysEvent::Dispatch { .. } => 2,
            SysEvent::TaskDone { .. } => 3,
            SysEvent::SecureTimerFire { .. } => 4,
            SysEvent::SecureDone { .. } => 5,
        };
        self.0.borrow_mut().events[kind] += 1;
    }
}

/// The quick detection cell (`DetectionConfig::quick`: 57 rounds, `Tgoal`
/// 19 s) assembled as `detection::try_run_scenario` assembles it, with the
/// counter installed.
fn run_cell(seed: u64) -> String {
    let scenario = Scenario::paper();
    let rounds = 57;
    let tgoal = SimDuration::from_secs(19);
    let counts = Rc::new(RefCell::new(Counts::default()));
    let mut sys = SystemBuilder::new()
        .seed(seed)
        .scenario(&scenario)
        .fault_attempt(1)
        .trace(false)
        .telemetry(false)
        .build();
    sys.set_sim_observer(Box::new(KindCounter(Rc::clone(&counts))));
    let mut cfg = scenario.defense;
    cfg.tgoal = tgoal;
    let (satin, handle) = Satin::new(cfg);
    sys.try_install_secure_service(satin).unwrap();
    let _evader = TzEvader::deploy(&mut sys, TzEvaderConfig::from_profile(&scenario.attack));

    let slice = tgoal / 19;
    let hard_stop = SimTime::ZERO + tgoal * 40;
    while handle.round_count() < rounds && sys.now() < hard_stop {
        sys.run_for(slice);
    }

    let c = counts.borrow();
    let mut out = String::new();
    writeln!(
        out,
        "# events per kind, quick juno-r1 detection cell, seed {seed}"
    )
    .unwrap();
    for (name, n) in KINDS.iter().zip(c.events) {
        writeln!(out, "events.{name} {n}").unwrap();
    }
    writeln!(out, "events.total {}", c.events.iter().sum::<u64>()).unwrap();
    writeln!(out, "events_dispatched {}", sys.events_dispatched()).unwrap();
    writeln!(out, "queue_depth_max {}", c.queue_depth_max).unwrap();
    writeln!(out, "satin_rounds {}", handle.round_count()).unwrap();
    writeln!(out, "simulated_ns {}", sys.now().as_nanos()).unwrap();
    out
}

#[test]
fn quick_cell_events_per_kind_match_snapshot() {
    let got = run_cell(SEED);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("event_kinds_seed_{SEED}.snap"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with GOLDEN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "events per kind diverged from {}",
        path.display()
    );
}
