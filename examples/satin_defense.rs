//! The paper's §VI-B1 defense result: SATIN vs TZ-Evader.
//!
//! SATIN divides the kernel into 19 System.map areas (each below the §V-B
//! safety bound), wakes a random core at a random time via the secure-timer
//! wake-up queue, and finishes each round before the evader can clean its
//! traces. Every check of the attacked area detects the hijack.
//!
//! ```sh
//! cargo run --release --example satin_defense            # scaled (tp = 1s)
//! cargo run --release --example satin_defense -- --paper # tp = 8s, 190 rounds
//! ```

use satin::attack::{TzEvader, TzEvaderConfig};
use satin::prelude::*;

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let (tgoal, rounds) = if paper_scale {
        (SatinConfig::paper().tgoal, 190) // the paper's exact campaign
    } else {
        (SimDuration::from_secs(19), 57) // 8× faster cadence, 3 sweeps
    };

    let mut sys = SystemBuilder::new().seed(1906).trace(false).build();
    let mut cfg = SatinConfig::paper();
    cfg.tgoal = tgoal;
    let (satin, handle) = Satin::new(cfg);
    sys.install_secure_service(satin);
    let evader = TzEvader::deploy(&mut sys, TzEvaderConfig::paper_default());

    println!(
        "running until SATIN completes {rounds} rounds (tp = {:.1}s)…",
        tgoal.as_secs_f64() / 19.0
    );
    while handle.round_count() < rounds {
        sys.run_for(tgoal / 19);
    }

    let area = satin::mem::PAPER_SYSCALL_AREA;
    let rounds_done = handle.rounds();
    let area_checks: Vec<_> = rounds_done.iter().filter(|r| r.area == area).collect();
    let caught = area_checks.iter().filter(|r| r.tampered).count();
    let live = area_checks
        .iter()
        .filter(|r| evader.rootkit.was_active_at(r.fired))
        .count();

    println!(
        "--- after {:.0}s of simulated time ---",
        sys.now().as_secs_f64()
    );
    println!(
        "rounds: {}   full sweeps: {}",
        rounds_done.len(),
        handle.full_sweeps()
    );
    println!(
        "area-{area} checks: {} (hijack live at {} of them) — detected {}",
        area_checks.len(),
        live,
        caught
    );
    if let Some(gap) = handle.mean_check_gap_secs(area) {
        println!("mean gap between area-{area} checks: {gap:.1}s (paper: ≈141s at tp = 8s)");
    }
    println!(
        "prober sessions seen by the evader: {}",
        evader
            .channel
            .distinct_sessions(SimDuration::from_millis(100))
            .len()
    );
    let (hides, completed, _) = evader.channel.lifecycle_counts();
    println!("evader hides started/completed: {hides}/{completed}");

    assert!(caught >= 1, "SATIN must catch the hijack");
    assert_eq!(
        caught, live,
        "every check against the live hijack must win the race"
    );
    println!("SATIN detected every attacked check — as in the paper");
}
