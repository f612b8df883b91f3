//! The hot-path performance trajectory: `repro bench --json BENCH_NNNN.json`.
//!
//! ROADMAP item 1 asks for committed `BENCH_*.json` snapshots so hot-path
//! performance becomes an auditable trajectory rather than folklore. This
//! module measures three groups in one process and emits one schema-stable
//! JSON document:
//!
//! - **`queue`** — event-queue churn: the timing-wheel [`EventQueue`]
//!   against the retained [`BaselineHeapQueue`] reference on the same
//!   push/pop program.
//! - **`hash_window`** — digesting a scan window: the slice-batched
//!   enum-dispatched path against the pre-refactor cost structure (a boxed
//!   `dyn KernelHasher` fed one byte per `update` call — the "virtual call
//!   per update, per-byte accounting" shape the refactor removed).
//! - **`seeds_per_sec`** — a synthetic seed model (fixed quanta of queue
//!   ops + window hashing per seed) measured in both cost structures, whose
//!   ratio is the headline speedup, plus a real end-to-end
//!   `detection::quick` campaign rate for the trajectory.
//!
//! The baseline sides are *models measured in the same binary*, not
//! checkouts of the old code: the heap queue is the literal pre-refactor
//! implementation, and the per-byte boxed hasher reproduces the old
//! per-byte recurrence behind the old dispatch mechanism. That makes every
//! number in one file comparable — same machine, same run, same compiler.
//!
//! Real throughput is the measurand here, so this module reads the wall
//! clock, but only through the `satin_obs::HostClock` doorway (clippy's
//! `disallowed_methods` rejects a raw `Instant::now`).

use crate::detection::{self, DetectionConfig};
use satin_hash::{HashAlgorithm, HasherKind};
use satin_obs::HostClock;
use satin_sim::{BaselineHeapQueue, EventQueue, SimTime};
use std::fmt::Write as _;

/// One measured benchmark: the median wall time of `samples` runs of a
/// fixed workload, normalized per inner unit.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Schema group: `queue`, `hash_window`, or `seeds_model`.
    pub group: &'static str,
    /// Entry name within the group.
    pub name: &'static str,
    /// Median nanoseconds per unit (per queue op, per byte, per seed).
    pub ns_per_unit: f64,
    /// Units per second (1e9 / `ns_per_unit`).
    pub per_sec: f64,
    /// The unit being counted.
    pub unit: &'static str,
    /// Number of timed samples the median was taken over.
    pub samples: usize,
}

/// The headline seeds/sec comparison plus the real campaign rate.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedsPerSec {
    /// Synthetic seed model on the pre-refactor cost structure
    /// (heap queue + boxed per-byte hashing).
    pub baseline_model: f64,
    /// The same model on the current hot path (wheel + batched hashing).
    pub current_model: f64,
    /// `current_model / baseline_model` — the acceptance-gate ratio.
    pub speedup: f64,
    /// Real seeds/sec of `detection::run(DetectionConfig::quick(..))`.
    pub campaign_quick: f64,
}

/// Host metadata stamped into a snapshot (schema 2+): which compiler and
/// machine produced the numbers, and how long the whole suite took. The
/// trajectory gate uses the `rustc` string as a host fingerprint — absolute
/// rates are only compared between snapshots whose fingerprints match.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMeta {
    /// `rustc --version` of the compiler that built this binary, passed in
    /// by the caller (the library does not shell out).
    pub rustc: String,
    /// Total wall-clock the bench suite took, nanoseconds.
    pub wall_ns: u64,
    /// Number of measured entries (a quick consistency check for readers).
    pub entries: usize,
}

/// The full report written to `BENCH_NNNN.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Snapshot identifier (`BENCH_0007`).
    pub id: &'static str,
    /// Schema version for the CI validator.
    pub schema: u32,
    /// `true` when run in quick mode (smaller windows, fewer samples).
    pub quick: bool,
    /// Master seed the campaign measurement used.
    pub seed: u64,
    /// Host metadata (schema 2).
    pub host: HostMeta,
    /// All measured entries.
    pub entries: Vec<BenchEntry>,
    /// The headline numbers.
    pub seeds_per_sec: SeedsPerSec,
}

/// Snapshot id for this PR's committed trajectory point.
pub const SNAPSHOT_ID: &str = "BENCH_0007";

/// Schema version understood by `ci.sh`'s validator: 2 adds the `host`
/// object (rustc fingerprint, suite wall-clock, entry count).
pub const SCHEMA_VERSION: u32 = 2;

/// Median of `samples` timed runs of `f`, in nanoseconds per run. One
/// untimed warm-up call precedes the timed ones.
fn median_ns<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            // Host-time measurement goes through the one sanctioned
            // doorway (satin-obs HostClock), never raw Instant.
            let clock = HostClock::start();
            std::hint::black_box(f());
            clock.now_ns() as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// The queue churn program both implementations run: `n` pushes over a
/// spread of near/far times, then a full drain. Mirrors the engine's
/// traffic: dense near-term tick/dispatch events with occasional far-future
/// timers (the overflow level).
fn queue_program_wheel(n: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut acc = 0u64;
    for i in 0..n {
        let t = if i % 97 == 0 {
            // Far future: past the ~1 ms wheel window.
            10_000_000 + i * 1_000
        } else {
            (i * 37) % 60_000
        };
        q.push(SimTime::from_nanos(t), i);
    }
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

/// Identical program on the reference heap.
fn queue_program_heap(n: u64) -> u64 {
    let mut q: BaselineHeapQueue<u64> = BaselineHeapQueue::new();
    let mut acc = 0u64;
    for i in 0..n {
        let t = if i % 97 == 0 {
            10_000_000 + i * 1_000
        } else {
            (i * 37) % 60_000
        };
        q.push(SimTime::from_nanos(t), i);
    }
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

/// Current hash path: enum dispatch, slice-batched update.
fn hash_batched(window: &[u8]) -> u64 {
    let mut h = HasherKind::new(HashAlgorithm::Djb2);
    h.update(window);
    h.finish()
}

/// Pre-refactor cost structure: a boxed trait object taking one virtual
/// `update` call per byte (the per-byte scan-accounting shape).
fn hash_boxed_per_byte(window: &[u8]) -> u64 {
    let mut h = HashAlgorithm::Djb2.new_hasher();
    for b in window.chunks(1) {
        h.update(b);
    }
    h.finish()
}

/// One synthetic seed on the current hot path: a fixed quantum of queue
/// churn plus one window digest.
fn seed_model_current(window: &[u8]) -> u64 {
    queue_program_wheel(2_000).wrapping_add(hash_batched(window))
}

/// The same quantum on the pre-refactor cost structure.
fn seed_model_baseline(window: &[u8]) -> u64 {
    queue_program_heap(2_000).wrapping_add(hash_boxed_per_byte(window))
}

/// Runs the full suite. `quick` shrinks windows and sample counts (the CI
/// smoke path); `--full` sizes match the committed snapshot. `rustc` is the
/// compiler version string to stamp into the snapshot's host metadata —
/// callers obtain it (e.g. `rustc --version`) because this library does
/// not spawn processes.
pub fn run(quick: bool, seed: u64, rustc: &str) -> BenchReport {
    let suite_clock = HostClock::start();
    let samples = if quick { 5 } else { 15 };
    let queue_events: u64 = if quick { 10_000 } else { 50_000 };
    let window_len: usize = if quick { 64 * 1024 } else { 1 << 20 };
    // Deterministic non-trivial window contents.
    let window: Vec<u8> = (0..window_len)
        .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect();

    let mut entries = Vec::new();

    let wheel_ns = median_ns(samples, || queue_program_wheel(queue_events));
    let heap_ns = median_ns(samples, || queue_program_heap(queue_events));
    // Each event is one push + one pop.
    let ops = (queue_events * 2) as f64;
    entries.push(entry("queue", "wheel_churn", wheel_ns / ops, "op", samples));
    entries.push(entry("queue", "heap_churn", heap_ns / ops, "op", samples));

    let batched_ns = median_ns(samples, || hash_batched(&window));
    let boxed_ns = median_ns(samples, || hash_boxed_per_byte(&window));
    let bytes = window.len() as f64;
    entries.push(entry(
        "hash_window",
        "djb2_batched",
        batched_ns / bytes,
        "byte",
        samples,
    ));
    entries.push(entry(
        "hash_window",
        "djb2_boxed_per_byte",
        boxed_ns / bytes,
        "byte",
        samples,
    ));

    let current_ns = median_ns(samples, || seed_model_current(&window));
    let baseline_ns = median_ns(samples, || seed_model_baseline(&window));
    entries.push(entry("seeds_model", "current", current_ns, "seed", samples));
    entries.push(entry(
        "seeds_model",
        "baseline",
        baseline_ns,
        "seed",
        samples,
    ));

    // Real end-to-end rate: a quick detection campaign, one timed run
    // (its internal work dwarfs timer resolution).
    let campaign_samples = if quick { 1 } else { 3 };
    let campaign_ns = median_ns(campaign_samples, || {
        detection::run(DetectionConfig::quick(seed)).rounds
    });

    let host = HostMeta {
        rustc: rustc.to_string(),
        wall_ns: suite_clock.now_ns(),
        entries: entries.len(),
    };
    BenchReport {
        id: SNAPSHOT_ID,
        schema: SCHEMA_VERSION,
        quick,
        seed,
        host,
        entries,
        seeds_per_sec: SeedsPerSec {
            baseline_model: 1e9 / baseline_ns,
            current_model: 1e9 / current_ns,
            speedup: baseline_ns / current_ns,
            campaign_quick: 1e9 / campaign_ns,
        },
    }
}

fn entry(
    group: &'static str,
    name: &'static str,
    ns_per_unit: f64,
    unit: &'static str,
    samples: usize,
) -> BenchEntry {
    BenchEntry {
        group,
        name,
        ns_per_unit,
        per_sec: 1e9 / ns_per_unit,
        unit,
        samples,
    }
}

impl BenchReport {
    /// Serializes the report (hand-rolled, like the telemetry report — no
    /// serde in the workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"id\": \"{}\",", self.id);
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(
            out,
            "  \"host\": {{\"rustc\": \"{}\", \"wall_ns\": {}, \"entries\": {}}},",
            satin_telemetry::json_escape(&self.host.rustc),
            self.host.wall_ns,
            self.host.entries
        );
        let _ = writeln!(out, "  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"group\": \"{}\", \"name\": \"{}\", \"ns_per_unit\": {:.4}, \
                 \"per_sec\": {:.1}, \"unit\": \"{}\", \"samples\": {}}}{comma}",
                e.group, e.name, e.ns_per_unit, e.per_sec, e.unit, e.samples
            );
        }
        let _ = writeln!(out, "  ],");
        let s = &self.seeds_per_sec;
        let _ = writeln!(out, "  \"seeds_per_sec\": {{");
        let _ = writeln!(out, "    \"baseline_model\": {:.2},", s.baseline_model);
        let _ = writeln!(out, "    \"current_model\": {:.2},", s.current_model);
        let _ = writeln!(out, "    \"speedup\": {:.2},", s.speedup);
        let _ = writeln!(out, "    \"campaign_quick\": {:.3}", s.campaign_quick);
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }
}

impl std::fmt::Display for BenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} ({} mode, seed {})",
            self.id,
            if self.quick { "quick" } else { "full" },
            self.seed
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "  {:<12} {:<22} {:>12.3} ns/{:<5} {:>16.0} {}/s",
                e.group, e.name, e.ns_per_unit, e.unit, e.per_sec, e.unit
            )?;
        }
        let s = &self.seeds_per_sec;
        writeln!(
            f,
            "  seeds/sec: baseline(model) {:.0}  current(model) {:.0}  speedup {:.2}x  campaign(quick) {:.2}",
            s.baseline_model, s.current_model, s.speedup, s.campaign_quick
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cost models agree on results (they are the same computation in
    /// two cost structures), so the speedup ratio measures dispatch and
    /// layout alone.
    #[test]
    fn models_compute_identical_results() {
        let window: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
        assert_eq!(queue_program_wheel(3_000), queue_program_heap(3_000));
        assert_eq!(hash_batched(&window), hash_boxed_per_byte(&window));
        assert_eq!(seed_model_current(&window), seed_model_baseline(&window));
    }

    #[test]
    fn json_is_schema_shaped() {
        let report = BenchReport {
            id: SNAPSHOT_ID,
            schema: SCHEMA_VERSION,
            quick: true,
            seed: 7,
            host: HostMeta {
                rustc: "rustc 1.0.0 (\"quoted\")".to_string(),
                wall_ns: 1_234_567,
                entries: 1,
            },
            entries: vec![super::entry("queue", "wheel_churn", 12.5, "op", 5)],
            seeds_per_sec: SeedsPerSec {
                baseline_model: 10.0,
                current_model: 40.0,
                speedup: 4.0,
                campaign_quick: 2.5,
            },
        };
        let json = report.to_json();
        for needle in [
            "\"id\": \"BENCH_0007\"",
            "\"schema\": 2",
            "\"host\": {\"rustc\": \"rustc 1.0.0 (\\\"quoted\\\")\", \"wall_ns\": 1234567, \"entries\": 1},",
            "\"entries\": [",
            "\"group\": \"queue\"",
            "\"seeds_per_sec\": {",
            "\"speedup\": 4.00",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
