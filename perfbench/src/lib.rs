//! Host-time benchmark of the SATIN reproduction, measured from outside
//! the program: it times calls into public entry points and observes
//! through two public seams (see [`trace`]). `src/main.rs` holds the
//! workloads; `README.md` explains the metrics and why each workload exists.

pub mod cells;
pub mod trace;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("sim_s_per_host_s", "s/s"),
    ("warm_ms_p50", "ms"),
    ("cold_ms_p50", "ms"),
];

/// Per-layer metrics that do not come in one-per-event-kind families.
const LAYER_METRICS: [(&str, &str); 30] = [
    ("sim.events", "count"),
    ("sim.events_per_sim_s", "1/s"),
    ("sim.queue_depth_max", "count"),
    ("sim.ns_per_event", "ns"),
    ("secure.boot_ms", "ms"),
    ("secure.timer_us", "us"),
    ("secure.scan_result_us", "us"),
    ("secure.bytes_scanned", "bytes"),
    ("secure.ns_per_byte", "ns"),
    ("secure.rounds", "count"),
    ("attack.observations", "count"),
    ("attack.prober_sessions", "count"),
    ("fig7.off_ms", "ms"),
    ("fig7.on_ms", "ms"),
    ("fig7.satin_host_share", "ratio"),
    ("setup.system_build_ms", "ms"),
    ("warm_ms_p99", "ms"),
    ("serve.ping_ms_p50", "ms"),
    ("serve.warm_job_ms", "ms"),
    ("serve.backend_ms", "ms"),
    ("serve.cold_overhead_ms", "ms"),
    ("serve.store_open_s", "s"),
    ("serve.store_cells", "count"),
    ("serve.event_lines", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.cells", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.sum_ratio", "ratio"),
    ("trace.traced_ops", "count"),
    ("trace.untraced_ops", "count"),
];

/// Every per-layer metric, in report order: `events.<kind>`,
/// `host_ns.<kind>` and `host_share.<kind>` for each event kind, then
/// [`LAYER_METRICS`].
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (family, unit) in [
        ("events", "count"),
        ("host_ns", "ns"),
        ("host_share", "ratio"),
    ] {
        out.extend(trace::KINDS.iter().map(|k| (format!("{family}.{k}"), unit)));
    }
    out.extend(LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// Pops (and pushes) per run of [`reference_kernel`].
const REFERENCE_STEPS: u64 = 500_000;

/// The reference kernel's nominal time: normalized times are in ms of a
/// host on which the kernel takes this long (about what it takes on an
/// idle 2-thread Xeon lane).
const REFERENCE_MS: f64 = 20.0;

/// Host-speed reference: a fixed churn of 64 timed entries through a
/// `BinaryHeap` with branchy delays, the kind of work the simulator's event
/// loop does. Being the benchmark's own code, no change to the program can
/// move it; timing it around each op cancels most of the drift in host
/// speed that other tenants cause (see [`SpeedIndex`] and `README.md`).
fn reference_kernel() -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> =
        (0..64).map(|id| Reverse((id * 1_000, id))).collect();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..REFERENCE_STEPS {
        let Some(Reverse((at, id))) = heap.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(at ^ id);
        let delay = match x % 3 {
            0 => 200_000,
            1 => 1_000 + x % 5_000,
            _ => 50,
        };
        heap.push(Reverse((at + delay, id)));
    }
    std::hint::black_box(acc)
}

/// Times one run of [`reference_kernel`] with `clock`, in ms.
fn reference_ms(clock: satin_obs::HostClock) -> f64 {
    let t0 = clock.now_ns();
    reference_kernel();
    (clock.now_ns() - t0) as f64 / 1e6
}

/// Scales host times measured between two [`reference_kernel`] runs to the
/// nominal host speed: each op is bracketed by kernel runs, and the op's
/// factor is [`REFERENCE_MS`] over their mean.
pub struct SpeedIndex {
    clock: satin_obs::HostClock,
    last_ms: f64,
    seen_ms: Vec<f64>,
}

impl SpeedIndex {
    /// Starts the index with one kernel run.
    pub fn new(clock: satin_obs::HostClock) -> Self {
        let last_ms = reference_ms(clock);
        SpeedIndex {
            clock,
            last_ms,
            seen_ms: vec![last_ms],
        }
    }

    /// Runs the kernel again and returns the factor for the op that ran
    /// since the previous run.
    pub fn factor(&mut self) -> f64 {
        let now_ms = reference_ms(self.clock);
        let factor = 2.0 * REFERENCE_MS / (self.last_ms + now_ms);
        self.last_ms = now_ms;
        self.seen_ms.push(now_ms);
        factor
    }

    /// Runs the kernel to open a new bracket, dropping the time since the
    /// previous run (work that is not measured).
    pub fn restart(&mut self) {
        self.last_ms = reference_ms(self.clock);
        self.seen_ms.push(self.last_ms);
    }

    /// The clock the index times with.
    pub fn clock(&self) -> satin_obs::HostClock {
        self.clock
    }

    /// Median kernel time so far, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.seen_ms).unwrap_or(0.0)
    }
}

/// SplitMix64 mixing: derives input lists, start points and think times
/// from a seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th campaign seed of the input list derived from `seed`; 32 bits
/// keep them readable in reports.
pub fn cell_seed(seed: u64, i: u64) -> u64 {
    mix(seed, i) >> 32
}

/// FNV-1a over the canonical result texts: the output digest a speed-up
/// must leave unchanged.
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut joined = String::new();
    for t in texts {
        joined.push_str(t);
        joined.push('\n');
    }
    satin_hash::hash_bytes(satin_hash::HashAlgorithm::Fnv1a, joined.as_bytes())
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; `None`
/// when there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len()) - 1).copied()
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}
