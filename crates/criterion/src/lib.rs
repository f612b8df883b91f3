//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to a crate registry, so this crate
//! provides the subset of the criterion API the workspace's benches use —
//! [`Criterion::bench_function`], benchmark groups, [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`criterion_group!`] and [`criterion_main!`] —
//! backed by a simple wall-clock timer. Each benchmark runs a short warm-up
//! followed by `sample_size` timed samples and prints the median per-iteration
//! time. It reports no statistics beyond that and performs no outlier
//! analysis; it exists so `cargo bench` keeps working offline.

use std::time::{Duration, Instant};

/// Re-export so `criterion::black_box` call sites keep working.
pub use std::hint::black_box;

/// Batch sizing hints for [`Bencher::iter_batched`] (accepted, not acted on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// The measurement driver handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            samples: Vec::with_capacity(sample_size),
            sample_size,
        }
    }

    /// Times `routine`, running it once per sample after one warm-up call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        for _ in 0..self.sample_size {
            // Real throughput is the measurand of a benchmark stand-in.
            #[allow(clippy::disallowed_methods)]
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Times `routine` over inputs built by `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        for _ in 0..self.sample_size {
            let input = setup();
            // Real throughput is the measurand of a benchmark stand-in.
            #[allow(clippy::disallowed_methods)]
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }

    fn median(&mut self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        self.samples.sort_unstable();
        Some(self.samples[self.samples.len() / 2])
    }
}

/// Top-level benchmark registry.
#[derive(Debug, Default)]
pub struct Criterion {
    sample_size: usize,
}

impl Criterion {
    /// Creates a driver with the default sample size (20).
    pub fn new() -> Self {
        Criterion { sample_size: 20 }
    }

    /// Reads configuration from the command line (accepted, not acted on).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<R: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: R,
    ) -> &mut Self {
        run_one(&id.into(), self.sample_size, &mut f);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Annotates the group's throughput (accepted, not acted on).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<R: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: R,
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, id.into()),
            self.sample_size,
            &mut f,
        );
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

fn run_one<R: FnMut(&mut Bencher)>(id: &str, sample_size: usize, f: &mut R) {
    let mut b = Bencher::new(sample_size);
    f(&mut b);
    match b.median() {
        Some(d) => println!("bench {id:<50} median {d:>12.3?} ({sample_size} samples)"),
        None => println!("bench {id:<50} no samples recorded"),
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::new();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_samples() {
        let mut c = Criterion::new();
        c.sample_size(3);
        let mut runs = 0u32;
        c.bench_function("smoke", |b| b.iter(|| runs += 1));
        // one warm-up + three samples
        assert_eq!(runs, 4);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut b = Bencher::new(2);
        let mut setups = 0u32;
        b.iter_batched(
            || {
                setups += 1;
            },
            |()| (),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 3);
        assert_eq!(b.samples.len(), 2);
    }
}
