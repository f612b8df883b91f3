//! The cache-or-compute fold over one campaign job.
//!
//! A job is `scenario × seed list`; [`JobService::run_job`] answers each
//! cell from the [`ResultStore`] when it can and hands **only** the missing
//! seeds to a backend closure (the simulator — injected so this crate stays
//! independent of the bench harness). Fresh rows are persisted before the
//! job reports, so the next identical submit is all hits.
//!
//! Byte-identity by construction: the report is rendered by
//! [`render_report`], a pure function of the scenario and the ordered
//! `(seed, record)` rows — it cannot see whether a row came from the cache
//! or from a simulation, so a warm replay produces the same bytes as the
//! cold run that populated it. Hit/miss telemetry rides only on the event
//! stream (`job.accepted` / `job.cache_hit` / `job.finished`) and the
//! daemon's stderr, never in the report.

use crate::key::{code_fingerprint, job_id, JobKey};
use crate::store::{CellRecord, ResultStore};
use satin_obs::{EventStream, ObsEvent};
use satin_scenario::Scenario;
use satin_stats::table::{Align, Table};

/// What one [`JobService::run_job`] call produced.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's canonical event stream: `job.accepted`, one
    /// `job.cache_hit` per answered cell, the backend's campaign events for
    /// the fresh cells, then `job.finished`.
    pub stream: EventStream,
    /// The rendered per-seed report (cache-blind; see module docs).
    pub report: String,
    /// Cells answered from the store.
    pub hits: usize,
    /// Cells the backend had to simulate.
    pub fresh: usize,
}

/// The store plus the code fingerprint all its keys are minted under.
#[derive(Debug)]
pub struct JobService {
    store: ResultStore,
    code: u64,
}

impl JobService {
    /// A service answering under this build's [`code_fingerprint`].
    pub fn new(store: ResultStore) -> Self {
        JobService::with_code(store, code_fingerprint())
    }

    /// A service with an explicit code fingerprint (tests pin it so a
    /// rebuild cannot silently invalidate their fixtures).
    pub(crate) fn with_code(store: ResultStore, code: u64) -> Self {
        JobService { store, code }
    }

    /// The backing store.
    pub(crate) fn store(&self) -> &ResultStore {
        &self.store
    }

    /// The fingerprint keys are minted under.
    pub(crate) fn code(&self) -> u64 {
        self.code
    }

    /// Runs one job. `backend` is invoked at most once, with exactly the
    /// seeds the store could not answer (order preserved; a fully-cached
    /// job never calls it). `sink` sees every event with its final sequence
    /// number as it is appended — the daemon streams lines to the client
    /// from it while the job is still running.
    ///
    /// # Errors
    ///
    /// The backend returning the wrong number of records, or the store
    /// failing to persist a fresh row.
    pub fn run_job<B, S>(
        &mut self,
        scenario: &Scenario,
        seeds: &[u64],
        backend: B,
        mut sink: S,
    ) -> Result<JobOutcome, String>
    where
        B: FnOnce(&Scenario, &[u64]) -> (Vec<CellRecord>, EventStream),
        S: FnMut(u64, &ObsEvent),
    {
        let job = job_id(scenario, self.code);
        let mut stream = EventStream::new();
        let emit = |stream: &mut EventStream, sink: &mut S, ev: ObsEvent| {
            sink(stream.len() as u64, &ev);
            stream.push(ev);
        };
        emit(
            &mut stream,
            &mut sink,
            ObsEvent::JobAccepted {
                job: job.clone(),
                cells: seeds.len(),
            },
        );
        let mut rows: Vec<Option<CellRecord>> = vec![None; seeds.len()];
        let mut missing: Vec<(usize, u64)> = Vec::new();
        for (cell, &seed) in seeds.iter().enumerate() {
            let key = JobKey::of(scenario, seed, self.code);
            if let Some(rec) = self.store.get(&key) {
                rows[cell] = Some(rec.clone());
                emit(
                    &mut stream,
                    &mut sink,
                    ObsEvent::JobCacheHit {
                        job: job.clone(),
                        cell,
                        seed,
                    },
                );
            } else {
                missing.push((cell, seed));
            }
        }
        let fresh = missing.len();
        let hits = seeds.len() - fresh;
        if fresh > 0 {
            let miss_seeds: Vec<u64> = missing.iter().map(|&(_, seed)| seed).collect();
            let (records, backend_stream) = backend(scenario, &miss_seeds);
            if records.len() != miss_seeds.len() {
                return Err(format!(
                    "backend returned {} record(s) for {} missing seed(s)",
                    records.len(),
                    miss_seeds.len()
                ));
            }
            for ev in backend_stream.events() {
                emit(&mut stream, &mut sink, ev.clone());
            }
            for (&(cell, seed), rec) in missing.iter().zip(records) {
                // First-write-wins handles a seed listed twice in one job:
                // the second put is a no-op on disk, both cells get the row.
                self.store
                    .put(JobKey::of(scenario, seed, self.code), rec.clone())?;
                rows[cell] = Some(rec);
            }
        }
        emit(
            &mut stream,
            &mut sink,
            ObsEvent::JobFinished { job, hits, fresh },
        );
        let rows: Vec<(u64, CellRecord)> = seeds
            .iter()
            .copied()
            .zip(rows.into_iter().map(|r| r.expect("every cell resolved")))
            .collect();
        Ok(JobOutcome {
            stream,
            report: render_report(scenario, &rows),
            hits,
            fresh,
        })
    }
}

/// Renders the job report: header plus one table row per cell, mirroring
/// the `repro faults` columns. Pure in `(scenario, rows)` — deliberately
/// blind to cache provenance (see module docs).
pub fn render_report(scenario: &Scenario, rows: &[(u64, CellRecord)]) -> String {
    let mut out = format!(
        "== Campaign service: {} x {} seed(s), {} round(s)/cell ==\n",
        scenario.name,
        rows.len(),
        scenario.campaign.rounds
    );
    let mut t = Table::new(vec![
        "Seed".into(),
        "Outcome".into(),
        "Attempts".into(),
        "Rounds".into(),
        "Detected".into(),
        "Faults".into(),
        "Error".into(),
    ]);
    for c in 0..=5 {
        t.align(c, Align::Right);
    }
    for (seed, rec) in rows {
        let (status, rounds, detected, faults) = if rec.ok {
            (
                "ok",
                rec.rounds.to_string(),
                rec.detections.to_string(),
                rec.faults_injected.to_string(),
            )
        } else {
            ("FAILED", "-".into(), "-".into(), "-".into())
        };
        t.row(vec![
            seed.to_string(),
            status.into(),
            rec.attempts.to_string(),
            rounds,
            detected,
            faults,
            if rec.error.is_empty() {
                "-".into()
            } else {
                rec.error.clone()
            },
        ]);
    }
    out.push_str(&t.to_string());
    let failed = rows.iter().filter(|(_, r)| !r.ok).count();
    out.push_str(&format!(
        "{} cell(s), {} ok, {} failed\n",
        rows.len(),
        rows.len() - failed,
        failed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "satin-serve-svc-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    /// A deterministic stand-in simulator: seed 42 "fails", others pass
    /// with seed-derived counters. Emits no campaign events (the bench
    /// integration test covers real streams).
    fn stub_backend(
        invocations: &AtomicUsize,
    ) -> impl Fn(&Scenario, &[u64]) -> (Vec<CellRecord>, EventStream) + '_ {
        move |_sc, seeds| {
            invocations.fetch_add(1, Ordering::Relaxed);
            let records = seeds
                .iter()
                .map(|&s| {
                    if s == 42 {
                        CellRecord {
                            ok: false,
                            attempts: 2,
                            rounds: 0,
                            detections: 0,
                            faults_injected: 0,
                            error: "injected abort".into(),
                        }
                    } else {
                        CellRecord {
                            ok: true,
                            attempts: 1,
                            rounds: 19 + s,
                            detections: 1,
                            faults_injected: s % 3,
                            error: String::new(),
                        }
                    }
                })
                .collect();
            (records, EventStream::new())
        }
    }

    fn event_names(stream: &EventStream) -> Vec<&'static str> {
        stream.events().iter().map(ObsEvent::name).collect()
    }

    #[test]
    fn warm_replay_is_byte_identical_and_never_simulates() {
        let path = scratch("warm");
        let seeds = [7u64, 42, 1009];
        let calls = AtomicUsize::new(0);
        let mut svc = JobService::with_code(ResultStore::open(&path).expect("open"), 0xfeed_beef);
        let scenario = Scenario::paper();
        let cold = svc
            .run_job(&scenario, &seeds, stub_backend(&calls), |_, _| {})
            .expect("cold job");
        assert_eq!((cold.hits, cold.fresh), (0, 3));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(
            event_names(&cold.stream),
            ["job.accepted", "job.finished"],
            "no cache hits on a cold store"
        );

        // Warm replay through a REOPENED store: must answer purely from
        // disk, byte-for-byte, without touching the backend.
        let mut svc = JobService::with_code(ResultStore::open(&path).expect("reopen"), 0xfeed_beef);
        let never = |_: &Scenario, _: &[u64]| -> (Vec<CellRecord>, EventStream) {
            panic!("warm replay must not simulate")
        };
        let mut seen: Vec<(u64, String)> = Vec::new();
        let warm = svc
            .run_job(&scenario, &seeds, never, |seq, ev| {
                seen.push((seq, ev.name().to_string()));
            })
            .expect("warm job");
        assert_eq!(warm.report, cold.report, "cache must replay exact bytes");
        assert_eq!((warm.hits, warm.fresh), (3, 0));
        assert_eq!(
            event_names(&warm.stream),
            [
                "job.accepted",
                "job.cache_hit",
                "job.cache_hit",
                "job.cache_hit",
                "job.finished"
            ]
        );
        // The sink saw every event, numbered in stream order.
        assert_eq!(seen.len(), warm.stream.len());
        assert!(seen
            .iter()
            .enumerate()
            .all(|(i, (seq, _))| *seq == i as u64));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partial_hits_simulate_only_the_missing_seeds() {
        let path = scratch("partial");
        let calls = AtomicUsize::new(0);
        let mut svc = JobService::with_code(ResultStore::open(&path).expect("open"), 0xfeed_beef);
        let scenario = Scenario::paper();
        svc.run_job(&scenario, &[7], stub_backend(&calls), |_, _| {})
            .expect("seed 7");
        let mut simulated: Vec<u64> = Vec::new();
        let spy = |_: &Scenario, miss: &[u64]| {
            simulated.extend_from_slice(miss);
            stub_backend(&calls)(&Scenario::paper(), miss)
        };
        let out = svc
            .run_job(&scenario, &[7, 42, 1009], spy, |_, _| {})
            .expect("mixed job");
        assert_eq!((out.hits, out.fresh), (1, 2));
        assert_eq!(simulated, [42, 1009], "seed 7 must come from the store");
        // Report rows keep submission order regardless of provenance.
        let lines: Vec<&str> = out.report.lines().collect();
        let row_order: Vec<&str> = lines
            .iter()
            .filter(|l| l.contains(" ok ") || l.contains("FAILED"))
            .map(|l| l.split_whitespace().next().expect("seed column"))
            .collect();
        assert_eq!(row_order, ["7", "42", "1009"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn code_fingerprint_partitions_the_cache() {
        let path = scratch("code");
        let calls = AtomicUsize::new(0);
        let scenario = Scenario::paper();
        let mut old = JobService::with_code(ResultStore::open(&path).expect("open"), 1);
        old.run_job(&scenario, &[7], stub_backend(&calls), |_, _| {})
            .expect("old code");
        // Same store file, bumped fingerprint: everything is a miss again.
        let mut new = JobService::with_code(ResultStore::open(&path).expect("reopen"), 2);
        let out = new
            .run_job(&scenario, &[7], stub_backend(&calls), |_, _| {})
            .expect("new code");
        assert_eq!((out.hits, out.fresh), (0, 1));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_seeds_in_one_job_resolve_every_cell() {
        let path = scratch("dup");
        let calls = AtomicUsize::new(0);
        let mut svc = JobService::with_code(ResultStore::open(&path).expect("open"), 0xfeed_beef);
        let out = svc
            .run_job(&Scenario::paper(), &[7, 7], stub_backend(&calls), |_, _| {})
            .expect("dup job");
        assert_eq!((out.hits, out.fresh), (0, 2));
        // Both rows present and identical; only one line on disk.
        assert_eq!(svc.store().len(), 1);
        let rows: Vec<&str> = out.report.lines().filter(|l| l.contains(" ok ")).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], rows[1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_backend_is_an_error_not_a_panic() {
        let path = scratch("short");
        let mut svc = JobService::with_code(ResultStore::open(&path).expect("open"), 0xfeed_beef);
        let short = |_: &Scenario, _: &[u64]| (Vec::new(), EventStream::new());
        let err = svc
            .run_job(&Scenario::paper(), &[7, 42], short, |_, _| {})
            .expect_err("short backend");
        assert!(err.contains("0 record(s) for 2"), "err: {err}");
        let _ = std::fs::remove_file(&path);
    }
}
