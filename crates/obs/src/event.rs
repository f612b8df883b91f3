//! The canonical campaign event vocabulary and its JSONL wire format.
//!
//! Every [`ObsEvent`] carries **sim-domain content only**: cell indices,
//! seeds, attempt counts, and static labels — all pure functions of the
//! campaign's inputs. No wall-clock timestamps, no OS worker ids, no host
//! metadata. That restriction (the two-clocks rule, DESIGN.md §14) is what
//! makes the merged stream byte-identical for any `--jobs` count: the
//! stream describes *what the campaign did*, never *how fast this machine
//! happened to run it*. Host-side observations live in
//! [`crate::stream::LiveEvent`] and [`crate::host`], and are never
//! serialized here.
//!
//! The wire format is one JSON object per line with a fixed key order:
//!
//! ```text
//! {"v":1,"seq":12,"event":"cell.retried","cell":1,"seed":42,"attempt":1,"error":"..."}
//! ```
//!
//! `v` is [`EVENT_SCHEMA_VERSION`]; `seq` is assigned at serialization time
//! over the fully merged stream (gapless, strictly increasing from 0) so a
//! consumer can detect truncation. Keys appear in schema order — `v`,
//! `seq`, `event`, then the event-specific fields in declaration order —
//! so the output is stable enough for golden snapshots and byte `cmp`.

use satin_telemetry::json_escape;
use std::fmt::Write as _;

/// Version stamped into every event line as `"v"`. Bump when a field is
/// renamed, removed, or reordered; adding a new event kind is backward
/// compatible and does not require a bump.
pub const EVENT_SCHEMA_VERSION: u32 = 1;

/// One campaign lifecycle event, sim-domain only.
///
/// Variants mirror the runner's life of a campaign cell: the campaign
/// starts, each cell is handed to a worker, attempted (possibly several
/// times under a fault plan, with faults armed per attempt), and either
/// finishes or is salvaged as a `Failed` row after retries are exhausted;
/// finally the campaign closes with aggregate counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEvent {
    /// The campaign began: a human label and how many cells it will run.
    CampaignStarted {
        /// Campaign label, e.g. `"faults/smoke"` or `"grid/builtins"`.
        label: String,
        /// Total number of cells the campaign will execute.
        cells: usize,
    },
    /// A cell was pulled off the shared work queue.
    ///
    /// Deliberately does **not** say *which* worker took it — that is a
    /// scheduling accident, reported only on the live channel.
    WorkerAssigned {
        /// Cell index in campaign input order.
        cell: usize,
        /// The seed driving this cell.
        seed: u64,
    },
    /// A cell began executing.
    CellStarted {
        /// Cell index in campaign input order.
        cell: usize,
        /// The seed driving this cell.
        seed: u64,
        /// Cell identity label, e.g. `"juno-r1/s42"`.
        label: String,
    },
    /// One attempt at a cell began (1-based; retries increment it).
    CellAttempt {
        /// Cell index in campaign input order.
        cell: usize,
        /// The seed driving this cell.
        seed: u64,
        /// Attempt number, starting at 1.
        attempt: u32,
    },
    /// A fault from the active plan is armed for this attempt.
    FaultArmed {
        /// Cell index in campaign input order.
        cell: usize,
        /// The seed driving this cell.
        seed: u64,
        /// Canonical fault counter name, e.g. `"fault.dropped_pub"`.
        fault: String,
    },
    /// An attempt failed and the cell will be retried.
    CellRetried {
        /// Cell index in campaign input order.
        cell: usize,
        /// The seed driving this cell.
        seed: u64,
        /// The attempt number that failed.
        attempt: u32,
        /// The error that triggered the retry.
        error: String,
    },
    /// Retries were exhausted; the cell is salvaged as a `Failed` row.
    CellSalvaged {
        /// Cell index in campaign input order.
        cell: usize,
        /// The seed driving this cell.
        seed: u64,
        /// Total attempts consumed.
        attempts: u32,
        /// The final error.
        error: String,
    },
    /// The cell completed successfully.
    CellFinished {
        /// Cell index in campaign input order.
        cell: usize,
        /// The seed driving this cell.
        seed: u64,
        /// Total attempts consumed (1 if it succeeded first try).
        attempts: u32,
    },
    /// The campaign closed with aggregate counts.
    CampaignFinished {
        /// Total cells executed.
        cells: usize,
        /// Cells that completed successfully.
        ok: usize,
        /// Cells salvaged as failed.
        failed: usize,
        /// Total retry events across all cells.
        retries: usize,
    },
    /// A campaign job was accepted by the serve daemon.
    ///
    /// `job` is the content-addressed job identity (scenario, fault-plan,
    /// and code hashes) rendered as a stable string — pure input data, so
    /// the stream stays deterministic.
    JobAccepted {
        /// Content-addressed job identity.
        job: String,
        /// Cells (seeds) the job covers.
        cells: usize,
    },
    /// One cell of a job was answered from the result store without
    /// simulating.
    JobCacheHit {
        /// Content-addressed job identity.
        job: String,
        /// Cell index in job input order.
        cell: usize,
        /// The seed the cached cell was keyed by.
        seed: u64,
    },
    /// A job completed: how many cells came from the store vs fresh runs.
    JobFinished {
        /// Content-addressed job identity.
        job: String,
        /// Cells answered from the store.
        hits: usize,
        /// Cells simulated fresh.
        fresh: usize,
    },
}

impl ObsEvent {
    /// The event's wire name (`"event"` field value).
    pub fn name(&self) -> &'static str {
        match self {
            ObsEvent::CampaignStarted { .. } => "campaign.started",
            ObsEvent::WorkerAssigned { .. } => "worker.assigned",
            ObsEvent::CellStarted { .. } => "cell.started",
            ObsEvent::CellAttempt { .. } => "cell.attempt",
            ObsEvent::FaultArmed { .. } => "cell.fault_armed",
            ObsEvent::CellRetried { .. } => "cell.retried",
            ObsEvent::CellSalvaged { .. } => "cell.salvaged",
            ObsEvent::CellFinished { .. } => "cell.finished",
            ObsEvent::CampaignFinished { .. } => "campaign.finished",
            ObsEvent::JobAccepted { .. } => "job.accepted",
            ObsEvent::JobCacheHit { .. } => "job.cache_hit",
            ObsEvent::JobFinished { .. } => "job.finished",
        }
    }

    /// The cell index this event concerns, if it is cell-scoped.
    #[cfg(test)]
    pub(crate) fn cell(&self) -> Option<usize> {
        match self {
            ObsEvent::WorkerAssigned { cell, .. }
            | ObsEvent::CellStarted { cell, .. }
            | ObsEvent::CellAttempt { cell, .. }
            | ObsEvent::FaultArmed { cell, .. }
            | ObsEvent::CellRetried { cell, .. }
            | ObsEvent::CellSalvaged { cell, .. }
            | ObsEvent::CellFinished { cell, .. }
            | ObsEvent::JobCacheHit { cell, .. } => Some(*cell),
            ObsEvent::CampaignStarted { .. }
            | ObsEvent::CampaignFinished { .. }
            | ObsEvent::JobAccepted { .. }
            | ObsEvent::JobFinished { .. } => None,
        }
    }

    /// Renders the event as one JSONL line (no trailing newline) with the
    /// given stream-global sequence number.
    ///
    /// Key order is fixed (`v`, `seq`, `event`, then event fields in
    /// declaration order) so identical streams serialize byte-identically.
    pub fn jsonl_line(&self, seq: u64) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            r#"{{"v":{EVENT_SCHEMA_VERSION},"seq":{seq},"event":"{}""#,
            self.name()
        );
        match self {
            ObsEvent::CampaignStarted { label, cells } => {
                let _ = write!(out, r#","label":"{}","cells":{cells}"#, json_escape(label));
            }
            ObsEvent::WorkerAssigned { cell, seed } => {
                let _ = write!(out, r#","cell":{cell},"seed":{seed}"#);
            }
            ObsEvent::CellStarted { cell, seed, label } => {
                let _ = write!(
                    out,
                    r#","cell":{cell},"seed":{seed},"label":"{}""#,
                    json_escape(label)
                );
            }
            ObsEvent::CellAttempt {
                cell,
                seed,
                attempt,
            } => {
                let _ = write!(out, r#","cell":{cell},"seed":{seed},"attempt":{attempt}"#);
            }
            ObsEvent::FaultArmed { cell, seed, fault } => {
                let _ = write!(
                    out,
                    r#","cell":{cell},"seed":{seed},"fault":"{}""#,
                    json_escape(fault)
                );
            }
            ObsEvent::CellRetried {
                cell,
                seed,
                attempt,
                error,
            } => {
                let _ = write!(
                    out,
                    r#","cell":{cell},"seed":{seed},"attempt":{attempt},"error":"{}""#,
                    json_escape(error)
                );
            }
            ObsEvent::CellSalvaged {
                cell,
                seed,
                attempts,
                error,
            } => {
                let _ = write!(
                    out,
                    r#","cell":{cell},"seed":{seed},"attempts":{attempts},"error":"{}""#,
                    json_escape(error)
                );
            }
            ObsEvent::CellFinished {
                cell,
                seed,
                attempts,
            } => {
                let _ = write!(out, r#","cell":{cell},"seed":{seed},"attempts":{attempts}"#);
            }
            ObsEvent::CampaignFinished {
                cells,
                ok,
                failed,
                retries,
            } => {
                let _ = write!(
                    out,
                    r#","cells":{cells},"ok":{ok},"failed":{failed},"retries":{retries}"#
                );
            }
            ObsEvent::JobAccepted { job, cells } => {
                let _ = write!(out, r#","job":"{}","cells":{cells}"#, json_escape(job));
            }
            ObsEvent::JobCacheHit { job, cell, seed } => {
                let _ = write!(
                    out,
                    r#","job":"{}","cell":{cell},"seed":{seed}"#,
                    json_escape(job)
                );
            }
            ObsEvent::JobFinished { job, hits, fresh } => {
                let _ = write!(
                    out,
                    r#","job":"{}","hits":{hits},"fresh":{fresh}"#,
                    json_escape(job)
                );
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shape_and_key_order() {
        let e = ObsEvent::CampaignStarted {
            label: "faults/smoke".into(),
            cells: 3,
        };
        assert_eq!(
            e.jsonl_line(0),
            r#"{"v":1,"seq":0,"event":"campaign.started","label":"faults/smoke","cells":3}"#
        );
        let e = ObsEvent::CellRetried {
            cell: 1,
            seed: 42,
            attempt: 1,
            error: "worker abort".into(),
        };
        assert_eq!(
            e.jsonl_line(7),
            r#"{"v":1,"seq":7,"event":"cell.retried","cell":1,"seed":42,"attempt":1,"error":"worker abort"}"#
        );
    }

    #[test]
    fn labels_are_escaped() {
        let e = ObsEvent::CellStarted {
            cell: 0,
            seed: 7,
            label: "a\"b\n".into(),
        };
        assert!(e.jsonl_line(0).contains(r#""label":"a\"b\n""#));
    }

    #[test]
    fn names_are_stable() {
        let samples = [
            ObsEvent::CampaignStarted {
                label: String::new(),
                cells: 0,
            },
            ObsEvent::WorkerAssigned { cell: 0, seed: 0 },
            ObsEvent::CellStarted {
                cell: 0,
                seed: 0,
                label: String::new(),
            },
            ObsEvent::CellAttempt {
                cell: 0,
                seed: 0,
                attempt: 1,
            },
            ObsEvent::FaultArmed {
                cell: 0,
                seed: 0,
                fault: String::new(),
            },
            ObsEvent::CellRetried {
                cell: 0,
                seed: 0,
                attempt: 1,
                error: String::new(),
            },
            ObsEvent::CellSalvaged {
                cell: 0,
                seed: 0,
                attempts: 2,
                error: String::new(),
            },
            ObsEvent::CellFinished {
                cell: 0,
                seed: 0,
                attempts: 1,
            },
            ObsEvent::CampaignFinished {
                cells: 0,
                ok: 0,
                failed: 0,
                retries: 0,
            },
            ObsEvent::JobAccepted {
                job: String::new(),
                cells: 0,
            },
            ObsEvent::JobCacheHit {
                job: String::new(),
                cell: 0,
                seed: 0,
            },
            ObsEvent::JobFinished {
                job: String::new(),
                hits: 0,
                fresh: 0,
            },
        ];
        let names: Vec<_> = samples.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "campaign.started",
                "worker.assigned",
                "cell.started",
                "cell.attempt",
                "cell.fault_armed",
                "cell.retried",
                "cell.salvaged",
                "cell.finished",
                "campaign.finished",
                "job.accepted",
                "job.cache_hit",
                "job.finished",
            ]
        );
    }

    #[test]
    fn cell_scoping() {
        assert_eq!(
            ObsEvent::CampaignFinished {
                cells: 1,
                ok: 1,
                failed: 0,
                retries: 0
            }
            .cell(),
            None
        );
        assert_eq!(
            ObsEvent::WorkerAssigned { cell: 3, seed: 9 }.cell(),
            Some(3)
        );
        assert_eq!(
            ObsEvent::JobCacheHit {
                job: "s:1/f:2/c:3".into(),
                cell: 5,
                seed: 42
            }
            .cell(),
            Some(5)
        );
        assert_eq!(
            ObsEvent::JobFinished {
                job: String::new(),
                hits: 2,
                fresh: 1
            }
            .cell(),
            None
        );
    }

    #[test]
    fn job_event_lines() {
        let e = ObsEvent::JobAccepted {
            job: "a1b2/c3d4/e5f6".into(),
            cells: 3,
        };
        assert_eq!(
            e.jsonl_line(0),
            r#"{"v":1,"seq":0,"event":"job.accepted","job":"a1b2/c3d4/e5f6","cells":3}"#
        );
        let e = ObsEvent::JobCacheHit {
            job: "a1b2/c3d4/e5f6".into(),
            cell: 1,
            seed: 42,
        };
        assert_eq!(
            e.jsonl_line(1),
            r#"{"v":1,"seq":1,"event":"job.cache_hit","job":"a1b2/c3d4/e5f6","cell":1,"seed":42}"#
        );
        let e = ObsEvent::JobFinished {
            job: "a1b2/c3d4/e5f6".into(),
            hits: 2,
            fresh: 1,
        };
        assert_eq!(
            e.jsonl_line(2),
            r#"{"v":1,"seq":2,"event":"job.finished","job":"a1b2/c3d4/e5f6","hits":2,"fresh":1}"#
        );
    }
}
