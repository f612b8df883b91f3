//! Content-addressed job identity.
//!
//! A cached cell may be replayed **only** when nothing that could change its
//! bytes has changed. Four coordinates pin that down:
//!
//! - the **scenario hash**: FNV-1a over the canonical descriptor text with
//!   the fault plan cleared (the plan gets its own axis, so the same
//!   platform under different plans shares nothing by accident);
//! - the **seed**, verbatim;
//! - the **fault-plan hash**: FNV-1a over the plan's canonical text (the
//!   empty plan hashes the empty string — stable forever);
//! - the **code fingerprint**: a hash over the bytes of the running
//!   executable, the crate version, the store format and the event schema.
//!   The executable is the simulator's behaviour, so every rebuild that can
//!   change a cell's bytes retires the whole cache without anyone having to
//!   remember to. A rebuild that cannot (a comment edit) retires it too:
//!   the price is a cold cache, never a stale replay. The store is
//!   append-only, so old entries stay on disk as provenance but are never
//!   replayed.

use crate::store::STORE_FORMAT_VERSION;
use satin_hash::{HashAlgorithm, HasherKind};
use satin_obs::EVENT_SCHEMA_VERSION;
use satin_scenario::Scenario;
use std::sync::OnceLock;

/// The code-identity coordinate of every [`JobKey`] this process produces:
/// `fingerprint_of` the running executable's bytes, read and hashed once
/// at the first call.
///
/// # Panics
///
/// Panics if the running executable cannot be located or read: a cache
/// keyed by anything weaker could replay cells of another build.
pub fn code_fingerprint() -> u64 {
    static CODE: OnceLock<u64> = OnceLock::new();
    *CODE.get_or_init(|| {
        let exe = std::env::current_exe().expect("the running executable has a path");
        let bytes = std::fs::read(&exe).unwrap_or_else(|e| {
            panic!("cannot read the running executable {}: {e}", exe.display())
        });
        fingerprint_of(&bytes)
    })
}

/// The code coordinate of an executable with the bytes `exe`: FNV-1a over
/// the crate version, [`STORE_FORMAT_VERSION`], [`EVENT_SCHEMA_VERSION`]
/// and `exe`.
pub(crate) fn fingerprint_of(exe: &[u8]) -> u64 {
    let tag = format!(
        "satin-serve {} store{} events{}\n",
        env!("CARGO_PKG_VERSION"),
        STORE_FORMAT_VERSION,
        EVENT_SCHEMA_VERSION,
    );
    let mut hasher = HasherKind::new(HashAlgorithm::Fnv1a);
    hasher.update(tag.as_bytes());
    hasher.update(exe);
    hasher.finish()
}

/// The content address of one campaign cell. Ordered so a [`std::collections::BTreeMap`]
/// index groups a job's cells together (same scenario/plan/code, runs of seeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobKey {
    /// FNV-1a of the scenario's canonical text with the fault plan cleared.
    pub scenario: u64,
    /// FNV-1a of the fault plan's canonical text.
    pub faults: u64,
    /// [`code_fingerprint`] of the build that produced the cell.
    pub code: u64,
    /// The campaign master seed.
    pub seed: u64,
}

impl JobKey {
    /// The key for one cell of `scenario` under `code`, at `seed`. The
    /// scenario's attached fault plan supplies the plan axis.
    pub fn of(scenario: &Scenario, seed: u64, code: u64) -> Self {
        JobKey {
            scenario: scenario.content_hash(),
            faults: scenario.faults.content_hash(),
            code,
            seed,
        }
    }
}

/// The seed-free job identity string used to label `job.*` events:
/// `scenario/faults/code`, each as 16 hex digits.
pub(crate) fn job_id(scenario: &Scenario, code: u64) -> String {
    format!(
        "{:016x}/{:016x}/{:016x}",
        scenario.content_hash(),
        scenario.faults.content_hash(),
        code
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_scenario::FaultPlan;

    #[test]
    fn key_separates_plan_axis_from_scenario_axis() {
        let clean = Scenario::paper();
        let mut smoked = clean.clone();
        smoked.faults = FaultPlan::smoke();
        let code = code_fingerprint();
        let a = JobKey::of(&clean, 7, code);
        let b = JobKey::of(&smoked, 7, code);
        // Same platform text → same scenario hash; the plan moves only the
        // faults coordinate.
        assert_eq!(a.scenario, b.scenario);
        assert_ne!(a.faults, b.faults);
        assert_ne!(a, b);
        assert_ne!(a, JobKey::of(&clean, 8, code));
        assert_ne!(a, JobKey::of(&clean, 7, code ^ 1));
    }

    #[test]
    fn job_id_is_three_hex_words() {
        let id = job_id(&Scenario::paper(), code_fingerprint());
        assert_eq!(id.len(), 16 * 3 + 2, "id: {id}");
        let parts: Vec<&str> = id.split('/').collect();
        assert_eq!(parts.len(), 3);
        for p in parts {
            assert!(u64::from_str_radix(p, 16).is_ok(), "part: {p}");
        }
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(code_fingerprint(), code_fingerprint());
        assert_ne!(code_fingerprint(), 0);
    }

    fn running_executable() -> Vec<u8> {
        std::fs::read(std::env::current_exe().expect("exe path")).expect("exe bytes")
    }

    #[test]
    fn fingerprint_separates_executables() {
        assert_ne!(fingerprint_of(b"build a"), fingerprint_of(b"build b"));
        // One trailing byte, as an ELF loader would ignore, is another build.
        let exe = running_executable();
        let mut grown = exe.clone();
        grown.push(0);
        assert_ne!(fingerprint_of(&exe), fingerprint_of(&grown));
    }

    #[test]
    fn fingerprint_hashes_the_running_executable() {
        assert_eq!(code_fingerprint(), fingerprint_of(&running_executable()));
    }
}
