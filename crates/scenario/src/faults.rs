//! Declarative fault plans: which faults to inject, where, and when.
//!
//! A [`FaultPlan`] is pure data — the `[faults]` section of a scenario
//! descriptor (or a standalone `--faults` file, which uses the same
//! section format). The runtime half lives in `satin-faults`: its
//! `FaultInjector` consumes a plan plus the campaign seed and decides,
//! deterministically, which events actually fire. Keeping the plan here
//! (below `satin-system`) lets every layer that already speaks
//! `Scenario` carry fault instructions without new dependencies.
//!
//! Every fault key starts with a *seed filter*: a literal seed number
//! scopes the fault to that one campaign seed, `*` applies it to all.
//! Times are absolute simulated nanoseconds, matching the rest of the
//! descriptor format.

use satin_sim::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Which campaign seeds a fault applies to: one specific seed, or all.
///
/// The text form is the seed number, or `*` for all seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedFilter {
    /// Fire on every campaign seed.
    #[default]
    All,
    /// Fire only when the campaign seed equals this value.
    Only(u64),
}

impl SeedFilter {
    /// Does this filter select `seed`?
    pub fn matches(self, seed: u64) -> bool {
        match self {
            SeedFilter::All => true,
            SeedFilter::Only(s) => s == seed,
        }
    }

    /// Stable descriptor form (`*` or the seed number).
    pub(crate) fn to_text(self) -> String {
        match self {
            SeedFilter::All => "*".to_string(),
            SeedFilter::Only(s) => s.to_string(),
        }
    }

    fn from_text(tok: &str) -> Result<Self, String> {
        if tok == "*" {
            return Ok(SeedFilter::All);
        }
        tok.parse()
            .map(SeedFilter::Only)
            .map_err(|_| format!("`{tok}` is not a seed number or `*`"))
    }
}

/// One scheduler-jitter spike: the first tick boundary scheduled at or
/// after `at` is pushed `extra` later on the matching seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitterSpec {
    /// Seeds the spike applies to.
    pub seed: SeedFilter,
    /// Earliest simulated time the spike may fire.
    pub at: SimTime,
    /// Extra delay added to the tick boundary.
    pub extra: SimDuration,
}

/// Drop one cross-core publication: the first secure-scan publication at
/// or after `at` never reaches the normal world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropPublicationSpec {
    /// Seeds the drop applies to.
    pub seed: SeedFilter,
    /// Earliest simulated time the drop may fire.
    pub at: SimTime,
}

/// Delay one cross-core publication: the first publication at or after
/// `at` resumes the normal world `by` later than it should.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayPublicationSpec {
    /// Seeds the delay applies to.
    pub seed: SeedFilter,
    /// Earliest simulated time the delay may fire.
    pub at: SimTime,
    /// How much later the publication lands.
    pub by: SimDuration,
}

/// Corrupt one hash window: every byte of the first observed scan window
/// at or after `at` is XORed with `xor` before the digest is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptWindowSpec {
    /// Seeds the corruption applies to.
    pub seed: SeedFilter,
    /// Earliest simulated time the corruption may fire.
    pub at: SimTime,
    /// XOR mask applied to every window byte (must be non-zero).
    pub xor: u8,
}

/// Abort the campaign worker mid-run: once simulated time reaches `at`,
/// attempts `1..=attempts` fail with a structured `WorkerAbort` error.
/// Setting `attempts` at or above the plan's `max_attempts` guarantees a
/// `SeedOutcome::Failed` row; a smaller value exercises retry-then-succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortSpec {
    /// Seeds the abort applies to.
    pub seed: SeedFilter,
    /// Simulated time at which the worker aborts.
    pub at: SimTime,
    /// Number of leading attempts that abort (1-based attempt counter).
    pub attempts: u32,
}

/// A complete fault plan: at most one spec per fault kind, plus the
/// retry policy the campaign runner applies when a seed fails.
///
/// The empty plan (`FaultPlan::default()`) injects nothing and renders
/// to nothing, so fault-free scenarios keep their exact pre-fault text
/// form and golden snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scheduler-jitter spike.
    pub jitter: Option<JitterSpec>,
    /// Dropped cross-core publication.
    pub drop_publication: Option<DropPublicationSpec>,
    /// Delayed cross-core publication.
    pub delay_publication: Option<DelayPublicationSpec>,
    /// Corrupted hash-window bytes.
    pub corrupt_window: Option<CorruptWindowSpec>,
    /// Mid-campaign worker abort.
    pub abort: Option<AbortSpec>,
    /// Attempts the campaign runner makes per seed before recording a
    /// `Failed` row (at least 1).
    pub max_attempts: u32,
    /// Wall-clock backoff between retry attempts, in milliseconds.
    pub backoff_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            jitter: None,
            drop_publication: None,
            delay_publication: None,
            corrupt_window: None,
            abort: None,
            max_attempts: 1,
            backoff_ms: 0,
        }
    }
}

impl FaultPlan {
    /// Does this plan inject nothing and use the default retry policy?
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// The built-in smoke plan exercised by CI (seed 42): one dropped
    /// publication on every seed, plus a worker abort scoped to seed 42
    /// that outlasts the retry budget, so a three-seed campaign over
    /// {7, 42, 1009} completes with seed 42 as a structured `Failed` row.
    pub fn smoke() -> Self {
        FaultPlan {
            drop_publication: Some(DropPublicationSpec {
                seed: SeedFilter::All,
                at: SimTime::from_millis(3_000),
            }),
            abort: Some(AbortSpec {
                seed: SeedFilter::Only(42),
                at: SimTime::from_millis(6_000),
                attempts: u32::MAX,
            }),
            max_attempts: 2,
            ..FaultPlan::default()
        }
    }

    /// The built-in chaos plan: every fault kind armed on every seed,
    /// with the abort healed by one retry (attempt 2 succeeds).
    pub fn chaos() -> Self {
        FaultPlan {
            jitter: Some(JitterSpec {
                seed: SeedFilter::All,
                at: SimTime::from_millis(1_000),
                extra: SimDuration::from_micros(750),
            }),
            drop_publication: Some(DropPublicationSpec {
                seed: SeedFilter::All,
                at: SimTime::from_millis(3_000),
            }),
            delay_publication: Some(DelayPublicationSpec {
                seed: SeedFilter::All,
                at: SimTime::from_millis(5_000),
                by: SimDuration::from_micros(500),
            }),
            corrupt_window: Some(CorruptWindowSpec {
                seed: SeedFilter::All,
                at: SimTime::from_millis(7_000),
                xor: 0x5a,
            }),
            abort: Some(AbortSpec {
                seed: SeedFilter::All,
                at: SimTime::from_millis(8_000),
                attempts: 1,
            }),
            max_attempts: 2,
            backoff_ms: 0,
        }
    }

    /// Checks the plan's own invariants.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("faults max-attempts must be at least 1".to_string());
        }
        if let Some(j) = self.jitter {
            if j.extra == SimDuration::ZERO {
                return Err("jitter extra delay must be positive".to_string());
            }
        }
        if let Some(d) = self.delay_publication {
            if d.by == SimDuration::ZERO {
                return Err("delay-publication delay must be positive".to_string());
            }
        }
        if let Some(c) = self.corrupt_window {
            if c.xor == 0 {
                return Err("corrupt-window xor mask must be non-zero".to_string());
            }
        }
        if let Some(a) = self.abort {
            if a.attempts == 0 {
                return Err("abort attempts must be at least 1".to_string());
            }
        }
        Ok(())
    }

    /// Stable 64-bit content hash of the plan: FNV-1a over the canonical
    /// `to_text` form. Plans that render identically
    /// hash identically (the empty plan hashes the empty string), making
    /// this safe as the fault component of `satin-serve`'s
    /// content-addressed store key.
    pub fn content_hash(&self) -> u64 {
        satin_hash::hash_bytes(satin_hash::HashAlgorithm::Fnv1a, self.to_text().as_bytes())
    }

    /// Renders the `[faults]` section body (no header), keys in fixed
    /// order, one per armed fault. Empty plans render nothing.
    pub(crate) fn to_text(self) -> String {
        let mut out = String::new();
        // Infallible: writing to a String cannot fail.
        if let Some(j) = self.jitter {
            let _ = writeln!(
                out,
                "jitter = {} {} {}",
                j.seed.to_text(),
                j.at.as_nanos(),
                j.extra.as_nanos()
            );
        }
        if let Some(d) = self.drop_publication {
            let _ = writeln!(
                out,
                "drop-publication = {} {}",
                d.seed.to_text(),
                d.at.as_nanos()
            );
        }
        if let Some(d) = self.delay_publication {
            let _ = writeln!(
                out,
                "delay-publication = {} {} {}",
                d.seed.to_text(),
                d.at.as_nanos(),
                d.by.as_nanos()
            );
        }
        if let Some(c) = self.corrupt_window {
            let _ = writeln!(
                out,
                "corrupt-window = {} {} {}",
                c.seed.to_text(),
                c.at.as_nanos(),
                c.xor
            );
        }
        if let Some(a) = self.abort {
            let _ = writeln!(
                out,
                "abort = {} {} {}",
                a.seed.to_text(),
                a.at.as_nanos(),
                a.attempts
            );
        }
        if self.max_attempts != 1 {
            let _ = writeln!(out, "max-attempts = {}", self.max_attempts);
        }
        if self.backoff_ms != 0 {
            let _ = writeln!(out, "backoff-ms = {}", self.backoff_ms);
        }
        out
    }
}

fn split_fields<const N: usize>(value: &str) -> Result<[&str; N], String> {
    let parts: Vec<&str> = value.split_whitespace().collect();
    if parts.len() != N {
        return Err(format!("expected {N} fields, got {}", parts.len()));
    }
    let mut out = [""; N];
    out.copy_from_slice(&parts);
    Ok(out)
}

fn parse_u64(tok: &str) -> Result<u64, String> {
    tok.parse()
        .map_err(|_| format!("`{tok}` is not a non-negative integer"))
}

/// Applies one `[faults]` `key = value` pair to a plan.
///
/// Shared by the scenario parser and the standalone fault-plan parser so
/// both dialects stay byte-compatible.
///
/// # Errors
///
/// A human-readable message (no line number — callers attach their own).
pub(crate) fn apply_fault_key(plan: &mut FaultPlan, key: &str, value: &str) -> Result<(), String> {
    match key {
        "jitter" => {
            let [seed, at, extra] = split_fields::<3>(value)?;
            plan.jitter = Some(JitterSpec {
                seed: SeedFilter::from_text(seed)?,
                at: SimTime::from_nanos(parse_u64(at)?),
                extra: SimDuration::from_nanos(parse_u64(extra)?),
            });
        }
        "drop-publication" => {
            let [seed, at] = split_fields::<2>(value)?;
            plan.drop_publication = Some(DropPublicationSpec {
                seed: SeedFilter::from_text(seed)?,
                at: SimTime::from_nanos(parse_u64(at)?),
            });
        }
        "delay-publication" => {
            let [seed, at, by] = split_fields::<3>(value)?;
            plan.delay_publication = Some(DelayPublicationSpec {
                seed: SeedFilter::from_text(seed)?,
                at: SimTime::from_nanos(parse_u64(at)?),
                by: SimDuration::from_nanos(parse_u64(by)?),
            });
        }
        "corrupt-window" => {
            let [seed, at, xor] = split_fields::<3>(value)?;
            let xor = xor
                .parse::<u8>()
                .map_err(|_| format!("`{xor}` is not a byte (0-255)"))?;
            plan.corrupt_window = Some(CorruptWindowSpec {
                seed: SeedFilter::from_text(seed)?,
                at: SimTime::from_nanos(parse_u64(at)?),
                xor,
            });
        }
        "abort" => {
            let [seed, at, attempts] = split_fields::<3>(value)?;
            let attempts = attempts
                .parse::<u32>()
                .map_err(|_| format!("`{attempts}` is not an attempt count"))?;
            plan.abort = Some(AbortSpec {
                seed: SeedFilter::from_text(seed)?,
                at: SimTime::from_nanos(parse_u64(at)?),
                attempts,
            });
        }
        "max-attempts" => {
            plan.max_attempts = value
                .parse()
                .map_err(|_| format!("`{value}` is not an attempt count"))?;
        }
        "backoff-ms" => plan.backoff_ms = parse_u64(value)?,
        _ => return Err(format!("unknown key `{key}` in [faults]")),
    }
    Ok(())
}

/// Looks up a built-in fault plan by name (`none`, `smoke`, `chaos`).
pub fn builtin_fault_plan(name: &str) -> Option<FaultPlan> {
    match name {
        "none" => Some(FaultPlan::default()),
        "smoke" => Some(FaultPlan::smoke()),
        "chaos" => Some(FaultPlan::chaos()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reparse(plan: &FaultPlan) -> FaultPlan {
        let mut out = FaultPlan::default();
        for line in plan.to_text().lines() {
            let (key, value) = line.split_once('=').expect("key = value");
            apply_fault_key(&mut out, key.trim(), value.trim()).expect("round-trip key");
        }
        out
    }

    #[test]
    fn empty_plan_renders_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.to_text(), "");
        plan.validate().unwrap();
    }

    #[test]
    fn builtin_plans_validate_and_round_trip() {
        for name in ["none", "smoke", "chaos"] {
            let plan = builtin_fault_plan(name).expect("builtin");
            plan.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(reparse(&plan), plan, "{name} did not round-trip");
        }
        assert!(builtin_fault_plan("gremlins").is_none());
    }

    #[test]
    fn seed_filter_semantics() {
        assert!(SeedFilter::All.matches(7));
        assert!(SeedFilter::Only(42).matches(42));
        assert!(!SeedFilter::Only(42).matches(7));
        assert_eq!(SeedFilter::from_text("*").unwrap(), SeedFilter::All);
        assert_eq!(SeedFilter::from_text("9").unwrap(), SeedFilter::Only(9));
        assert!(SeedFilter::from_text("soon").is_err());
    }

    #[test]
    fn bad_fault_values_rejected() {
        let mut plan = FaultPlan::default();
        for (key, value, needle) in [
            ("jitter", "* 100", "expected 3 fields"),
            ("jitter", "x 100 50", "not a seed"),
            ("drop-publication", "* soon", "integer"),
            ("corrupt-window", "* 100 300", "byte"),
            ("abort", "* 100 -1", "attempt count"),
            ("max-attempts", "zero", "attempt count"),
            ("warp", "1", "unknown key `warp`"),
        ] {
            let e = apply_fault_key(&mut plan, key, value).unwrap_err();
            assert!(e.contains(needle), "{key} = {value} gave `{e}`");
        }
    }

    #[test]
    fn validate_catches_degenerate_specs() {
        let plan = FaultPlan {
            max_attempts: 0,
            ..FaultPlan::default()
        };
        assert!(plan.validate().unwrap_err().contains("max-attempts"));

        let plan = FaultPlan {
            corrupt_window: Some(CorruptWindowSpec {
                seed: SeedFilter::All,
                at: SimTime::ZERO,
                xor: 0,
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate().unwrap_err().contains("xor"));

        let plan = FaultPlan {
            jitter: Some(JitterSpec {
                seed: SeedFilter::All,
                at: SimTime::ZERO,
                extra: SimDuration::ZERO,
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate().unwrap_err().contains("jitter"));
    }

    #[test]
    fn content_hash_tracks_canonical_text() {
        use satin_hash::{hash_bytes, HashAlgorithm};
        // The empty plan hashes the empty string (the FNV-1a offset basis).
        assert_eq!(
            FaultPlan::default().content_hash(),
            hash_bytes(HashAlgorithm::Fnv1a, b"")
        );
        // Equal text ⇒ equal hash; different builtins ⇒ different hashes.
        assert_eq!(
            FaultPlan::smoke().content_hash(),
            FaultPlan::smoke().content_hash()
        );
        assert_ne!(
            FaultPlan::smoke().content_hash(),
            FaultPlan::chaos().content_hash()
        );
        // The hash follows any field that reaches the text form.
        let mut tweaked = FaultPlan::smoke();
        tweaked.backoff_ms = 250;
        assert_ne!(tweaked.content_hash(), FaultPlan::smoke().content_hash());
    }

    #[test]
    fn smoke_plan_fails_only_seed_42() {
        let plan = FaultPlan::smoke();
        let abort = plan.abort.expect("smoke aborts");
        assert!(abort.seed.matches(42));
        assert!(!abort.seed.matches(7));
        assert!(!abort.seed.matches(1009));
        assert!(
            abort.attempts >= plan.max_attempts,
            "abort must exhaust retries"
        );
        let drop = plan.drop_publication.expect("smoke drops a publication");
        assert!(drop.seed.matches(7) && drop.seed.matches(42) && drop.seed.matches(1009));
    }
}
