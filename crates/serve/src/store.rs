//! The append-only, content-addressed result store.
//!
//! One finished campaign cell = one JSONL line, written with a single
//! append + flush so a crash can tear at most the final line. The on-disk
//! order is arrival order (provenance); the in-memory index is a
//! [`BTreeMap`] keyed by [`JobKey`], first-write-wins — a duplicate append
//! (two daemons racing on one file, a replayed segment) never changes an
//! answer already given.
//!
//! Line format, fixed key order, every field always present:
//!
//! ```text
//! {"store":1,"scenario":"<16-hex>","seed":"<decimal>","faults":"<16-hex>",
//!  "code":"<16-hex>","outcome":"ok","attempts":1,"rounds":19,
//!  "detections":1,"faults_injected":2,"error":""}
//! ```
//!
//! Seeds and hashes ride as strings because the workspace JSON parser holds
//! numbers as `f64` (lossy above 2^53); the small counters are plain
//! numbers. Because the key order is fixed and every field is always
//! emitted, re-serializing a parsed record reproduces the original bytes —
//! the warm-replay byte-identity proof leans on this.

use crate::key::JobKey;
use satin_obs::json::Json;
use satin_telemetry::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// On-disk segment format version; parsing rejects any other value.
pub(crate) const STORE_FORMAT_VERSION: u32 = 1;

/// The stored outcome of one campaign cell — exactly the fields the fault
/// report renders, so a cached row reproduces its table line verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Did the campaign complete (possibly after retries)?
    pub ok: bool,
    /// Attempts used (1 = first try).
    pub attempts: u32,
    /// Rounds SATIN completed (0 when failed).
    pub rounds: u64,
    /// Area-14 detections (0 when failed).
    pub detections: u64,
    /// Faults the injector fired during the winning attempt (0 when failed).
    pub faults_injected: u64,
    /// The salvage error for failed cells; empty for ok ones.
    pub error: String,
}

/// Renders one store line (no trailing newline), fixed key order.
pub fn record_line(key: &JobKey, rec: &CellRecord) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        r#"{{"store":{STORE_FORMAT_VERSION},"scenario":"{:016x}","seed":"{}","faults":"{:016x}","code":"{:016x}""#,
        key.scenario, key.seed, key.faults, key.code
    );
    let _ = write!(
        out,
        r#","outcome":"{}","attempts":{},"rounds":{},"detections":{},"faults_injected":{},"error":"{}"}}"#,
        if rec.ok { "ok" } else { "failed" },
        rec.attempts,
        rec.rounds,
        rec.detections,
        rec.faults_injected,
        json_escape(&rec.error)
    );
    out
}

fn hex_field(json: &Json, key: &str) -> Result<u64, String> {
    let s = json
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("field `{key}` = {s:?}: {e}"))
}

fn count_field(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing count field `{key}`"))
}

/// Parses one store line back into its key and record.
///
/// # Errors
///
/// A description of the malformed or missing field, or a format-version
/// mismatch. The caller decides whether the line was a torn tail (ignored)
/// or mid-file corruption (fatal).
pub fn parse_record_line(line: &str) -> Result<(JobKey, CellRecord), String> {
    let json = Json::parse(line).map_err(|e| e.to_string())?;
    let version = count_field(&json, "store")?;
    if version != u64::from(STORE_FORMAT_VERSION) {
        return Err(format!(
            "store format {version}, this build reads {STORE_FORMAT_VERSION}"
        ));
    }
    let seed_str = json
        .get("seed")
        .and_then(Json::as_str)
        .ok_or("missing string field `seed`")?;
    let seed: u64 = seed_str
        .parse()
        .map_err(|e| format!("field `seed` = {seed_str:?}: {e}"))?;
    let key = JobKey {
        scenario: hex_field(&json, "scenario")?,
        faults: hex_field(&json, "faults")?,
        code: hex_field(&json, "code")?,
        seed,
    };
    let ok = match json.get("outcome").and_then(Json::as_str) {
        Some("ok") => true,
        Some("failed") => false,
        Some(other) => return Err(format!("unknown outcome {other:?}")),
        None => return Err("missing string field `outcome`".into()),
    };
    let attempts = count_field(&json, "attempts")?;
    let attempts = u32::try_from(attempts).map_err(|_| format!("attempts {attempts} > u32"))?;
    let rec = CellRecord {
        ok,
        attempts,
        rounds: count_field(&json, "rounds")?,
        detections: count_field(&json, "detections")?,
        faults_injected: count_field(&json, "faults_injected")?,
        error: json
            .get("error")
            .and_then(Json::as_str)
            .ok_or("missing string field `error`")?
            .to_string(),
    };
    Ok((key, rec))
}

/// The store: an append-only segment file plus its in-memory index.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    index: BTreeMap<JobKey, CellRecord>,
}

impl ResultStore {
    /// Opens (or implicitly creates) the store at `path`, replaying every
    /// line into the index. A final line torn by a crash mid-append is
    /// dropped silently; a malformed line anywhere else is an error — a
    /// store that lies must not answer.
    ///
    /// # Errors
    ///
    /// Unreadable file (other than not-yet-existing), or mid-file
    /// corruption with its line number.
    pub fn open(path: &Path) -> Result<Self, String> {
        let mut index = BTreeMap::new();
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let lines: Vec<&str> = text.split('\n').collect();
                let last = lines.len() - 1;
                for (i, line) in lines.iter().enumerate() {
                    if line.is_empty() {
                        continue;
                    }
                    match parse_record_line(line) {
                        Ok((key, rec)) => {
                            index.entry(key).or_insert(rec);
                        }
                        Err(e) => {
                            let torn_tail = i == last && !text.ends_with('\n');
                            if !torn_tail {
                                return Err(format!("{}: line {}: {e}", path.display(), i + 1));
                            }
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
        Ok(ResultStore {
            path: path.to_path_buf(),
            index,
        })
    }

    /// Cached cells.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The cached record for `key`, if any.
    pub(crate) fn get(&self, key: &JobKey) -> Option<&CellRecord> {
        self.index.get(key)
    }

    /// Appends one cell, first-write-wins: returns `Ok(false)` without
    /// touching the file when the key is already cached. The line is
    /// flushed before the index admits it, so an acknowledged write
    /// survives the process.
    ///
    /// # Errors
    ///
    /// The underlying filesystem append failing.
    pub(crate) fn put(&mut self, key: JobKey, rec: CellRecord) -> Result<bool, String> {
        if self.index.contains_key(&key) {
            return Ok(false);
        }
        let mut line = record_line(&key, &rec);
        line.push('\n');
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        self.index.insert(key, rec);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A collision-free scratch path (no tempfile crate in this workspace).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "satin-serve-store-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn key(seed: u64) -> JobKey {
        JobKey {
            scenario: 0x1111_2222_3333_4444,
            faults: 0xcbf2_9ce4_8422_2325,
            code: 0xdead_beef_dead_beef,
            seed,
        }
    }

    fn rec(ok: bool) -> CellRecord {
        CellRecord {
            ok,
            attempts: 2,
            rounds: if ok { 19 } else { 0 },
            detections: u64::from(ok),
            faults_injected: if ok { 3 } else { 0 },
            error: if ok {
                String::new()
            } else {
                "injected fault: worker \"w0\" aborted".into()
            },
        }
    }

    #[test]
    fn line_bytes_are_pinned() {
        // Seed above 2^53 proves string transport is lossless.
        let line = record_line(&key(u64::MAX), &rec(true));
        assert_eq!(
            line,
            r#"{"store":1,"scenario":"1111222233334444","seed":"18446744073709551615","faults":"cbf29ce484222325","code":"deadbeefdeadbeef","outcome":"ok","attempts":2,"rounds":19,"detections":1,"faults_injected":3,"error":""}"#
        );
        let (k, r) = parse_record_line(&line).expect("parse");
        assert_eq!(k, key(u64::MAX));
        assert_eq!(r, rec(true));
    }

    #[test]
    fn parse_reserialize_is_identity() {
        for line in [
            record_line(&key(7), &rec(true)),
            record_line(&key(42), &rec(false)),
        ] {
            let (k, r) = parse_record_line(&line).expect("parse");
            assert_eq!(record_line(&k, &r), line);
        }
    }

    #[test]
    fn put_get_reopen_and_first_write_wins() {
        let path = scratch("reopen");
        let mut store = ResultStore::open(&path).expect("open");
        assert!(store.is_empty());
        assert!(store.put(key(7), rec(true)).expect("put"));
        assert!(store.put(key(42), rec(false)).expect("put"));
        // Duplicate: refused, file untouched, first answer kept.
        let mut dup = rec(true);
        dup.rounds = 999;
        assert!(!store.put(key(7), dup).expect("dup put"));
        assert_eq!(store.get(&key(7)).map(|r| r.rounds), Some(19));
        assert_eq!(store.len(), 2);
        drop(store);
        let reopened = ResultStore::open(&path).expect("reopen");
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(&key(7)), Some(&rec(true)));
        assert_eq!(reopened.get(&key(42)), Some(&rec(false)));
        assert_eq!(reopened.get(&key(1009)), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_quietly() {
        let path = scratch("torn");
        let mut text = record_line(&key(7), &rec(true));
        text.push('\n');
        let full = record_line(&key(42), &rec(false));
        text.push_str(&full[..full.len() / 2]); // crash mid-append
        std::fs::write(&path, &text).expect("write");
        let store = ResultStore::open(&path).expect("open tolerates torn tail");
        assert_eq!(store.len(), 1);
        assert!(store.get(&key(7)).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let path = scratch("corrupt");
        let mut text = String::from("not json at all\n");
        text.push_str(&record_line(&key(7), &rec(true)));
        text.push('\n');
        std::fs::write(&path, &text).expect("write");
        let err = ResultStore::open(&path).expect_err("must refuse");
        assert!(err.contains("line 1"), "err: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_and_outcome_are_validated() {
        let good = record_line(&key(7), &rec(true));
        let bad_version = good.replacen("\"store\":1", "\"store\":2", 1);
        assert!(parse_record_line(&bad_version).is_err());
        let bad_outcome = good.replacen("\"outcome\":\"ok\"", "\"outcome\":\"maybe\"", 1);
        assert!(parse_record_line(&bad_outcome).is_err());
    }

    proptest! {
        #[test]
        fn record_line_round_trips_any_key_and_error_text(
            scenario: u64,
            faults: u64,
            code: u64,
            seed: u64,
            error: String,
            ok: bool,
        ) {
            let k = JobKey { scenario, faults, code, seed };
            let r = CellRecord { error, ..rec(ok) };
            let line = record_line(&k, &r);
            prop_assert!(!line.contains('\n'), "one record, one line: {line:?}");
            prop_assert_eq!(parse_record_line(&line), Ok((k, r)));
        }

        #[test]
        fn round_trips_any_record(
            seeds in proptest::collection::vec(any::<u64>(), 1..8),
            scenario in any::<u64>(),
            faults in any::<u64>(),
            code in any::<u64>(),
            attempts in any::<u32>(),
            // Counters travel as JSON numbers: exact below 2^53 (the
            // parser holds numbers as f64). Full-width values are only
            // guaranteed for the string-encoded seed/hash fields above.
            rounds in 0u64..(1 << 53),
            detections in 0u64..(1 << 53),
            injected in 0u64..(1 << 53),
            ok in any::<bool>(),
        ) {
            let path = scratch("prop");
            let mut store = ResultStore::open(&path).expect("open");
            let mut expect: BTreeMap<JobKey, CellRecord> = BTreeMap::new();
            for (i, seed) in seeds.iter().enumerate() {
                let k = JobKey { scenario, faults, code, seed: *seed };
                let r = CellRecord {
                    ok,
                    attempts,
                    rounds: rounds.wrapping_add(i as u64),
                    detections,
                    faults_injected: injected,
                    error: if ok { String::new() } else { format!("err \"{i}\"\n\ttail") },
                };
                let line = record_line(&k, &r);
                let (pk, pr) = parse_record_line(&line).expect("parse");
                prop_assert_eq!(&pk, &k);
                prop_assert_eq!(&pr, &r);
                prop_assert_eq!(record_line(&pk, &pr), line);
                let first = store.put(k, r.clone()).expect("put");
                prop_assert_eq!(first, !expect.contains_key(&k));
                expect.entry(k).or_insert(r);
            }
            drop(store);
            let reopened = ResultStore::open(&path).expect("reopen");
            prop_assert_eq!(reopened.len(), expect.len());
            for (k, r) in &expect {
                prop_assert_eq!(reopened.get(k), Some(r));
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
