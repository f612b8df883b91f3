//! Never-panics fuzzing of the result-store line reader: `parse_record_line`
//! answers `Ok` or `Err` for any text, including every torn or corrupted
//! form of a valid record (a crash can tear the last line of a segment,
//! and a segment file is whatever is on disk).

use proptest::prelude::*;
use satin_serve::store::{parse_record_line, record_line};
use satin_serve::{CellRecord, JobKey};

fn valid_line(seed: u64, ok: bool, error: String) -> String {
    let key = JobKey {
        scenario: 0x1111_2222_3333_4444,
        faults: seed.rotate_left(17),
        code: 0xdead_beef_dead_beef,
        seed,
    };
    let rec = CellRecord {
        ok,
        attempts: 2,
        rounds: 19,
        detections: u64::from(ok),
        faults_injected: 3,
        error,
    };
    record_line(&key, &rec)
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics(text: String, prefix in 0u8..3) {
        // Also try the text behind a well-formed opening, so the parser
        // gets past the first byte.
        let line = match prefix {
            0 => text,
            1 => format!("{{\"store\":1,{text}"),
            _ => format!("{{\"store\":1,\"scenario\":\"{text}\"}}"),
        };
        let _ = parse_record_line(&line);
    }

    #[test]
    fn every_truncation_never_panics(seed: u64, ok: bool, error: String) {
        let line = valid_line(seed, ok, error);
        prop_assert!(parse_record_line(&line).is_ok());
        for (cut, _) in line.char_indices() {
            let _ = parse_record_line(&line[..cut]);
        }
    }

    #[test]
    fn any_replaced_byte_never_panics(
        seed: u64,
        ok: bool,
        error: String,
        at: usize,
        byte: u8,
    ) {
        let mut bytes = valid_line(seed, ok, error).into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        // The parser takes text (a segment that is not UTF-8 already fails
        // at open), so a byte that breaks the encoding is fed as U+FFFD.
        let _ = parse_record_line(&String::from_utf8_lossy(&bytes));
    }
}
