//! `repro`'s argument contract: a word that names no experiment, or a flag
//! it does not know, is a usage error, never a silent no-op. The check runs
//! in `parse_args`, before any banner or simulation, so each run below
//! finishes at once.

use std::process::Command;

#[test]
fn unknown_words_and_flags_are_usage_errors() {
    // (arguments, what stderr must name)
    let cases: [(&[&str], &str); 4] = [
        (&["table1", "tabel1"], "unknown experiment \"tabel1\""),
        // Retired words and flag of the removed synthetic microbenchmark
        // commands: none may fall through to a default run.
        (&["bench"], "unknown experiment \"bench\""),
        (&["trajectory"], "unknown experiment \"trajectory\""),
        (&["--json", "x"], "unknown flag --json"),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed before rejecting: {out:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{args:?} stderr: {stderr}");
    }
}
