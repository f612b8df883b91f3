//! `repro`'s argument contract: a word that names no experiment is a usage
//! error, never a silent no-op. The check runs in `parse_args`, before any
//! banner or simulation, so the run below finishes at once.

use std::process::Command;

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "tabel1"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "printed before rejecting: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment \"tabel1\""),
        "stderr: {stderr}"
    );
}
