//! Golden snapshot of every built-in scenario: its canonical `to_text()`
//! and its `content_hash()` in hex.
//!
//! The content hash is the first component of the result-store key, so a
//! change that alters a built-in descriptor's text (or the hash over it)
//! would silently invalidate stored results. This snapshot makes such a
//! change visible. Regenerate intentionally with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p satin-scenario --test builtins_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

fn render() -> String {
    let mut out = String::new();
    for sc in satin_scenario::builtins() {
        writeln!(
            out,
            "=== {} content-hash {:016x}",
            sc.name,
            sc.content_hash()
        )
        .unwrap();
        out.push_str(&sc.to_text());
    }
    out
}

#[test]
fn builtin_descriptors_match_snapshot() {
    let got = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/builtins.snap");
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with GOLDEN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "built-in descriptors diverged from {}",
        path.display()
    );
}
