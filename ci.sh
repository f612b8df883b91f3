#!/bin/sh
# Local CI gate: everything a pull request must pass, in dependency order.
# Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== build (frozen benchmark) =="
# perfbench/ is its own workspace over the library crates by path: a library
# change that breaks its build, or that would rewrite its lockfile (--locked
# refuses), fails here rather than in the benchmark run. Writes only to the
# gitignored perfbench/target.
cargo build -q --offline --locked --release --manifest-path perfbench/Cargo.toml

echo "== benchmark tests (frozen benchmark) =="
# The benchmark's own checks against the library: traced and untraced cells
# agree, the traced Fig 7 run scores like `run_single`, and the printed
# metrics match BENCHMARK.json. A library change that breaks one fails here
# rather than in the benchmark run.
cargo test -q --offline --locked --release --manifest-path perfbench/Cargo.toml

echo "== tests =="
cargo test -q --workspace

echo "== clippy (deny warnings) =="
# Also enforces clippy.toml's determinism rules everywhere: no wall clock,
# no thread spawn/scope, no HashMap/HashSet (DESIGN.md §15). Items start
# `pub(crate)`: `unreachable_pub` fails a `pub` item no other crate can
# reach, and `dead_code` (under -D warnings) fails one nothing uses.
cargo clippy -q --workspace --all-targets -- -D warnings -D unreachable_pub

echo "== clippy panic-freedom gate (hardened crates) =="
# The six hardened crates must not panic, index or silently narrow in
# library code: the timing wheel and hash loops run on every simulated
# event, and the hw/mem/secure/faults layers model the paper's TCB (see
# DESIGN.md §13, §15).
cargo clippy -q -p satin-sim -p satin-hash -p satin-hw -p satin-mem \
    -p satin-secure -p satin-faults \
    -- -D clippy::indexing_slicing -D clippy::unwrap_used -D clippy::panic \
    -D clippy::todo -D clippy::unreachable -D clippy::unimplemented \
    -D clippy::cast_possible_truncation

echo "== clippy unwrap + unsafe audit (all library code) =="
cargo clippy -q --workspace --lib \
    -- -D clippy::unwrap_used -D clippy::undocumented_unsafe_blocks

echo "== doorway guard =="
# Only these files may lift a clippy.toml ban with an #[allow]; a new
# site is a reviewed edit to this list (DESIGN.md §15).
DOORWAYS="crates/bench/src/runner.rs
crates/mem/src/layout.rs
crates/obs/src/host.rs
crates/obs/src/progress.rs
tests/serve_socket.rs"
FOUND="$(grep -rlE 'clippy::(disallowed_|style\b|all\b)' crates src tests examples | LC_ALL=C sort)"
[ "$FOUND" = "$DOORWAYS" ] || { printf 'doorway guard: got\n%s\n' "$FOUND"; exit 1; }

echo "== rustdoc (deny warnings) =="
# A doc link to a renamed or deleted item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== rustfmt =="
cargo fmt --check

echo "== telemetry smoke =="
# The exported artifacts must be valid JSON, and the traced race must match
# the blessed span-count snapshot (same seed, same quick-mode horizon).
TRACE_JSON="$(mktemp /tmp/satin_trace.XXXXXX.json)"
METRICS_JSON="$(mktemp /tmp/satin_metrics.XXXXXX.json)"
DEFAULT_OUT="$(mktemp /tmp/satin_default.XXXXXX.txt)"
SCENARIO_OUT="$(mktemp /tmp/satin_scenario.XXXXXX.txt)"
trap 'rm -f "$TRACE_JSON" "$METRICS_JSON" "$DEFAULT_OUT" "$SCENARIO_OUT"' EXIT INT TERM
./target/release/repro --seed 42 --trace-out "$TRACE_JSON" \
    --metrics-json "$METRICS_JSON" > /dev/null
TRACE_JSON="$TRACE_JSON" METRICS_JSON="$METRICS_JSON" python3 - <<'EOF'
import json, os
trace = json.load(open(os.environ["TRACE_JSON"]))
metrics = json.load(open(os.environ["METRICS_JSON"]))
sessions = sum(1 for e in trace["traceEvents"] if e.get("name") == "secure.session")
snap = dict(
    line.split(" ", 1)
    for line in open("crates/bench/tests/golden/telemetry_seed_42.snap")
    if not line.startswith("#")
)
want = int(snap["span.secure.session"])
assert sessions == want, f"trace has {sessions} sessions, snapshot says {want}"
assert metrics["campaigns"] == 3 and metrics["publications"] > 0, metrics
print(f"telemetry OK: {sessions} sessions traced, "
      f"{metrics['publications']} publications aggregated")
EOF

echo "== scenario smoke =="
# The registry lists and the descriptors parse.
./target/release/repro --scenario-list
# The juno-r1 descriptor is a pure re-description of the built-in Juno
# constants: selecting it must be byte-identical to the default run.
./target/release/repro --seed 42 > "$DEFAULT_OUT"
# The whole quick run is pinned: every experiment's rows, byte for byte.
cmp "$DEFAULT_OUT" crates/bench/tests/golden/repro_seed_42.snap
echo "default run == repro_seed_42.snap (byte-identical)"
./target/release/repro --scenario juno-r1 --seed 42 > "$SCENARIO_OUT"
cmp "$DEFAULT_OUT" "$SCENARIO_OUT"
echo "juno-r1 descriptor == default run (byte-identical)"
# A non-Juno platform runs; its snapshot is pinned by the workspace test
# pass (`satin-bench --test scenario_golden`).
./target/release/repro --scenario all-little --seed 42 detection > /dev/null

echo "== fault-injection smoke (seed 42) =="
# The acceptance campaign: the smoke plan drops one publication on every
# seed and aborts seed 42 past its retry budget; the run must not panic,
# must salvage seed 42 as a FAILED row naming the injected abort, and must
# be byte-identical for any --jobs value.
FAULTS_1="$(mktemp /tmp/satin_faults1.XXXXXX.txt)"
FAULTS_4="$(mktemp /tmp/satin_faults4.XXXXXX.txt)"
trap 'rm -f "$TRACE_JSON" "$METRICS_JSON" "$DEFAULT_OUT" "$SCENARIO_OUT" "$FAULTS_1" "$FAULTS_4"' EXIT INT TERM
EVENTS_1="$(mktemp /tmp/satin_events1.XXXXXX.jsonl)"
EVENTS_4="$(mktemp /tmp/satin_events4.XXXXXX.jsonl)"
trap 'rm -f "$TRACE_JSON" "$METRICS_JSON" "$DEFAULT_OUT" "$SCENARIO_OUT" "$FAULTS_1" "$FAULTS_4" "$EVENTS_1" "$EVENTS_4"' EXIT INT TERM
./target/release/repro --seed 42 --faults smoke --jobs 1 \
    --events-out "$EVENTS_1" faults > "$FAULTS_1" 2> /dev/null
./target/release/repro --seed 42 --faults smoke --jobs 4 --progress \
    --events-out "$EVENTS_4" faults > "$FAULTS_4" 2> /dev/null
grep -q '^smoke *42 *FAILED' "$FAULTS_1"
grep -q 'worker abort' "$FAULTS_1"
# Drop the header line (it prints the worker count) before comparing.
tail -n +2 "$FAULTS_1" > "$FAULTS_1.body" && mv "$FAULTS_1.body" "$FAULTS_1"
tail -n +2 "$FAULTS_4" > "$FAULTS_4.body" && mv "$FAULTS_4.body" "$FAULTS_4"
cmp "$FAULTS_1" "$FAULTS_4"
echo "fault smoke OK: seed 42 salvaged as FAILED, report jobs-invariant"

echo "== event-stream smoke (seed 42, smoke plan) =="
# The canonical campaign event stream must be byte-identical for any
# --jobs (even with --progress attached: the live channel never feeds the
# canonical stream), every line must be valid versioned JSON, and the
# sequence numbers must be gapless from 0 (DESIGN.md §14).
cmp "$EVENTS_1" "$EVENTS_4"
EVENTS_JSONL="$EVENTS_1" python3 - <<'EOF'
import json, os
lines = open(os.environ["EVENTS_JSONL"]).read().splitlines()
assert lines, "event stream is empty"
for i, line in enumerate(lines):
    e = json.loads(line)
    assert e["v"] == 1, f"line {i}: schema version {e['v']}"
    assert e["seq"] == i, f"line {i}: seq {e['seq']} not gapless"
    assert "event" in e, f"line {i}: missing event kind"
assert json.loads(lines[0])["event"] == "campaign.started", lines[0]
last = json.loads(lines[-1])
assert last["event"] == "campaign.finished", lines[-1]
assert last["failed"] == 1 and last["retries"] >= 1, last
kinds = {json.loads(l)["event"] for l in lines}
need = {"campaign.started", "worker.assigned", "cell.started",
        "cell.attempt", "cell.fault_armed", "cell.retried",
        "cell.salvaged", "cell.finished", "campaign.finished"}
assert need <= kinds, f"missing event kinds: {need - kinds}"
print(f"event stream OK: {len(lines)} events, jobs-invariant, "
      f"gapless seq, all {len(need)} kinds present")
EOF

echo "== campaign-service smoke (daemon + content-addressed store) =="
# The service acceptance: a warm `repro submit` must be answered from the
# result store — byte-identical stdout, all cells cache hits, no
# re-simulation — and the daemon must shut down cleanly, removing its
# socket. Client and daemon speak JSONL over a Unix domain socket.
SERVE_DIR="$(mktemp -d /tmp/satin_serve.XXXXXX)"
trap 'rm -f "$TRACE_JSON" "$METRICS_JSON" "$DEFAULT_OUT" "$SCENARIO_OUT" "$FAULTS_1" "$FAULTS_4" "$EVENTS_1" "$EVENTS_4"; rm -rf "$SERVE_DIR"' EXIT INT TERM
SERVE_SOCK="$SERVE_DIR/daemon.sock"
SERVE_STORE="$SERVE_DIR/results.jsonl"
# Starts the daemon from executable $1 on the store, waits until it answers.
start_daemon() {
    "$1" serve --socket "$SERVE_SOCK" --store "$SERVE_STORE" \
        2>> "$SERVE_DIR/daemon.log" &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        if "$1" ping --socket "$SERVE_SOCK" 2> /dev/null; then
            break
        fi
        sleep 0.1
    done
    "$1" ping --socket "$SERVE_SOCK"
}
start_daemon ./target/release/repro
./target/release/repro submit --socket "$SERVE_SOCK" --faults smoke --seeds 7,42 \
    > "$SERVE_DIR/cold.txt" 2> "$SERVE_DIR/cold.err"
./target/release/repro submit --socket "$SERVE_SOCK" --faults smoke --seeds 7,42 \
    > "$SERVE_DIR/warm.txt" 2> "$SERVE_DIR/warm.err"
cmp "$SERVE_DIR/cold.txt" "$SERVE_DIR/warm.txt"
grep -q 'FAILED' "$SERVE_DIR/cold.txt"                   # seed 42 salvaged, not lost
grep -q '0 cache hit(s), 2 fresh' "$SERVE_DIR/cold.err"  # cold run simulated
grep -q '2 cache hit(s), 0 fresh' "$SERVE_DIR/warm.err"  # warm run did not
# A third submit with --progress streams job.cache_hit event lines.
./target/release/repro submit --socket "$SERVE_SOCK" --faults smoke --seeds 7,42 \
    --progress 2>&1 > /dev/null | grep -q 'job.cache_hit'
./target/release/repro shutdown --socket "$SERVE_SOCK"
wait "$SERVE_PID"
test ! -e "$SERVE_SOCK"    # clean shutdown removes the socket file
test -s "$SERVE_STORE"     # the store segment persisted the cells
# A changed executable never replays: the cache's code coordinate hashes the
# running executable, so a copy of repro with one byte appended (an ELF
# loader ignores trailing bytes) must simulate every cell again on the same
# store, and still print the cold run's bytes.
cp ./target/release/repro "$SERVE_DIR/repro"
printf 'x' >> "$SERVE_DIR/repro"
start_daemon "$SERVE_DIR/repro"
"$SERVE_DIR/repro" submit --socket "$SERVE_SOCK" --faults smoke --seeds 7,42 \
    > "$SERVE_DIR/changed.txt" 2> "$SERVE_DIR/changed.err"
cmp "$SERVE_DIR/cold.txt" "$SERVE_DIR/changed.txt"
grep -q '0 cache hit(s), 2 fresh' "$SERVE_DIR/changed.err"  # no stale replay
"$SERVE_DIR/repro" shutdown --socket "$SERVE_SOCK"
wait "$SERVE_PID"
test ! -e "$SERVE_SOCK"
echo "campaign service OK: warm submit byte-identical, all cells cache hits, clean shutdown;"
echo "  a changed executable on the same store re-simulated every cell"

echo "== analysis invariants (seeds 7 42 1009) =="
# Happens-before race detection plus the Eq.1/Eq.2 audit; repro exits
# nonzero on any violation or nonzero residual.
for seed in 7 42 1009; do
    ./target/release/repro --seed "$seed" --analyze > /dev/null
    echo "seed $seed: clean (0 violations, residuals 0)"
done

echo "CI OK"
