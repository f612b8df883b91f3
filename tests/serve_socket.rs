//! The campaign daemon over a real Unix socket, with a stub backend (no
//! simulation): ping, a cold then a warm submit, a job whose backend
//! panics, three hostile clients each followed by a ping, a client that
//! stops reading, and a clean shutdown.

use satin::scenario::Scenario;
use satin::serve::daemon::MAX_REQUEST_BYTES;
use satin::serve::{ping, serve, shutdown, submit, CellRecord};
use satin::telemetry::json_escape;
use satin_obs::{EventStream, ObsEvent};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The seed whose cell streams more event lines than a socket buffers.
const FLOOD_SEED: u64 = 1_000;

/// The seed whose cell panics the backend.
const PANIC_SEED: u64 = 666;

/// Seed-derived records. Only [`FLOOD_SEED`] emits campaign events, and
/// [`PANIC_SEED`] panics.
fn stub_backend(_: &Scenario, seeds: &[u64]) -> (Vec<CellRecord>, EventStream) {
    assert!(
        !seeds.contains(&PANIC_SEED),
        "stub backend panics on seed {PANIC_SEED}"
    );
    let mut stream = EventStream::new();
    if seeds.contains(&FLOOD_SEED) {
        for _ in 0..20_000 {
            stream.push(ObsEvent::CellStarted {
                cell: 0,
                seed: FLOOD_SEED,
                label: "flood".into(),
            });
        }
    }
    let records = seeds
        .iter()
        .map(|&s| CellRecord {
            ok: true,
            attempts: 1,
            rounds: 19 + s,
            detections: 1,
            faults_injected: s % 3,
            error: String::new(),
        })
        .collect();
    (records, stream)
}

/// Sends `bytes` as a raw client and returns the daemon's reply line. The
/// write may fail once the daemon drops an over-long request; the reply it
/// sent first is still there to read.
fn raw_request(socket: &Path, bytes: &[u8]) -> String {
    let mut conn = UnixStream::connect(socket).expect("connect");
    // Fail rather than hang if the daemon never answers.
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client read timeout");
    let _ = conn.write_all(bytes);
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .expect("reply line");
    reply
}

/// Asks the daemon to stop when dropped, so a failed assertion ends the
/// test instead of leaving the scope waiting on the accept loop.
struct StopOnDrop<'a>(&'a Path);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        let _ = shutdown(self.0);
    }
}

fn assert_done_error(reply: &str, needle: &str) {
    assert!(
        reply.starts_with(r#"{"done":true,"error":""#) && reply.contains(needle),
        "reply {reply:?} should be a done error naming {needle:?}"
    );
}

#[test]
fn daemon_round_trip_survives_hostile_clients() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("satin-serve-socket-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("daemon.sock");
    let store = dir.join("results.jsonl");
    let _ = std::fs::remove_file(&store);

    // The daemon under test runs on a scoped thread; the test only checks
    // replies, never timing-dependent order.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|s| {
        let daemon = s.spawn(|| serve(&socket, &store, stub_backend));
        let _stop = StopOnDrop(&socket);
        let mut tries = 0;
        while ping(&socket).is_err() {
            assert!(!daemon.is_finished(), "daemon exited during startup");
            assert!(tries < 500, "daemon did not come up");
            tries += 1;
            std::thread::sleep(Duration::from_millis(10));
        }

        let scenario = Scenario::paper();
        let cold = submit(&socket, &scenario, &[7], |_| {}).expect("cold submit");
        assert_eq!((cold.hits, cold.fresh), (0, 1));
        let warm = submit(&socket, &scenario, &[7], |_| {}).expect("warm submit");
        assert_eq!((warm.hits, warm.fresh), (1, 0));
        assert_eq!(
            warm.report, cold.report,
            "warm report must be byte-identical"
        );
        // job.accepted + job.finished, plus one job.cache_hit when warm.
        assert_eq!((cold.events, warm.events), (2, 3));

        // A panicking backend costs its job a done error, not the daemon.
        // Nothing is stored, so a resubmit panics again.
        for _ in 0..2 {
            let err = submit(&socket, &scenario, &[PANIC_SEED], |_| {})
                .expect_err("a panicking job must fail");
            assert!(err.contains("panicked"), "{err}");
            ping(&socket).expect("ping after a panicking job");
        }
        let after = submit(&socket, &scenario, &[7, 8], |_| {}).expect("submit after a panic");
        assert_eq!((after.hits, after.fresh), (1, 1));

        // A client that never finishes its line is cut off at the deadline.
        assert_done_error(&raw_request(&socket, br#"{"op":"ping""#), "no request line");
        ping(&socket).expect("ping after a silent client");

        let long = vec![b' '; MAX_REQUEST_BYTES as usize + 1];
        assert_done_error(&raw_request(&socket, &long), "longer than");
        ping(&socket).expect("ping after an over-long line");

        let mut deep = "[".repeat(100_000).into_bytes();
        deep.push(b'\n');
        assert_done_error(&raw_request(&socket, &deep), "nesting");
        ping(&socket).expect("ping after a deeply nested line");

        // A client that stops reading is dropped at the write deadline;
        // its job still completes and is stored.
        let mut stalled = UnixStream::connect(&socket).expect("connect");
        writeln!(
            stalled,
            r#"{{"op":"submit","scenario":"{}","seeds":["{FLOOD_SEED}"]}}"#,
            json_escape(&scenario.to_text())
        )
        .expect("send submit");
        let pong = raw_request(&socket, b"{\"op\":\"ping\"}\n");
        assert_eq!(pong.trim_end(), r#"{"done":true,"pong":true}"#);
        let stored = submit(&socket, &scenario, &[FLOOD_SEED], |_| {}).expect("replay");
        assert_eq!((stored.hits, stored.fresh), (1, 0));
        drop(stalled);

        shutdown(&socket).expect("shutdown");
        let served = daemon.join().expect("daemon thread");
        assert_eq!(served, Ok(()));
    });
    assert!(!socket.exists(), "shutdown must remove the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}
