//! The Unix-domain-socket job daemon and its client calls.
//!
//! Single-threaded by design: campaigns already parallelize internally
//! (the backend owns its worker pool), so the daemon's only job is to
//! serialize store access — a blocking accept loop that serves one
//! connection at a time does that with no locks, no threads, and no way to
//! interleave two appends. `accept` returns as soon as a client connects,
//! and `shutdown` arrives as a request, so the loop needs no wake-up path.
//!
//! One client at a time means one client must not hold the loop: the
//! request line has a read deadline (`READ_DEADLINE`) and a length cap
//! ([`MAX_REQUEST_BYTES`]), answered with a `done` error line, and every
//! write has a deadline (`WRITE_DEADLINE`), after which a client that
//! stopped reading counts as gone (its job still completes and is stored).
//! The socket file is removed on every exit path, fatal errors included.
//! A job whose backend panics is answered with a `done` error line, stores
//! nothing, and leaves the daemon serving.
//!
//! Protocol (JSONL, one request line per connection):
//!
//! ```text
//! -> {"op":"submit","scenario":"<escaped descriptor text>","seeds":["7","42"]}
//! <- {"v":1,"seq":0,"event":"job.accepted",...}      (streamed as produced)
//! <- ...
//! <- {"done":true,"hits":1,"fresh":1,"report":"<escaped report>"}
//!
//! -> {"op":"ping"}      <- {"done":true,"pong":true}
//! -> {"op":"shutdown"}  <- {"done":true,"bye":true}
//! ```
//!
//! The client sends the **canonical scenario text**, not a name: name
//! resolution (built-ins, files) happens client-side, so the daemon caches
//! by content, never by what something was called. Seeds travel as decimal
//! strings (the JSON parser's numbers are `f64`-lossy above 2^53). Errors
//! come back as `{"done":true,"error":"..."}` — the connection always ends
//! with exactly one `done` line.
//!
//! Two-clocks: everything on the wire before the `done` line is the
//! sim-domain event stream; the daemon's stderr log takes host time from
//! [`HostClock`] (the sanctioned doorway) and never touches stdout.

use crate::service::JobService;
use crate::store::{CellRecord, ResultStore};
use satin_obs::host::fmt_host_ns;
use satin_obs::json::Json;
use satin_obs::{EventStream, HostClock};
use satin_scenario::Scenario;
use satin_telemetry::json_escape;
use std::any::Any;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

/// How long a client has to deliver its whole request line after the
/// daemon accepts it. Clients write the line right after connecting.
pub(crate) const READ_DEADLINE: Duration = Duration::from_secs(2);

/// Longest request line the daemon reads; a submit is about 1 KB.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// How long one reply write may block before the client counts as gone.
pub(crate) const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Removes the socket file when the daemon leaves [`serve`], however it
/// leaves.
struct SocketFile<'a>(&'a Path);

impl Drop for SocketFile<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.0);
    }
}

/// Runs the daemon until a `shutdown` request arrives. `backend` simulates
/// the seeds the store cannot answer (see [`JobService::run_job`]); the
/// repro binary passes a closure over its campaign runner.
///
/// A stale socket file from a dead daemon is removed before binding; the
/// live socket file is removed again on shutdown and on every error exit.
///
/// # Errors
///
/// Store open/replay failure, socket bind failure, or a fatal accept error.
/// Per-connection errors (bad request, client gone mid-stream) are logged
/// to stderr and the loop continues.
pub fn serve<B>(socket: &Path, store_path: &Path, mut backend: B) -> Result<(), String>
where
    B: FnMut(&Scenario, &[u64]) -> (Vec<CellRecord>, EventStream),
{
    let store = ResultStore::open(store_path)?;
    let mut service = JobService::new(store);
    if socket.exists() {
        std::fs::remove_file(socket)
            .map_err(|e| format!("removing stale socket {}: {e}", socket.display()))?;
    }
    let listener =
        UnixListener::bind(socket).map_err(|e| format!("binding {}: {e}", socket.display()))?;
    let _socket_file = SocketFile(socket);
    let clock = HostClock::start();
    eprintln!(
        "satin-serve: listening on {} — store {} ({} cached cell(s), code {:016x})",
        socket.display(),
        store_path.display(),
        service.store().len(),
        service.code()
    );
    loop {
        let (conn, _addr) = listener
            .accept()
            .map_err(|e| format!("accept on {}: {e}", socket.display()))?;
        let bye = handle_connection(conn, &mut service, &mut backend, &clock).unwrap_or_else(|e| {
            eprintln!("satin-serve: connection error: {e}");
            false
        });
        if bye {
            break;
        }
    }
    eprintln!(
        "satin-serve: shut down after {} — {} cached cell(s)",
        fmt_host_ns(clock.now_ns()),
        service.store().len()
    );
    Ok(())
}

/// Handles one accepted connection; returns `Ok(true)` on `shutdown`.
fn handle_connection<B>(
    conn: UnixStream,
    service: &mut JobService,
    backend: &mut B,
    clock: &HostClock,
) -> Result<bool, String>
where
    B: FnMut(&Scenario, &[u64]) -> (Vec<CellRecord>, EventStream),
{
    conn.set_write_timeout(Some(WRITE_DEADLINE))
        .map_err(|e| format!("write deadline: {e}"))?;
    let mut writer = conn;
    let line = match read_request(&writer, clock) {
        Ok(line) => line,
        Err(e) => {
            send_error(&mut writer, &e);
            return Err(e);
        }
    };
    let line = line.trim();
    if line.is_empty() {
        return Ok(false);
    }
    let request = match Json::parse(line) {
        Ok(json) => json,
        Err(e) => {
            send_error(&mut writer, &format!("bad request JSON: {e}"));
            return Ok(false);
        }
    };
    match request.get("op").and_then(Json::as_str) {
        Some("ping") => {
            send_line(&mut writer, r#"{"done":true,"pong":true}"#)?;
            Ok(false)
        }
        Some("shutdown") => {
            send_line(&mut writer, r#"{"done":true,"bye":true}"#)?;
            Ok(true)
        }
        Some("submit") => {
            handle_submit(&request, &mut writer, service, backend, clock)?;
            Ok(false)
        }
        Some(other) => {
            send_error(&mut writer, &format!("unknown op {other:?}"));
            Ok(false)
        }
        None => {
            send_error(&mut writer, "request has no `op`");
            Ok(false)
        }
    }
}

/// Reads the request line: bytes up to the first `\n` or end of stream,
/// within [`READ_DEADLINE`] of the call and [`MAX_REQUEST_BYTES`] long.
/// The deadline covers the whole line, so a client trickling bytes cannot
/// extend it: each read waits only for the time that is left.
fn read_request(conn: &UnixStream, clock: &HostClock) -> Result<String, String> {
    let deadline_ns = clock
        .now_ns()
        .saturating_add(READ_DEADLINE.as_nanos() as u64);
    let mut reader = BufReader::new(conn.take(MAX_REQUEST_BYTES));
    let mut line = Vec::new();
    loop {
        let left_ns = deadline_ns.saturating_sub(clock.now_ns());
        if left_ns == 0 {
            return Err(format!(
                "no request line within {} s",
                READ_DEADLINE.as_secs()
            ));
        }
        conn.set_read_timeout(Some(Duration::from_nanos(left_ns)))
            .map_err(|e| format!("read deadline: {e}"))?;
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            // Timed out or interrupted: the loop head checks the deadline.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(format!("reading request: {e}")),
        };
        if chunk.is_empty() {
            break;
        }
        if let Some(end) = chunk.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&chunk[..end]);
            break;
        }
        let n = chunk.len();
        line.extend_from_slice(chunk);
        reader.consume(n);
    }
    if line.len() as u64 == MAX_REQUEST_BYTES {
        return Err(format!(
            "request line longer than {MAX_REQUEST_BYTES} bytes"
        ));
    }
    String::from_utf8(line).map_err(|_| "request line is not UTF-8".to_string())
}

/// Decodes the request's scenario text and seed strings.
fn parse_submit(request: &Json) -> Result<(Scenario, Vec<u64>), String> {
    let text = request
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or("submit needs a `scenario` string (the descriptor text)")?;
    let scenario = satin_scenario::parse_scenario(text).map_err(|e| format!("scenario: {e}"))?;
    let seeds = request
        .get("seeds")
        .and_then(Json::as_array)
        .ok_or("submit needs a `seeds` array of decimal strings")?;
    if seeds.is_empty() {
        return Err("submit needs at least one seed".into());
    }
    seeds
        .iter()
        .map(|s| {
            let text = s.as_str().ok_or("seeds must be decimal strings")?;
            text.parse::<u64>()
                .map_err(|e| format!("seed {text:?}: {e}"))
        })
        .collect::<Result<Vec<u64>, String>>()
        .map(|seeds| (scenario, seeds))
}

fn handle_submit<B>(
    request: &Json,
    writer: &mut UnixStream,
    service: &mut JobService,
    backend: &mut B,
    clock: &HostClock,
) -> Result<(), String>
where
    B: FnMut(&Scenario, &[u64]) -> (Vec<CellRecord>, EventStream),
{
    let started = clock.now_ns();
    let (scenario, seeds) = match parse_submit(request) {
        Ok(parsed) => parsed,
        Err(e) => {
            send_error(writer, &e);
            return Ok(());
        }
    };
    // Stream each event line as the job produces it; a client that hung up
    // or stopped reading mid-stream is remembered and reported after the
    // job finishes — the store still gets the fresh rows either way, and
    // no done line waits out another write deadline.
    let mut client_gone = false;
    // A backend panic unwinds before `run_job` stores any row (fresh rows
    // are put only after the backend returns), so the service is left as
    // it was and the daemon keeps serving.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        service.run_job(
            &scenario,
            &seeds,
            |sc: &Scenario, miss: &[u64]| backend(sc, miss),
            |seq, ev| {
                if !client_gone {
                    let line = ev.jsonl_line(seq);
                    let sent = writeln!(writer, "{line}").and_then(|()| writer.flush());
                    client_gone = sent.is_err();
                }
            },
        )
    }))
    .unwrap_or_else(|payload| Err(format!("job backend panicked: {}", panic_text(&*payload))));
    if client_gone {
        return Err("client hung up mid-stream (job completed and was cached)".into());
    }
    match outcome {
        Ok(out) => {
            send_line(
                writer,
                &format!(
                    r#"{{"done":true,"hits":{},"fresh":{},"report":"{}"}}"#,
                    out.hits,
                    out.fresh,
                    json_escape(&out.report)
                ),
            )?;
            eprintln!(
                "satin-serve: job {} cell(s) — {} hit(s), {} fresh — {}",
                seeds.len(),
                out.hits,
                out.fresh,
                fmt_host_ns(clock.now_ns().saturating_sub(started))
            );
        }
        Err(e) => send_error(writer, &e),
    }
    Ok(())
}

/// The message a panic was raised with, when it carries one.
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message")
}

fn send_line(writer: &mut UnixStream, line: &str) -> Result<(), String> {
    writeln!(writer, "{line}")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("writing to client: {e}"))
}

/// Best-effort error reply; a client that already vanished loses nothing.
fn send_error(writer: &mut UnixStream, message: &str) {
    let _ = writeln!(
        writer,
        r#"{{"done":true,"error":"{}"}}"#,
        json_escape(message)
    );
    let _ = writer.flush();
}

/// What a [`submit`] call brought back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReply {
    /// The rendered per-seed report (byte-identical warm or cold).
    pub report: String,
    /// Cells the daemon answered from its store.
    pub hits: usize,
    /// Cells the daemon simulated.
    pub fresh: usize,
    /// Event lines streamed before the `done` line.
    pub events: usize,
}

/// Submits one job and blocks until the `done` line. `on_event` sees each
/// streamed event line (verbatim JSONL) as it arrives — the repro client
/// forwards them to stderr under `--progress`.
///
/// # Errors
///
/// Connection failure, a malformed server line, a server-reported error,
/// or the server closing the stream early.
pub fn submit<F>(
    socket: &Path,
    scenario: &Scenario,
    seeds: &[u64],
    mut on_event: F,
) -> Result<SubmitReply, String>
where
    F: FnMut(&str),
{
    let seed_list = seeds
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<String>>()
        .join(",");
    let request = format!(
        r#"{{"op":"submit","scenario":"{}","seeds":[{}]}}"#,
        json_escape(&scenario.to_text()),
        seed_list
    );
    let mut reader = connect_and_send(socket, &request)?;
    let mut events = 0usize;
    loop {
        let line = read_server_line(&mut reader)?;
        let json = Json::parse(&line).map_err(|e| format!("bad server line: {e}"))?;
        if json.get("done").is_none() {
            events += 1;
            on_event(&line);
            continue;
        }
        if let Some(err) = json.get("error").and_then(Json::as_str) {
            return Err(format!("server: {err}"));
        }
        let report = json
            .get("report")
            .and_then(Json::as_str)
            .ok_or("done line missing `report`")?
            .to_string();
        let hits = json.get("hits").and_then(Json::as_u64).unwrap_or(0) as usize;
        let fresh = json.get("fresh").and_then(Json::as_u64).unwrap_or(0) as usize;
        return Ok(SubmitReply {
            report,
            hits,
            fresh,
            events,
        });
    }
}

/// Checks the daemon is alive (`ci.sh` polls this while it boots).
///
/// # Errors
///
/// Connection failure or a non-pong reply.
pub fn ping(socket: &Path) -> Result<(), String> {
    let mut reader = connect_and_send(socket, r#"{"op":"ping"}"#)?;
    expect_flag(&mut reader, "pong")
}

/// Asks the daemon to exit its accept loop and remove the socket.
///
/// # Errors
///
/// Connection failure or a non-bye reply.
pub fn shutdown(socket: &Path) -> Result<(), String> {
    let mut reader = connect_and_send(socket, r#"{"op":"shutdown"}"#)?;
    expect_flag(&mut reader, "bye")
}

fn connect_and_send(socket: &Path, request: &str) -> Result<BufReader<UnixStream>, String> {
    let mut conn = UnixStream::connect(socket)
        .map_err(|e| format!("connecting to {}: {e}", socket.display()))?;
    writeln!(conn, "{request}")
        .and_then(|()| conn.flush())
        .map_err(|e| format!("sending request: {e}"))?;
    Ok(BufReader::new(conn))
}

fn read_server_line(reader: &mut BufReader<UnixStream>) -> Result<String, String> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| format!("reading server reply: {e}"))?;
    if n == 0 {
        return Err("server closed the connection before its done line".into());
    }
    Ok(line.trim_end().to_string())
}

fn expect_flag(reader: &mut BufReader<UnixStream>, flag: &str) -> Result<(), String> {
    let line = read_server_line(reader)?;
    let json = Json::parse(&line).map_err(|e| format!("bad server line: {e}"))?;
    if let Some(err) = json.get("error").and_then(Json::as_str) {
        return Err(format!("server: {err}"));
    }
    if json.get(flag).and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(format!("unexpected reply: {line}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(text: &str) -> Json {
        Json::parse(text).expect("test request")
    }

    #[test]
    fn submit_parser_round_trips_scenario_and_big_seeds() {
        let scenario = Scenario::paper();
        let request = format!(
            r#"{{"op":"submit","scenario":"{}","seeds":["7","18446744073709551615"]}}"#,
            json_escape(&scenario.to_text())
        );
        let (parsed, seeds) = parse_submit(&req(&request)).expect("parse");
        assert_eq!(parsed, scenario);
        // u64::MAX survives the wire — it would not as a JSON number.
        assert_eq!(seeds, [7, u64::MAX]);
    }

    #[test]
    fn submit_parser_rejects_bad_requests() {
        for (text, needle) in [
            (r#"{"op":"submit"}"#.to_string(), "`scenario`"),
            (
                r#"{"op":"submit","scenario":"platform:\n"}"#.to_string(),
                "scenario:",
            ),
            (
                format!(
                    r#"{{"op":"submit","scenario":"{}","seeds":[]}}"#,
                    json_escape(&Scenario::paper().to_text())
                ),
                "at least one seed",
            ),
            (
                format!(
                    r#"{{"op":"submit","scenario":"{}","seeds":[7]}}"#,
                    json_escape(&Scenario::paper().to_text())
                ),
                "decimal strings",
            ),
            (
                format!(
                    r#"{{"op":"submit","scenario":"{}","seeds":["x"]}}"#,
                    json_escape(&Scenario::paper().to_text())
                ),
                "seed \"x\"",
            ),
        ] {
            let err = parse_submit(&req(&text)).expect_err(&text);
            assert!(err.contains(needle), "request {text}: err {err}");
        }
    }
}
