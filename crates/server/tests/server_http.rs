//! End-to-end tests over real sockets: a `trex-server` instance serving
//! the La Liga fixture, exercised by a hand-rolled HTTP client (the same
//! no-dependency discipline as the server itself).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use trex::Session;
use trex_datagen::laliga;
use trex_server::http::REQUEST_DEADLINE;
use trex_server::{json, serve, ServerConfig, ServerHandle, MAX_SAMPLES};

fn start_server() -> ServerHandle {
    let table = laliga::dirty_table();
    let session = Session::new(Box::new(laliga::algorithm1()), table, laliga::constraints());
    serve(session, &ServerConfig::default()).expect("bind server")
}

/// One full request/response cycle: returns (status, headers, body).
fn request(handle: &ServerHandle, method: &str, target: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        decode_chunked(body)
    } else {
        body.to_string()
    };
    (status, head.to_string(), body)
}

fn get(handle: &ServerHandle, target: &str) -> (u16, String) {
    let (status, _, body) = request(handle, "GET", target);
    (status, body)
}

/// Decode a chunked transfer-encoded body back to the raw payload.
fn decode_chunked(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    while let Some((size_line, tail)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..]; // skip payload + CRLF
    }
    out
}

#[test]
fn health_answers_ok() {
    let server = start_server();
    let (status, body) = get(&server, "/health");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"ok\"}");
}

#[test]
fn violations_render_as_valid_json() {
    let server = start_server();
    let (status, body) = get(&server, "/violations");
    assert_eq!(status, 200);
    json::validate(&body).expect("violations response is valid JSON");
    // The dirty fixture violates its constraints; rows are 1-based labels.
    assert!(body.contains("\"count\":"));
    assert!(body.contains("\"constraint\":"));
    assert!(!body.contains("\"count\":0,"));
}

#[test]
fn constraint_explanation_matches_direct_session() {
    let table = laliga::dirty_table();
    let cell = laliga::cell_of_interest(&table);
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        table.clone(),
        laliga::constraints(),
    );
    let direct = session.explain_constraints(cell).expect("direct explain");

    let server = serve(session, &ServerConfig::default()).expect("bind");
    let (status, body) = get(&server, "/explain?kind=constraints&cell=t5.Country");
    assert_eq!(status, 200);
    json::validate(&body).expect("constraint explanation is valid JSON");
    // The exact rationals from the paper's worked example survive the wire.
    for (label, value) in &direct.exact {
        let fragment = format!(
            "{{\"label\":{},\"value\":{}}}",
            json::string(label),
            json::string(&value.to_string())
        );
        assert!(body.contains(&fragment), "missing {fragment} in {body}");
    }
}

#[test]
fn batch_cell_explanation_is_valid_and_deterministic() {
    let server = start_server();
    let target = "/explain?cell=t5.Country&samples=200&seed=7&threads=2";
    let (status, first) = get(&server, target);
    assert_eq!(status, 200);
    json::validate(&first).expect("cell explanation is valid JSON");
    assert!(first.contains("\"ranking\":["));
    // Same knobs, second request: byte-identical (and a cache hit inside).
    let (_, second) = get(&server, target);
    assert_eq!(first, second);
}

#[test]
fn requests_without_knobs_share_the_session_oracle_cache() {
    // Regression: a request without `oracle-cap` asked for the default
    // capacity, which differed from the session's, so every such request
    // ran on a private cache and the session's stayed empty.
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    )
    .with_config(trex::ExecConfig::new().with_oracle_cap(5000));
    let cache = std::sync::Arc::clone(session.oracle_cache());
    let server = serve(session, &ServerConfig::default()).expect("bind");
    let target = "/explain?kind=cells&cell=t5.Country&samples=50";
    let (status, first) = get(&server, target);
    assert_eq!(status, 200, "{first}");
    let cold = cache.stats();
    assert!(
        cold.misses > 0,
        "the first request filled the session cache"
    );
    let (status, second) = get(&server, target);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second);
    let warm = cache.stats();
    assert_eq!(warm.misses, cold.misses, "the second request is all hits");
    assert_eq!(warm.hits, cold.hits + cold.total());
}

#[test]
fn anytime_stream_lines_are_valid_and_final_matches_batch() {
    let server = start_server();
    let knobs = "cell=t5.Country&samples=200&seed=7&threads=2";
    let (status, head, stream_body) = request(
        &server,
        "GET",
        &format!("/explain?{knobs}&stream=1&checkpoint=50"),
    );
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "stream must be chunked: {head}"
    );

    let lines: Vec<&str> = stream_body.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected checkpoints + final: {stream_body}"
    );
    for line in &lines {
        json::validate(line).unwrap_or_else(|e| panic!("bad stream line {line}: {e}"));
        // Finite estimates only: a NaN/inf would serialize as null.
        assert!(!line.contains("null"), "non-finite value in {line}");
    }
    let (checkpoints, final_line) = lines.split_at(lines.len() - 1);
    for line in checkpoints {
        assert!(line.starts_with("{\"final\":false,"), "{line}");
        assert!(line.contains("\"estimates\":["));
        assert!(line.contains("\"ci95\":"));
    }
    let final_line = final_line[0];
    assert!(final_line.starts_with("{\"final\":true,\"finished\":true,"));

    // The determinism contract: the final line's payload is byte-identical
    // to the batch endpoint for the same seed — at any thread count.
    let (_, batch) = get(
        &server,
        "/explain?cell=t5.Country&samples=200&seed=7&threads=1",
    );
    let payload = batch
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .expect("batch body is an object");
    assert!(
        final_line.contains(payload),
        "final stream line must embed the batch payload\nfinal: {final_line}\nbatch: {payload}"
    );
}

#[test]
fn zero_budget_stream_still_answers_with_a_final_line() {
    let server = start_server();
    let (status, _, body) = request(
        &server,
        "GET",
        "/explain?cell=t5.Country&samples=400&seed=3&budget_ms=0",
    );
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    let last = lines.last().expect("at least the final line");
    json::validate(last).expect("final line is valid JSON");
    assert!(
        last.starts_with("{\"final\":true,\"finished\":false,"),
        "{last}"
    );
}

#[test]
fn estimate_serialization_pins_finite_stats_form() {
    // Satellite: the serialized estimate form is pinned — degenerate
    // single-sample stats (variance clamp) must yield "std_error":0.0,
    // never null/NaN, and the JSON shape is exactly this.
    let server = start_server();
    let (status, _, body) = request(
        &server,
        "GET",
        "/explain?cell=t5.Country&samples=1&seed=1&stream=1&checkpoint=1",
    );
    assert_eq!(status, 200);
    for line in body.lines() {
        json::validate(line).expect("valid JSON");
        assert!(
            !line.contains("null"),
            "degenerate stats must stay finite: {line}"
        );
    }
    assert!(
        body.contains("\"std_error\":0.0"),
        "single-sample std_error serializes as 0.0: {body}"
    );
}

#[test]
fn mutations_over_http_keep_explanations_fresh() {
    // Satellite: mutate-then-re-explain through the HTTP surface. Removing
    // C3 changes the constraint game exactly as in the paper's example —
    // the stale cached answers must not survive the mutation.
    let server = start_server();
    let (_, before) = get(&server, "/explain?kind=constraints&cell=t5.Country");
    assert!(before.contains("\"value\":\"2/3\""), "{before}");

    let (status, _, body) = request(&server, "DELETE", "/constraint?name=C3");
    assert_eq!(status, 200, "{body}");

    let (_, after) = get(&server, "/explain?kind=constraints&cell=t5.Country");
    assert!(
        after.contains("\"value\":\"1/2\""),
        "post-removal exact values must be fresh: {after}"
    );
    assert!(!after.contains("\"label\":\"C3\""));
}

#[test]
fn cell_mutation_roundtrip() {
    let server = start_server();
    let (status, _, body) = request(&server, "POST", "/cell?cell=t1.Place&value=99");
    assert_eq!(status, 200, "{body}");
    json::validate(&body).expect("valid JSON");
    assert!(body.contains("\"value\":\"99\""));
    // The change is visible to subsequent reads of the shared session.
    let (_, _, again) = request(&server, "POST", "/cell?cell=t1.Place&value=77");
    assert!(again.contains("\"previous\":\"99\""), "{again}");
}

#[test]
fn constraint_upsert_roundtrip() {
    let server = start_server();
    let (status, _, body) = request(
        &server,
        "POST",
        "/constraint?name=C9&dc=%21(t1.Team%3Dt2.Team)",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"name\":\"C9\""));
    let (status, _, removed) = request(&server, "DELETE", "/constraint?name=C9");
    assert_eq!(status, 200, "{removed}");
    assert!(removed.contains("\"removed\":\"C9\""));
}

#[test]
fn a_constraint_failing_the_typecheck_is_rejected_and_changes_nothing() {
    // Regression: `Year` is an integer column, so `t1.Year = "abc"` never
    // holds; the upsert answered 200 and the constraint joined the
    // program as a silently dead one.
    let server = start_server();
    let (_, violations) = get(&server, "/violations");
    let (_, explanation) = get(&server, "/explain?kind=constraints&cell=t5.Country");
    let (status, _, body) = request(
        &server,
        "POST",
        "/constraint?name=C9&dc=%21(t1.League%3Dt2.League%20%26%20t1.Year%3D%22abc%22)",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("error[TREX-E002] C9"), "{body}");
    assert!(body.contains("never holds"), "{body}");
    // The session is unchanged: same program, same answers.
    assert_eq!(get(&server, "/violations"), (200, violations));
    let again = get(&server, "/explain?kind=constraints&cell=t5.Country");
    assert_eq!(again, (200, explanation));
    let (status, _, body) = request(&server, "DELETE", "/constraint?name=C9");
    assert_eq!(status, 404, "{body}");
}

#[test]
fn unresolvable_constraint_is_rejected_and_the_worker_survives() {
    // One worker: before the fix the upsert answered 200, the next repair
    // panicked inside the engine, and /health timed out.
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    );
    let config = ServerConfig {
        http_threads: 1,
        ..ServerConfig::default()
    };
    let server = serve(session, &config).expect("bind server");
    let (status, _, body) = request(
        &server,
        "POST",
        "/constraint?name=C1&dc=%21(t1.Nope%3Dt2.Nope)",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown attribute"), "{body}");
    let (status, _, body) = request(&server, "POST", "/repair");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(&server, "/health");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn bad_requests_get_pinned_errors() {
    let server = start_server();

    // Unknown endpoint and wrong method.
    let (status, body) = get(&server, "/nope");
    assert_eq!(status, 404, "{body}");
    let (status, _, body) = request(&server, "POST", "/violations");
    assert_eq!(status, 405, "{body}");

    // Unknown query parameter (typo protection).
    let (status, body) = get(&server, "/explain?cell=t5.Country&shedule=player");
    assert_eq!(status, 400);
    assert!(body.contains("unknown parameter \\\"shedule\\\""), "{body}");

    // Exec knobs validate through the shared CLI path.
    let (status, body) = get(&server, "/explain?cell=t5.Country&threads=many");
    assert_eq!(status, 400);
    assert!(body.contains("--threads"), "{body}");

    // There is no sampling schedule to pick: every thread count returns
    // the serial estimate.
    let (status, body) = get(&server, "/explain?cell=t5.Country&schedule=player");
    assert_eq!(status, 400);
    assert!(
        body.contains("unknown parameter \\\"schedule\\\""),
        "{body}"
    );

    // Every violation scan skips dead constraints: there is no pruning
    // switch.
    let (status, body) = get(&server, "/violations?prune-redundant");
    assert_eq!(status, 400);
    assert!(
        body.contains("unknown parameter \\\"prune-redundant\\\""),
        "{body}"
    );

    // Missing and malformed cells.
    let (status, body) = get(&server, "/explain");
    assert_eq!(status, 400);
    assert!(
        body.contains("missing required parameter \\\"cell\\\""),
        "{body}"
    );
    let (status, body) = get(&server, "/explain?cell=t999.Country");
    assert_eq!(status, 400);
    assert!(body.contains("out of range"), "{body}");

    // Every coalition query goes through the one oracle, so there is no
    // batch size to request.
    let (status, body) = get(&server, "/explain?cell=t5.Country&oracle-batch=16");
    assert_eq!(status, 400);
    assert!(
        body.contains("unknown parameter \\\"oracle-batch\\\""),
        "{body}"
    );
}

#[test]
fn a_request_cannot_size_the_oracle_cache() {
    // The session's one cache serves every request; `trex serve
    // --oracle-cap` sizes it. A request naming a capacity is refused
    // before any work, whatever the value, on every endpoint that takes
    // the exec knobs.
    let server = start_server();
    for (method, path) in [
        ("GET", "/explain?cell=t5.Country&"),
        ("GET", "/explain?kind=constraints&cell=t5.Country&"),
        ("GET", "/violations?"),
        ("POST", "/repair?"),
    ] {
        for value in ["0", "4", "big"] {
            let target = format!("{path}oracle-cap={value}");
            let (status, _, body) = request(&server, method, &target);
            assert_eq!(status, 400, "{method} {target}: {body}");
            assert!(
                body.contains("unknown parameter \\\"oracle-cap\\\""),
                "{method} {target}: {body}"
            );
        }
    }
}

#[test]
fn concurrent_clients_share_one_session() {
    let server = start_server();
    let url: Vec<String> = (0..3)
        .map(|seed| format!("/explain?cell=t5.Country&samples=120&seed={seed}&threads=2"))
        .collect();
    // Solo answers first, then the same requests hammered concurrently.
    let solo: Vec<String> = url.iter().map(|u| get(&server, u).1).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let url = &url[i % url.len()];
                let server = &server;
                scope.spawn(move || get(server, url).1)
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let body = h.join().expect("client thread");
            assert_eq!(
                body,
                solo[i % solo.len()],
                "request {i} must be bit-identical"
            );
        }
    });
}

/// A black box with a bug: every repair panics.
struct PanickingEngine;

impl trex_repair::RepairAlgorithm for PanickingEngine {
    fn name(&self) -> &str {
        "panicking"
    }

    fn repair(
        &self,
        _dcs: &[trex_constraints::DenialConstraint],
        _dirty: &trex_table::Table,
    ) -> trex_repair::RepairResult {
        panic!("engine bug");
    }
}

/// [`request`] with a client read timeout: a lost worker shows up as a
/// timeout error instead of hanging the test.
fn request_with_timeout(handle: &ServerHandle, method: &str, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set read timeout");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .unwrap_or_else(|e| panic!("{method} {target}: no answer ({e})"));
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    (status, body.to_string())
}

#[test]
fn a_panicking_engine_costs_one_request_not_the_worker() {
    // One worker: before the fix the panic ended the worker thread, and
    // every later request queued forever.
    let session = Session::new(
        Box::new(PanickingEngine),
        laliga::dirty_table(),
        laliga::constraints(),
    );
    let config = ServerConfig {
        http_threads: 1,
        ..ServerConfig::default()
    };
    let server = serve(session, &config).expect("bind server");
    let (status, body) = request_with_timeout(&server, "POST", "/repair");
    assert_eq!(status, 500, "{body}");
    json::validate(&body).expect("the 500 body is valid JSON");
    let (status, body) = request_with_timeout(&server, "GET", "/health");
    assert_eq!(status, 200, "{body}");
    // The same worker keeps answering after a second panic, too.
    let (status, _) = request_with_timeout(&server, "POST", "/repair");
    assert_eq!(status, 500);
    let (status, _) = request_with_timeout(&server, "GET", "/violations");
    assert_eq!(status, 200);
}

#[test]
fn oversized_constraint_programs_get_a_400_not_a_lost_worker() {
    // 4 shipped constraints + 21 added over HTTP = 25, past the exact
    // solvers' player cap: the explanation used to panic its worker.
    let config = ServerConfig {
        http_threads: 1,
        ..ServerConfig::default()
    };
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    );
    let server = serve(session, &config).expect("bind server");
    for i in 0..21 {
        let target =
            format!("/constraint?name=X{i}&dc=%21(t1.Place%3Dt2.Place%26t1.Year%21%3Dt2.Year)");
        let (status, body) = request_with_timeout(&server, "POST", &target);
        assert_eq!(status, 200, "{body}");
    }
    let (status, body) =
        request_with_timeout(&server, "GET", "/explain?kind=constraints&cell=t5.Country");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("25 constraints"), "{body}");
    let (status, body) = request_with_timeout(&server, "GET", "/health");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn oversized_sample_budgets_get_a_400_before_any_work() {
    // One worker: a billion walks per player used to pin it (and the
    // session read lock) for hours, so the request never answered.
    let config = ServerConfig {
        http_threads: 1,
        ..ServerConfig::default()
    };
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    );
    let server = serve(session, &config).expect("bind server");
    let too_many = MAX_SAMPLES + 1;
    for target in [
        "/explain?kind=cells&cell=t5.Country&samples=1000000000".to_string(),
        "/explain?kind=cells&cell=t5.Country&samples=1000000000&stream=1".to_string(),
        format!("/explain?cell=t5.Country&samples={too_many}&budget_ms=50"),
        // Checked before the repair-target pre-flight: t1.Team is not
        // repaired, yet the budget is what the answer names.
        "/explain?cell=t1.Team&samples=1000000000".to_string(),
    ] {
        let (status, body) = request_with_timeout(&server, "GET", &target);
        assert_eq!(status, 400, "{target}: {body}");
        assert!(
            body.contains(&format!("samples must be <= {MAX_SAMPLES}")),
            "{target}: {body}"
        );
    }
    let (status, body) = request_with_timeout(&server, "GET", "/health");
    assert_eq!(status, 200, "{body}");
}

/// The server's request-head cap (`MAX_HEAD_BYTES` in `http.rs`).
const HEAD_CAP: usize = 64 * 1024;

#[test]
fn a_head_line_that_never_ends_is_cut_off_at_the_cap() {
    // Regression: the cap was checked only once a whole line had arrived,
    // so a client streaming one endless line grew the server's memory
    // without bound and never got an answer.
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    // One byte past the cap and no more, with the socket left open: bytes
    // the server leaves unread would turn its close into a reset that can
    // swallow the 431.
    let mut line = b"GET /".to_vec();
    line.resize(HEAD_CAP + 1, b'a');
    stream.write_all(&line).expect("send the endless line");
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("an answer within 5 s, not a wait for the newline");
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");
    let (status, body) = get(&server, "/health");
    assert_eq!(status, 200, "{body}");
}

/// How late past [`REQUEST_DEADLINE`] a deadline answer may still come.
const DEADLINE_SLACK: Duration = Duration::from_secs(3);

#[test]
fn stalled_clients_hold_a_worker_only_until_the_request_deadline() {
    // Regression: every read restarted a 30 s timeout, so `http_threads`
    // clients that stopped partway through a request line held every
    // worker for 30 s, and `/health` waited behind them.
    let config = ServerConfig {
        http_threads: 2,
        ..ServerConfig::default()
    };
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    );
    let server = serve(session, &config).expect("bind server");
    let start = Instant::now();
    let stalled: Vec<TcpStream> = (0..config.http_threads)
        .map(|_| {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream
                .write_all(b"GET /health HTTP/1.1\r\n")
                .expect("send a partial request");
            stream
                .set_read_timeout(Some(REQUEST_DEADLINE + DEADLINE_SLACK))
                .expect("set read timeout");
            stream
        })
        .collect();
    // Let the workers take both stalled sockets before the probe queues.
    std::thread::sleep(Duration::from_millis(200));
    let (status, body) = request_with_timeout(&server, "GET", "/health");
    assert_eq!(status, 200, "{body}");
    let waited = start.elapsed();
    assert!(
        waited < REQUEST_DEADLINE + DEADLINE_SLACK,
        "/health waited {waited:?} behind stalled clients"
    );
    for mut stream in stalled {
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .expect("an answer at the deadline");
        let raw = String::from_utf8_lossy(&raw);
        assert!(raw.starts_with("HTTP/1.1 408 "), "{raw}");
    }
}

#[test]
fn a_client_trickling_bytes_gets_a_408_at_the_request_deadline() {
    // Regression: every byte restarted the read timeout, so a client that
    // sent one byte at a time held its worker for ever.
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    let head = b"GET /health?padding=";
    let start = Instant::now();
    let mut raw = Vec::new();
    let mut buf = [0u8; 512];
    for sent in 0.. {
        assert!(
            start.elapsed() < REQUEST_DEADLINE + DEADLINE_SLACK,
            "no answer to a trickling client by {:?}",
            start.elapsed()
        );
        // Once the server has answered, it may refuse further bytes.
        let _ = stream.write_all(&[head.get(sent).copied().unwrap_or(b'a')]);
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break, // a reset after the answer
        }
    }
    let waited = start.elapsed();
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 408 "), "{raw}");
    assert!(
        waited + Duration::from_millis(500) >= REQUEST_DEADLINE,
        "answered after {waited:?}, before the deadline"
    );
}

/// xorshift64: the fuzz test's one fixed-seed random stream.
struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    /// One of the space-separated `words`; two spaces hold an empty word.
    fn pick<'a>(&mut self, words: &'a str) -> &'a str {
        let words: Vec<&str> = words.split(' ').collect();
        words[self.below(words.len())]
    }
}

/// Optional `/explain` knobs of a cell explanation, then of any request:
/// (percent of requests that set it, name, values).
const CELL_KNOBS: [(usize, &str, &str); 4] = [
    (30, "mode", "null distinct replace"),
    (25, "budget_ms", "0 1 3 17 50"),
    (15, "checkpoint", "0 1 7 50 x"),
    (15, "stream", "1"),
];
const EXEC_KNOBS: [(usize, &str, &str); 3] = [
    (30, "threads", "0 1 2 2000 many"),
    (30, "seed", "0 7 7 -1 seed"),
    (15, "oracle-cap", "0 3 64 big"),
];

/// A random predicate soup for `dc`: denial constraints over real and
/// unknown columns and constants of every type, some of them unbalanced.
fn fuzz_dc(rng: &mut Xorshift) -> String {
    let attrs = "Team City Country League Year Place Nope";
    let predicates: Vec<String> = (0..1 + rng.below(3))
        .map(|_| {
            let left = format!("t{}.{}", 1 + rng.below(2), rng.pick(attrs));
            let right = match rng.below(3) {
                0 => rng.pick("1 'Spain' 2.5 true x").to_string(),
                _ => format!("t{}.{}", 1 + rng.below(2), rng.pick(attrs)),
            };
            format!("{left} {} {right}", rng.pick("= != < <= > >= ~"))
        })
        .collect();
    let dc = format!("!({})", predicates.join(" & "));
    let dc = match rng.below(6) {
        0 => &dc[..dc.len() - 1],
        1 => &dc[1..],
        _ => &dc,
    };
    // Percent-encode everything but ASCII letters and digits.
    dc.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

/// One random request: the raw bytes to send. Most requests aim at a real
/// endpoint with plausible parameters, so the explanation routes run; the
/// rest garble the method, path, parameters, version or body length.
fn fuzz_request(rng: &mut Xorshift) -> Vec<u8> {
    let (method, path) = match rng.below(10) {
        0 | 1 => (
            rng.pick("GET POST DELETE get post PUT BREW"),
            rng.pick("/health /explain /constraint /nope /%FF /expl%zzain "),
        ),
        2 => ("GET", rng.pick("/health /violations")),
        3 => ("POST", rng.pick("/repair /cell /constraint")),
        4 => ("DELETE", "/constraint"),
        _ => ("GET", "/explain"),
    };
    let cell = match rng.below(4) {
        0 => rng.pick("t99.Country t0.Team t5.Nope Country tx.City %FF "),
        _ => rng.pick("t5.Country t5.Country t5.City 5.Country t1.Team"),
    };
    let mut params = Vec::new();
    match path {
        "/explain" => {
            if rng.below(10) > 0 {
                params.push(format!("cell={cell}"));
            }
            let kind = match rng.below(20) {
                0 => "both",
                _ => rng.pick("constraints constraints cells "),
            };
            if !kind.is_empty() {
                params.push(format!("kind={kind}"));
            }
            // Cell knobs, on a constraint explanation one time in ten.
            let mut knobs = EXEC_KNOBS.to_vec();
            if kind != "constraints" || rng.below(10) == 0 {
                params.push(match rng.below(10) {
                    0 => "samples=many".to_string(),
                    1 => format!("samples={}", 200_001 + rng.below(1000)),
                    _ => format!("samples={}", rng.below(201)),
                });
                knobs.extend(CELL_KNOBS);
            }
            for (percent, name, values) in knobs {
                if rng.below(100) < percent {
                    params.push(format!("{name}={}", rng.pick(values)));
                }
            }
        }
        "/cell" => {
            params.push(format!("cell={cell}"));
            params.push(format!("value={}", rng.pick("Madrid 2019 7  %FF x%2Cy")));
        }
        // Every constraint is named F1 or F2, so the program never grows
        // past the fixture's four constraints plus two.
        "/constraint" if method.eq_ignore_ascii_case("POST") => {
            params.push(format!("dc={}", fuzz_dc(rng)));
            params.push(format!("name={}", rng.pick("F1 F2")));
        }
        "/constraint" => params.push(format!("name={}", rng.pick("F1 F2 C3 %FF"))),
        _ => {}
    }
    if rng.below(10) == 0 {
        let junk = rng.pick("shedule=player %FF=1 = && oracle-batch=16 kind");
        params.push(junk.to_string());
    }
    let query = if params.is_empty() { "" } else { "?" };
    let version = match rng.below(20) {
        0 => rng.pick("HTTP/1.0 HTTP/2 HTTP"),
        _ => "HTTP/1.1",
    };
    // A declared content-length, and the body bytes sent with it. The
    // server answers a garbled request line before it reads any body, and
    // body bytes it never reads could turn its close into a reset that
    // swallows the answer, so a garbled line is sent without its body.
    let target = format!("{path}{query}{}", params.join("&"));
    let well_formed = !target.is_empty() && version.starts_with("HTTP/1.");
    let (length, body) = match rng.below(20) {
        0 => ("abc", 0),
        1 => ("-5", 0),
        2 => ("99999999999999999999", 0),
        3 => ("1048577", 0),
        4 => ("7", 7),
        5 => ("32", 32),
        _ => ("", 0),
    };
    let length = match length {
        "" => String::new(),
        n => format!("content-length: {n}\r\n"),
    };
    let mut raw =
        format!("{method} {target} {version}\r\nhost: localhost\r\n{length}\r\n").into_bytes();
    if well_formed {
        raw.resize(raw.len() + body, b'b');
    }
    raw
}

/// Send `raw` and read the whole response: its status if it is complete.
fn send_raw(handle: &ServerHandle, raw: &[u8]) -> Result<u16, String> {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let mut response = String::new();
    stream
        .write_all(raw)
        .and_then(|()| stream.read_to_string(&mut response))
        .map_err(|e| e.to_string())?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or("no complete head")?;
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3)?.parse().ok())
        .ok_or("no status line")?;
    let complete = if head.contains("transfer-encoding: chunked") {
        body.ends_with("0\r\n\r\n")
    } else {
        head.contains(&format!("content-length: {}\r\n", body.len()))
    };
    if complete {
        Ok(status)
    } else {
        Err(format!("truncated {status} response: {response:?}"))
    }
}

#[test]
fn seeded_socket_fuzz_gets_a_complete_client_error_or_success_every_time() {
    let config = ServerConfig {
        http_threads: 2,
        ..ServerConfig::default()
    };
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    );
    let server = serve(session, &config).expect("bind server");
    let mut rng = Xorshift(0x7472_6578_2d66_757a);
    for i in 0..300 {
        let raw = fuzz_request(&mut rng);
        let shown = String::from_utf8_lossy(&raw[..raw.len().min(400)]).into_owned();
        match send_raw(&server, &raw) {
            Ok(status) => assert!(
                [200, 400, 404, 405, 413, 431].contains(&status),
                "request {i} got {status}: {shown}"
            ),
            Err(e) => panic!("request {i}: {e}\n{shown}"),
        }
    }
    // Every worker is still serving.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.http_threads)
            .map(|_| scope.spawn(|| request_with_timeout(&server, "GET", "/health")))
            .collect();
        for h in handles {
            let (status, body) = h.join().expect("health client");
            assert_eq!(status, 200, "{body}");
        }
    });
}
