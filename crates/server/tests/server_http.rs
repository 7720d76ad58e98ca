//! End-to-end tests over real sockets: a `trex-server` instance serving
//! the La Liga fixture, exercised by a hand-rolled HTTP client (the same
//! no-dependency discipline as the server itself).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use trex::Session;
use trex_datagen::laliga;
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
