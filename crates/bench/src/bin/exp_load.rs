//! Experiment E8: load test of the explanation service.
//!
//! Starts an in-process `trex-server` over a scenario-corpus table (or
//! targets an already-running one via `--addr`), hammers it with
//! concurrent clients mixing `/violations` reads with streamed anytime
//! `/explain` requests, checks every response — each streamed checkpoint
//! line must be a complete JSON document — and records throughput plus
//! p50/p99 latency per endpoint into a JSON artifact, which CI validates.
//!
//! Run: `cargo run --release -p trex-bench --bin exp_load -- --json exp_load.json`
//!
//! Flags (all optional):
//!   --schema NAME     laliga | soccer | adult | sensor (default laliga)
//!   --rows N          scenario rows (non-laliga schemas; default 200)
//!   --seed N          scenario seed (default 0)
//!   --clients N       concurrent client threads (default 8)
//!   --requests N      requests per client (default 25)
//!   --samples N       sampling budget of each /explain (default 400)
//!   --budget-ms N     anytime budget per streamed /explain (default 250)
//!   --http-threads N  server worker threads (default 4; in-process only)
//!   --addr HOST:PORT  target an external server instead of starting one
//!   --json PATH       write the machine-readable artifact

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trex::Session;
use trex_bench::{parse_flag, usage_error};
use trex_datagen::{generate_scenario, laliga, ScenarioConfig, SchemaKind};
use trex_repair::RepairAlgorithm as _;
use trex_server::{json, serve, ServerConfig};

const USAGE: &str = "usage: exp_load [--schema NAME] [--rows N] [--seed N] [--clients N] \
                     [--requests N] [--samples N] [--budget-ms N] [--http-threads N] \
                     [--addr HOST:PORT] [--json PATH]";

struct LoadArgs {
    schema: SchemaKind,
    rows: usize,
    seed: u64,
    clients: usize,
    requests: usize,
    samples: usize,
    budget_ms: u64,
    http_threads: usize,
    addr: Option<String>,
    json: Option<String>,
}

/// Minimal flag reader in the `exp_stress` style (the experiment binaries
/// stay dependency-free). Any unknown flag or malformed value is a usage
/// error: a typo in the CI command must fail the job, not silently
/// mislabel the artifact.
fn parse_args() -> LoadArgs {
    let mut out = LoadArgs {
        schema: SchemaKind::Laliga,
        rows: 200,
        seed: 0,
        clients: 8,
        requests: 25,
        samples: 400,
        budget_ms: 250,
        http_threads: 4,
        addr: None,
        json: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || match iter.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => usage_error(USAGE, format!("{flag}: missing value")),
        };
        let f = flag.as_str();
        match f {
            "--schema" => out.schema = parse_flag(USAGE, f, &value()),
            "--rows" => out.rows = parse_flag(USAGE, f, &value()),
            "--seed" => out.seed = parse_flag(USAGE, f, &value()),
            "--clients" => out.clients = parse_flag(USAGE, f, &value()),
            "--requests" => out.requests = parse_flag(USAGE, f, &value()),
            "--samples" => out.samples = parse_flag(USAGE, f, &value()),
            "--budget-ms" => out.budget_ms = parse_flag(USAGE, f, &value()),
            "--http-threads" => out.http_threads = parse_flag(USAGE, f, &value()),
            "--addr" => out.addr = Some(value()),
            "--json" => out.json = Some(value()),
            other => usage_error(USAGE, format!("unknown flag {other:?}")),
        }
    }
    if out.clients == 0 {
        usage_error(USAGE, "--clients must be >= 1");
    }
    if out.requests == 0 {
        usage_error(USAGE, "--requests must be >= 1");
    }
    out
}

/// One raw HTTP request/response over a fresh connection. Returns
/// (status, body-with-chunked-decoded, stream-lines-if-chunked).
fn fetch(addr: &str, target: &str) -> (u16, String, Vec<String>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n"
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
    if !head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        return (status, body.to_string(), Vec::new());
    }
    let mut payload = String::new();
    let mut rest = body;
    while let Some((size_line, tail)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        payload.push_str(&tail[..size]);
        rest = &tail[size + 2..];
    }
    let lines = payload.lines().map(str::to_string).collect();
    (status, payload, lines)
}

/// Latency percentile over a sorted sample (nearest-rank).
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

struct EndpointStats {
    name: &'static str,
    count: usize,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

fn summarize(name: &'static str, mut latencies_ms: Vec<f64>) -> EndpointStats {
    latencies_ms.sort_by(f64::total_cmp);
    EndpointStats {
        name,
        count: latencies_ms.len(),
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
    }
}

fn main() {
    let args = parse_args();

    // The target: either an external server or an in-process one over the
    // requested scenario. The explained cell is always a cell the scenario
    // repairer actually changes, so /explain succeeds.
    let mut handle = None;
    let (addr, cell_spec) = match &args.addr {
        Some(addr) => (addr.clone(), "t5.Country".to_string()),
        None => {
            let (session, cell_spec) = if args.schema == SchemaKind::Laliga {
                let table = laliga::dirty_table();
                let cell = laliga::cell_of_interest(&table);
                let spec = format!("t{}.{}", cell.row + 1, table.schema().attr(cell.attr).name);
                let session =
                    Session::new(Box::new(laliga::algorithm1()), table, laliga::constraints());
                (session, spec)
            } else {
                let scenario =
                    generate_scenario(&ScenarioConfig::new(args.schema, args.rows, args.seed));
                let dirty = scenario.injection.dirty.clone();
                let repaired = scenario.repairer.repair(&scenario.constraints, &dirty);
                let cell = repaired
                    .changes
                    .first()
                    .expect("the scenario repairer changes at least one cell")
                    .cell;
                let spec = format!("t{}.{}", cell.row + 1, dirty.schema().attr(cell.attr).name);
                let session = Session::new(
                    Box::new(scenario.repairer.clone()),
                    dirty,
                    scenario.constraints.clone(),
                );
                (session, spec)
            };
            let config = ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                http_threads: args.http_threads,
            };
            let h = serve(session, &config).expect("bind in-process server");
            let addr = h.addr().to_string();
            handle = Some(h);
            (addr, cell_spec)
        }
    };

    println!(
        "== exp_load: {} @ {addr} ({} client(s) x {} request(s), {} samples, {} ms budget) ==",
        args.schema, args.clients, args.requests, args.samples, args.budget_ms,
    );

    let stream_lines_total = AtomicUsize::new(0);
    let started = Instant::now();
    let (violation_lat, explain_lat): (Vec<f64>, Vec<f64>) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..args.clients)
            .map(|client| {
                let addr = &addr;
                let cell_spec = &cell_spec;
                let args = &args;
                let stream_lines_total = &stream_lines_total;
                scope.spawn(move || {
                    let mut violations = Vec::new();
                    let mut explains = Vec::new();
                    for r in 0..args.requests {
                        // 1-in-3 violations reads, the rest anytime streams —
                        // reads and streams interleave on the shared session.
                        if (client + r) % 3 == 0 {
                            let t = Instant::now();
                            let (status, body, _) = fetch(addr, "/violations");
                            violations.push(t.elapsed().as_secs_f64() * 1e3);
                            assert_eq!(status, 200, "/violations: {body}");
                            json::validate(&body)
                                .unwrap_or_else(|e| panic!("/violations body: {e}"));
                        } else {
                            let seed = client * args.requests + r;
                            let target = format!(
                                "/explain?cell={cell_spec}&samples={}&seed={seed}&budget_ms={}",
                                args.samples, args.budget_ms,
                            );
                            let t = Instant::now();
                            let (status, body, lines) = fetch(addr, &target);
                            explains.push(t.elapsed().as_secs_f64() * 1e3);
                            assert_eq!(status, 200, "{target}: {body}");
                            assert!(!lines.is_empty(), "{target}: empty stream");
                            for line in &lines {
                                json::validate(line)
                                    .unwrap_or_else(|e| panic!("bad stream line {line}: {e}"));
                            }
                            let last = lines.last().unwrap();
                            assert!(
                                last.starts_with("{\"final\":true,"),
                                "{target}: stream must end with the final line: {last}"
                            );
                            stream_lines_total.fetch_add(lines.len(), Ordering::Relaxed);
                        }
                    }
                    (violations, explains)
                })
            })
            .collect();
        let mut violations = Vec::new();
        let mut explains = Vec::new();
        for w in workers {
            let (v, e) = w.join().expect("client thread");
            violations.extend(v);
            explains.extend(e);
        }
        (violations, explains)
    });
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(h) = handle.take() {
        drop(h); // shut the in-process server down before reporting
    }

    let total_requests = violation_lat.len() + explain_lat.len();
    let requests_per_sec = total_requests as f64 / elapsed.max(1e-9);
    let stream_lines = stream_lines_total.load(Ordering::Relaxed);
    let stats = [
        summarize("violations", violation_lat),
        summarize("explain_stream", explain_lat),
    ];
    for s in &stats {
        println!(
            "{:>16} {:>6} request(s)  p50 {:>8.1} ms  p99 {:>8.1} ms  max {:>8.1} ms",
            s.name, s.count, s.p50_ms, s.p99_ms, s.max_ms
        );
    }
    println!(
        "\ntotal {total_requests} request(s) in {elapsed:.2}s = {requests_per_sec:.1} req/s; \
         {stream_lines} valid stream line(s)"
    );

    if let Some(path) = &args.json {
        let endpoints: Vec<String> = stats
            .iter()
            .map(|s| {
                format!(
                    "    {{ \"endpoint\": \"{}\", \"count\": {}, \"p50_ms\": {:.3}, \
                     \"p99_ms\": {:.3}, \"max_ms\": {:.3} }}",
                    s.name, s.count, s.p50_ms, s.p99_ms, s.max_ms
                )
            })
            .collect();
        let artifact = format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"load\",\n",
                "  \"schema\": \"{schema}\",\n",
                "  \"seed\": {seed},\n",
                "  \"clients\": {clients},\n",
                "  \"requests_per_client\": {per_client},\n",
                "  \"samples\": {samples},\n",
                "  \"budget_ms\": {budget},\n",
                "  \"http_threads\": {http_threads},\n",
                "  \"total_requests\": {total},\n",
                "  \"elapsed_secs\": {elapsed:.3},\n",
                "  \"requests_per_sec\": {rps:.1},\n",
                "  \"stream_lines\": {lines},\n",
                "  \"endpoints\": [\n{endpoints}\n  ]\n",
                "}}\n",
            ),
            schema = args.schema,
            seed = args.seed,
            clients = args.clients,
            per_client = args.requests,
            samples = args.samples,
            budget = args.budget_ms,
            http_threads = args.http_threads,
            total = total_requests,
            elapsed = elapsed,
            rps = requests_per_sec,
            lines = stream_lines,
            endpoints = endpoints.join(",\n"),
        );
        json::validate(&artifact).expect("the artifact itself must be valid JSON");
        std::fs::write(path, artifact).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
