//! End-to-end and per-layer benchmark of the T-REx reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload loop-soccer2k --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Run it from the repository root. `--workload` is one of the three below,
//! `--seed` generates the inputs (the same seed gives the same inputs),
//! `--seconds` is how long the timed phases run, and `--trace 1` selects
//! the traced run. Human-readable detail (provenance, sample counts, tails,
//! per-layer self times) comes first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. Every
//! operation's answer is checked against a reference computed during
//! set-up; a wrong answer, an error or a non-2xx response counts as failed.
//!
//! # Workloads
//!
//! Library workloads run at one thread (the library and server default);
//! the server workload uses 2 HTTP workers and 2 client connections, equal
//! to `nproc` on a 2-core box, so the numbers measure the program and not
//! the scheduler. Inputs are generated from the seed before set-up and
//! handed to the program as CSV, `.dcs` and `.rules` text, parsed with
//! `read_csv_strings`, `parse_dcs` and `RuleRepair::parse_rules` like the
//! CLI does.
//!
//! * `loop-soccer2k` — the paper's §4 debugging loop on the `soccer`
//!   scenario (about 2,000 rows, error rate 0.2%). Each iteration makes 4
//!   edits, each of a `Place` cell of a row whose `Team` is in no violation
//!   to a value never used before (a new table fingerprint each time,
//!   answers unchanged) followed by the refreshed violation list, 2
//!   repairs, and cold-cache constraint explanations of the first 4
//!   repaired cells. *Why:* table copies, dictionary encodes, violation
//!   scans and repair-engine runs behind 16 coalition misses per
//!   explanation take almost all the time.
//! * `cells-laliga` — the same loop on the paper's Figure 2 table: edit
//!   t1[Place] and put it back, repair, explain the constraints of
//!   t5[Country], then one 200-walk cell ranking of t5[Country] (Null mask)
//!   from a cold cache; sampling seeds cycle over 4 values derived from the
//!   workload seed. *Why:* about 7,200 oracle queries per ranking on a
//!   table too small for per-row cost to matter, so the Shapley walk
//!   driver, oracle key hashing and lookup, masked-table construction and
//!   the repair engine's per-call overhead dominate.
//! * `serve-soccer2k` — the soccer inputs behind an in-process
//!   `trex_server::serve`, in rounds: a 1.2 s closed loop (interactive
//!   users wait for each answer) of read-only requests from 2 clients, 80%
//!   `GET /explain?kind=constraints` over the first 8 repaired cells and
//!   20% `GET /violations`, then every one of those 9 requests once more,
//!   one at a time. A warm-up touches every cell once before timing.
//!   *Why:* every explanation is answered from the shared `OracleCache`
//!   plus one full repair, the opposite use of the oracle and repair layers
//!   from the loop, with HTTP and concurrent reads of one `RwLock<Session>`
//!   on top.
//!
//! Every workload prints every end-to-end metric, and interleaves all of
//! its operations over the whole run, so that every metric samples the
//! same stretch of time. The cell game's players are all cells of the
//! table, so a cell ranking is only feasible on a Figure-2-sized table:
//! the two soccer workloads take `explain_cells_p50_ms` from 2 Figure 2
//! rankings (cold cache) per iteration or round. `serve-soccer2k` measures
//! edits and repairs in-process, on a second session over the same
//! inputs, between its rounds: writes inside the read mix made its
//! cold/warm balance vary from run to run.
//!
//! # Clocks
//!
//! Every gated time is process CPU time ([`clock`]), scaled to a reference
//! machine speed ([`speed`]): on a 2-vCPU virtual machine shared with other
//! tenants, wall-clock medians of the same code moved by a quarter between
//! sets of runs, and CPU-time medians still by a sixth, in turbulent
//! stretches by more than a third, with every operation of a run slower or
//! faster together. Each run therefore also
//! times a fixed kernel of the benchmark's own between its operations and
//! multiplies every time by `speed::REFERENCE_MS` / the kernel's median
//! (rates are divided by it). Concurrent HTTP requests cannot be told
//! apart on the process clock, so the served explanation latency comes
//! from the requests sent one at a time, and the served throughput is
//! counted per CPU-second of the read mix. Unscaled CPU and wall-clock
//! medians and tails are printed in the detail lines.
//!
//! # End-to-end metrics (untraced runs only)
//!
//! | name | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | median of fresh set-ups repeated through the run (4 per loop iteration or serve round, 20 per cells iteration): input text to a session ready for its first request (parse and `Session::new`; on serve also bind and the first `/health` 200) |
//! | `edit_p50_ms` | ms | `Session::set_cell` then `Session::violations` |
//! | `repair_p50_ms` | ms | `Session::repair` |
//! | `explain_constraints_p50_ms` | ms | one constraint ranking: cold cache after an edit on the library workloads; on serve, one `GET /explain` against the warm shared cache with no other request in flight, client and server work together |
//! | `explain_cells_p50_ms` | ms | one 200-walk Figure 2 cell ranking from a cold cache |
//! | `requests_per_cpu_s` | 1/s | operations completed per CPU-second of the phase they ran in: on serve the HTTP requests of the read-mix slices, on the library workloads every timed operation of the loop (its fresh set-ups run uncounted, its speed-kernel time is left out) |
//! | `peak_rss_mb` | MB | `VmHWM` of this process, reset after input generation (`null` without procfs) |
//!
//! All but `peak_rss_mb` are scaled to the reference speed. Latency
//! medians are nearest-rank. The detail lines also give each latency's
//! sample count and the highest percentile with at least ten samples
//! beyond it; tails are printed, not gated, because they swing more than a
//! tenth between runs.
//!
//! # Layers and per-layer metrics (`--trace 1`)
//!
//! | layer | metrics | should move | on |
//! |---|---|---|---|
//! | `trex_table::csv`, `table` | `table.load_ms`, `table.clone_ms` | `setup_s`; `repair_p50_ms`, `explain_constraints_p50_ms` | all; loop |
//! | `trex_table::dict` | `table.encode_ms` | `edit_p50_ms`, `repair_p50_ms`, `explain_constraints_p50_ms` | loop |
//! | `trex_constraints::parallel` | `constraints.scan_ms`, `constraints.witnesses` | `edit_p50_ms` | loop |
//! | `trex_repair::simple` | `repair.full_ms`, `repair.cells_changed`, `repair.coalition_ms` | `repair_p50_ms`, `explain_constraints_p50_ms`; `explain_cells_p50_ms` | loop, serve; cells |
//! | `trex_repair::traits` | `oracle.queries`, `oracle.hits`, `oracle.misses`, `oracle.hit_ratio`, `oracle.entries`, `oracle.hit_us` | `explain_cells_p50_ms`; `requests_per_cpu_s`; `peak_rss_mb` | cells; serve; all |
//! | `trex::games` | `games.coalition_table_us`, `games.build_ms` | `explain_cells_p50_ms` | cells |
//! | `trex::explain` | `explain.repair_target_ms` | `explain_constraints_p50_ms`, `requests_per_cpu_s` | serve, loop |
//! | `trex_shapley` | `shapley.walks_per_s` (driver alone on a 35-player O(1) game), `shapley.evals_per_walk`, `shapley.exact_ms` (warm constraint game) | `explain_cells_p50_ms` | cells |
//! | `trex_server` | `http.explain_ms`, `http.violations_ms` (client-observed in the read mix), `http.overhead_ms` (p50 of explanations sent one at a time minus the p50 of the same `Session` call in-process), `http.non_2xx` | `requests_per_cpu_s` | serve |
//!
//! Per-layer times are wall-clock and unscaled. The benchmark records a
//! span around every call it makes into a layer. Work inside another
//! layer's call (the encode inside a scan, the coalition repairs inside an
//! explanation, the `Session` call inside an HTTP request) is replayed on
//! the same input after the operation, in a span marked as a replay, and
//! reported as a share of its parent (see [`trace`]). Oracle and coalition
//! metrics come from the workload's main explanation (constraints on loop
//! and serve, cells on cells-laliga); the game and driver metrics from the
//! Figure 2 cell rankings. The library workloads' traced runs also serve
//! their session for a short read mix, so the HTTP metrics exist on every
//! workload. A traced run first runs the workload untraced for 30% of
//! `--seconds`, then traced for the rest, and prints the tracing overhead
//! (traced minus untraced unscaled CPU medians). Spans are written to
//! `.bench_trace/<workload>-seed<N>.ndjson`.
//!
//! # Why the operations are this size
//!
//! An earlier benchmark of this program was too noisy to gate on: a 50k-row
//! loop took about 16.5 s per iteration, leaving a handful of samples per
//! run, and a served La Liga table timed 0.4 ms set-ups and 0.4–2 ms
//! requests, where jitter exceeds a tenth. The soccer operations take
//! milliseconds to hundreds of milliseconds; the Figure 2 edits, repairs
//! and constraint rankings of `cells-laliga` take tens to hundreds of
//! microseconds, but on the CPU clock, cold from a ranking each time and a
//! hundred or more per run, their medians held within a few per cent.
//! Every operation repeats dozens of times or more per run, and the set-up
//! is repeated to report a median.

mod client;
mod clock;
mod inputs;
mod speed;
mod stats;
mod steps;
mod trace;
mod workloads;

use std::fmt::Write as _;

use steps::{Run, EXPLAIN_CELLS, EXPLAIN_CONSTRAINTS};
use trace::Tracer;
use workloads::Outcome;

const WORKLOADS: [&str; 3] = ["loop-soccer2k", "cells-laliga", "serve-soccer2k"];
const USAGE: &str = "usage: trex-perfbench --workload <loop-soccer2k|cells-laliga|serve-soccer2k> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag}: missing value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| **w == value);
                workload = Some(*w.ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, seed: u64, secs: f64, run: &Run) -> Outcome {
    match name {
        "loop-soccer2k" => workloads::loop_soccer(seed, secs, run),
        "cells-laliga" => workloads::cells_laliga(seed, secs, run),
        _ => workloads::serve_soccer(seed, secs, run),
    }
}

/// `(metric, unit, operation kind)` of the latency medians.
const LATENCIES: [(&str, &str, &str); 4] = [
    ("edit_p50_ms", "ms", "edit"),
    ("repair_p50_ms", "ms", "repair"),
    ("explain_constraints_p50_ms", "ms", "explain_constraints"),
    ("explain_cells_p50_ms", "ms", "explain_cells"),
];

fn median(samples: &[f64]) -> Option<f64> {
    stats::summarize(samples).map(|s| s.p50)
}

fn number(x: Option<f64>) -> String {
    x.filter(|v| v.is_finite())
        .map_or("null".to_string(), |v| format!("{v}"))
}

/// `VmHWM` of this process in MB; `None` without procfs.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Print every latency's sample count, median and tail, unscaled, on the
/// process CPU clock and on the wall clock, and the speed scale that turns
/// the CPU medians into the gated values.
fn print_latencies(run: &Run, outcome: &Outcome) {
    let line = |clock: &str, samples: &[f64]| {
        stats::summarize(samples).map_or(String::new(), |s| {
            let tail = s
                .tail
                .map_or("no tail (< 11 samples)".to_string(), |(p, v)| {
                    format!("p{p} {v:.3}")
                });
            format!("{clock} n={:<5} p50 {:>9.3} ms {tail:<14}", s.n, s.p50)
        })
    };
    println!("latencies (process CPU time, then wall clock):");
    for op in [
        "setup",
        "edit",
        "revert",
        "repair",
        "explain_constraints",
        "explain_cells",
        "violations",
        "mix_explain",
        "mix_violations",
        speed::KERNEL,
    ] {
        let (cpu, wall) = (run.samples(op), run.wall_samples(op));
        if !wall.is_empty() {
            println!(
                "  {op:<20} {:<46} {}",
                line("cpu", &cpu),
                line("wall", &wall)
            );
        }
    }
    println!(
        "  throughput: {} operations, {:.1} per CPU-second, {:.1} per wall-clock second",
        outcome.completed,
        outcome.completed as f64 / outcome.cpu_secs,
        outcome.completed as f64 / outcome.wall_secs,
    );
    if let Some(scale) = speed::scale(run) {
        println!(
            "  speed scale {scale:.4}: the kernel's CPU median times it is {} ms",
            speed::REFERENCE_MS
        );
    }
}

/// The end-to-end metrics of an untraced run: process CPU medians scaled
/// to the reference speed (see [`speed`]).
fn end_to_end(run: &Run, outcome: &Outcome) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let scale = speed::scale(run);
    let scaled = |op: &str| Some(median(&run.samples(op))? * scale?);
    let mut out = vec![("setup_s", "s", scaled("setup").map(|ms| ms / 1e3))];
    for (name, unit, op) in LATENCIES {
        out.push((name, unit, scaled(op)));
    }
    let rate = outcome.completed as f64 / outcome.cpu_secs;
    out.push(("requests_per_cpu_s", "1/s", scale.map(|s| rate / s)));
    out.push(("peak_rss_mb", "MB", peak_rss_mb()));
    out
}

/// Where a per-layer metric comes from.
enum Source {
    /// Median duration of the named spans (under operations of the given
    /// kind, if any), times a scale (1 = ms, 1000 = µs).
    Span(&'static str, Option<&'static str>, f64),
    /// Median of the named count recorded during operations of a kind.
    Count(&'static str, &'static str),
    /// Client-observed p50 of explanations sent one at a time minus the
    /// p50 of their in-process replays.
    HttpOverhead,
}

/// The per-layer metrics, in `BENCHMARK.json` order. `main` is the root
/// span of the workload's main explanation.
fn per_layer(main: &'static str) -> Vec<(&'static str, &'static str, Source)> {
    use Source::*;
    vec![
        ("table.load_ms", "ms", Span("table.load", None, 1.0)),
        ("table.clone_ms", "ms", Span("table.clone", None, 1.0)),
        ("table.encode_ms", "ms", Span("table.encode", None, 1.0)),
        (
            "constraints.scan_ms",
            "ms",
            Span("constraints.scan", None, 1.0),
        ),
        (
            "constraints.witnesses",
            "count",
            Count("op.edit", "constraints.witnesses"),
        ),
        ("repair.full_ms", "ms", Span("repair.full", None, 1.0)),
        (
            "repair.cells_changed",
            "count",
            Count("op.repair", "repair.cells_changed"),
        ),
        (
            "repair.coalition_ms",
            "ms",
            Span("repair.coalition", Some(main), 1.0),
        ),
        ("oracle.queries", "count", Count(main, "oracle.queries")),
        ("oracle.hits", "count", Count(main, "oracle.hits")),
        ("oracle.misses", "count", Count(main, "oracle.misses")),
        ("oracle.hit_ratio", "ratio", Count(main, "oracle.hit_ratio")),
        ("oracle.entries", "count", Count(main, "oracle.entries")),
        ("oracle.hit_us", "us", Count(main, "oracle.hit_us")),
        (
            "games.coalition_table_us",
            "us",
            Span("games.coalition_table", Some(EXPLAIN_CELLS), 1e3),
        ),
        (
            "games.build_ms",
            "ms",
            Span("games.build", Some(EXPLAIN_CELLS), 1.0),
        ),
        (
            "explain.repair_target_ms",
            "ms",
            Span("explain.repair_target", Some(main), 1.0),
        ),
        (
            "shapley.walks_per_s",
            "1/s",
            Count(EXPLAIN_CELLS, "shapley.walks_per_s"),
        ),
        (
            "shapley.evals_per_walk",
            "count",
            Count(EXPLAIN_CELLS, "shapley.evals_per_walk"),
        ),
        (
            "shapley.exact_ms",
            "ms",
            Span("shapley.exact", Some(EXPLAIN_CONSTRAINTS), 1.0),
        ),
        ("http.explain_ms", "ms", Span("http.explain", None, 1.0)),
        (
            "http.violations_ms",
            "ms",
            Span("http.violations", None, 1.0),
        ),
        ("http.overhead_ms", "ms", HttpOverhead),
        ("http.non_2xx", "count", Count("http", "http.non_2xx")),
    ]
}

fn layer_value(tr: &Tracer, source: &Source) -> Option<f64> {
    match *source {
        Source::Span(name, op, scale) => median(&tr.durations_ms(name, op)).map(|v| v * scale),
        Source::Count(op, name) => median(&tr.counts(op, name)),
        Source::HttpOverhead => {
            let alone = "http.explain_alone";
            let client = median(&tr.durations_ms(alone, None))?;
            let replay = tr.durations_ms("session.explain_constraints", Some(alone));
            Some(client - median(&replay)?)
        }
    }
}

fn json_metrics(metrics: &[(&str, &str, Option<f64>)]) -> String {
    let mut out = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    format!("{{{out}}}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trex-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = if args.workload == "serve-soccer2k" {
        "2 http workers, 2 client connections"
    } else {
        "1 (library default)"
    };

    let (metrics, attempted, failed) = if args.trace {
        // Untraced first for the overhead baseline, then traced.
        let off = Tracer::new(false);
        let baseline = Run::new(&off);
        run_workload(args.workload, args.seed, args.seconds * 0.3, &baseline);
        let tr = Tracer::new(true);
        let run = Run::new(&tr);
        let outcome = run_workload(args.workload, args.seed, args.seconds * 0.7, &run);
        print_provenance(&args, outcome.fingerprint, nproc, threads);
        print_latencies(&run, &outcome);
        println!("per-layer self time per operation:");
        print!("{}", tr.self_time_report());
        println!("tracing overhead (traced minus untraced p50):");
        for (_, _, op) in LATENCIES {
            let on = median(&run.samples(op));
            if let (Some(on), Some(off)) = (on, median(&baseline.samples(op))) {
                let pct = 100.0 * (on - off) / off;
                println!("  {op:<20} {:+.3} ms ({pct:+.1}%)", on - off);
            }
        }
        let main = if args.workload == "cells-laliga" {
            EXPLAIN_CELLS
        } else {
            EXPLAIN_CONSTRAINTS
        };
        let metrics: Vec<_> = per_layer(main)
            .into_iter()
            .map(|(name, unit, source)| (name, unit, layer_value(&tr, &source)))
            .collect();
        let path = format!(".bench_trace/{}-seed{}.ndjson", args.workload, args.seed);
        if let Err(e) = tr.write_ndjson(std::path::Path::new(&path)) {
            eprintln!("trex-perfbench: cannot write {path}: {e}");
        }
        let attempted = baseline.attempted() + run.attempted();
        (metrics, attempted, baseline.failed() + run.failed())
    } else {
        let tr = Tracer::new(false);
        let run = Run::new(&tr);
        let outcome = run_workload(args.workload, args.seed, args.seconds, &run);
        print_provenance(&args, outcome.fingerprint, nproc, threads);
        print_latencies(&run, &outcome);
        (end_to_end(&run, &outcome), run.attempted(), run.failed())
    };
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {:>14} {unit}", number(*value));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        json_metrics(&metrics)
    );
}

fn print_provenance(args: &Args, fingerprint: u64, nproc: usize, threads: &str) {
    println!(
        "trex-perfbench workload={} seed={} seconds={} trace={} fingerprint={fingerprint:016x} \
         nproc={nproc} cpu={:?} threads={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu_model(),
    );
}
