//! Experiment E7: the end-to-end stress harness over the scenario corpus.
//!
//! Runs the full demo pipeline — generate → violations → repair → explain
//! — at configurable scale under a wall-clock budget, and records per-phase
//! wall time and rows/s, resident-set telemetry from `/proc/self/status`
//! (`VmRSS` per phase, `VmHWM` peak), the repair-oracle hit/eviction
//! counters of the explanation, and the thread and oracle knobs into a JSON
//! artifact next to the other `exp_*` outputs. This is the profile the
//! next perf PR targets: at a million rows it shows which hot path
//! dominates (the violation scan, the rule repair's column statistics, or
//! the coalition repairs behind the explanation).
//!
//! Run: `cargo run --release -p trex-bench --bin exp_stress -- --rows 1000000 --json exp_stress.json`
//!
//! Flags (all optional):
//!   --schema NAME     laliga | soccer | adult | sensor (default soccer —
//!                     the schema whose equality buckets stay bounded at
//!                     any scale; laliga/adult go quadratic, see the
//!                     scenario module docs)
//!   --rows N          target row count (default 1000000)
//!   --seed N          scenario seed (default 0)
//!   --rate F          total error rate, split across kinds with exact
//!                     accounting (default 0.00001; must dirty >= 1 cell)
//!   --skew F          Zipf exponent for sensor keys and duplicate donors
//!                     (default 1.2)
//!   --threads N       worker threads, 0 = all cores (default 0)
//!   --oracle-cap N    bound the explain oracle to N entries (default:
//!                     oracle default; small values force evictions)
//!   --budget-secs N   wall-clock budget; exceeding it fails the run
//!                     (default 1800)
//!   --json PATH       write the machine-readable artifact

use std::time::Instant;
use trex::Session;
use trex_bench::{parse_flag, usage_error};
use trex_datagen::{generate_scenario, ErrorRates, ScenarioConfig, SchemaKind};
use trex_repair::RepairAlgorithm as _;
use trex_shapley::{parallel, resolve_threads, ExecConfig};
use trex_table::EncodedTable;

const USAGE: &str = "usage: exp_stress [--schema NAME] [--rows N] [--seed N] [--rate F] \
                     [--skew F] [--threads N] [--oracle-cap N] [--budget-secs N] [--json PATH]";

struct StressArgs {
    schema: SchemaKind,
    rows: usize,
    seed: u64,
    rate: f64,
    skew: f64,
    threads: usize,
    oracle_cap: Option<usize>,
    budget_secs: u64,
    json: Option<String>,
}

/// Minimal flag reader in the `exp_scaling` style (the experiment binaries
/// stay dependency-free). Any unknown flag or malformed value is a usage
/// error: a typo in the CI command must fail the job, not silently
/// mislabel the artifact.
fn parse_args() -> StressArgs {
    let mut out = StressArgs {
        schema: SchemaKind::Soccer,
        rows: 1_000_000,
        seed: 0,
        rate: 0.000_01,
        skew: 1.2,
        threads: 0,
        oracle_cap: None,
        budget_secs: 1800,
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
            "--rate" => out.rate = parse_flag(USAGE, f, &value()),
            "--skew" => out.skew = parse_flag(USAGE, f, &value()),
            "--threads" => out.threads = parse_flag(USAGE, f, &value()),
            "--oracle-cap" => out.oracle_cap = Some(parse_flag(USAGE, f, &value())),
            "--budget-secs" => out.budget_secs = parse_flag(USAGE, f, &value()),
            "--json" => out.json = Some(value()),
            other => usage_error(USAGE, format!("unknown flag {other:?}")),
        }
    }
    out
}

/// One `/proc/self/status` field in kB (`VmRSS`, `VmHWM`). `None` where
/// procfs is unavailable (non-Linux dev boxes) or the field is absent —
/// distinguishable from a genuine 0 kB reading, so the artifact records
/// `null` instead of a fake measurement.
fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            if let Some(rest) = rest.strip_prefix(':') {
                return rest.split_whitespace().next()?.parse().ok();
            }
        }
    }
    None
}

fn rss_mb() -> Option<f64> {
    Some(proc_status_kb("VmRSS")? as f64 / 1024.0)
}

fn peak_rss_mb() -> Option<f64> {
    Some(proc_status_kb("VmHWM")? as f64 / 1024.0)
}

/// `{x:.1}` for a present measurement, JSON `null` for an absent one.
fn mb_json(x: Option<f64>) -> String {
    x.map_or("null".to_string(), |v| format!("{v:.1}"))
}

/// One finished phase, as reported to stdout and the JSON artifact.
struct Phase {
    name: &'static str,
    wall_ms: f64,
    rows_per_sec: f64,
    rss_mb: Option<f64>,
    /// Extra JSON fields, pre-rendered as `"key": value` pairs.
    extra: Vec<String>,
}

fn finish_phase(name: &'static str, rows: usize, started: Instant, extra: Vec<String>) -> Phase {
    let wall = started.elapsed().as_secs_f64();
    let phase = Phase {
        name,
        wall_ms: wall * 1e3,
        rows_per_sec: rows as f64 / wall.max(1e-9),
        rss_mb: rss_mb(),
        extra,
    };
    println!(
        "{name:>12} {:>12.1} ms {:>14.0} rows/s {:>9} MB rss",
        phase.wall_ms,
        phase.rows_per_sec,
        phase
            .rss_mb
            .map_or("n/a".to_string(), |m| format!("{m:.1}")),
    );
    phase
}

fn main() {
    let args = parse_args();
    let threads = resolve_threads(args.threads).unwrap_or_else(|e| usage_error(USAGE, e));
    println!(
        "== exp_stress: {} @ {} rows (seed {}, rate {}, skew {}, {} thread(s), budget {}s) ==",
        args.schema, args.rows, args.seed, args.rate, args.skew, threads, args.budget_secs,
    );
    let total_start = Instant::now();
    let mut phases: Vec<Phase> = Vec::new();

    // Phase 1: generate the scenario (clean table + injected errors +
    // constraints + schema-matched repairer).
    let mut config = ScenarioConfig::new(args.schema, args.rows, args.seed);
    config.error.rates = Some(ErrorRates::split(args.rate));
    config.error.duplicate_skew = args.skew;
    config.sensor.skew = args.skew;
    let started = Instant::now();
    let scenario = generate_scenario(&config);
    let rows = scenario.clean.num_rows();
    let cells = scenario.clean.num_cells();
    let injected = scenario.injection.truth.len();
    let fingerprint = scenario.fingerprint();
    phases.push(finish_phase(
        "datagen",
        rows,
        started,
        vec![format!("\"errors_injected\": {injected}")],
    ));
    assert!(
        injected > 0,
        "rate {} dirtied no cell of {} eligible — raise --rate or --rows",
        args.rate,
        cells,
    );

    // Dictionary telemetry (not a phase — the encode rides inside the
    // violation scan in production; this run surfaces its cost and the
    // per-column cardinalities the columnar core works with).
    let started = Instant::now();
    let encoded = EncodedTable::encode(&scenario.injection.dirty);
    let encode_ms = started.elapsed().as_secs_f64() * 1e3;
    let distinct = encoded.distinct_counts();
    println!("  dictionary {encode_ms:>10.1} ms encode, distinct per column {distinct:?}");

    // One execution configuration drives the whole pipeline: the repair
    // engine's violation scans, the session's detection, and the
    // explanation's sampling/oracle all read the same knobs.
    let mut cfg = ExecConfig::new().with_threads(threads);
    if let Some(cap) = args.oracle_cap {
        cfg = cfg.with_oracle_cap(cap);
    }

    // The session drives the remaining phases end to end, exactly like the
    // demo loop: detection and repair on the session's worker threads, the
    // explanation over the bounded sharded oracle.
    let repairer = scenario.repairer.clone().with_exec(&cfg);
    let mut session = Session::new(
        Box::new(repairer),
        scenario.injection.dirty.clone(),
        scenario.constraints.clone(),
    )
    .with_config(cfg);

    // Phase 2: violation detection (the input screen).
    let started = Instant::now();
    let violations = session.violations().expect("constraints resolve").len();
    phases.push(finish_phase(
        "violations",
        rows,
        started,
        vec![format!("\"violations\": {violations}")],
    ));
    assert!(violations > 0, "injected errors must violate something");

    // Phase 3: repair (the Repair button).
    let started = Instant::now();
    let repair = session.repair();
    let repaired = repair.changes.len();
    phases.push(finish_phase(
        "repair",
        rows,
        started,
        vec![format!("\"cells_repaired\": {repaired}")],
    ));
    assert!(
        repaired > 0,
        "the scenario repairer must change at least one cell"
    );

    // Phase 4: explain the first repaired cell (the Explain button,
    // constraint half — the solver that stays exact at any table size).
    let cell = repair.changes[0].cell;
    let started = Instant::now();
    let explanation = session
        .explain_constraints(cell)
        .expect("a repaired cell explains");
    // The session's explainer memoizes into the session cache, which has
    // seen no other oracle traffic: its counters are this explanation's.
    let oracle = session.oracle_cache().stats();
    let top = explanation.ranking.top().expect("non-empty ranking");
    phases.push(finish_phase(
        "explain",
        rows,
        started,
        vec![
            format!("\"explained_cell\": \"{cell}\""),
            format!("\"top_constraint\": \"{}\"", top.label),
            format!(
                "\"oracle\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {} }}",
                oracle.hits, oracle.misses, oracle.evictions
            ),
        ],
    ));

    let elapsed = total_start.elapsed().as_secs_f64();
    let within_budget = elapsed <= args.budget_secs as f64;
    let peak = peak_rss_mb();
    println!(
        "\ntotal {elapsed:.1}s of {}s budget ({}); peak rss {} MB; \
         top constraint {} for {cell}",
        args.budget_secs,
        if within_budget { "ok" } else { "EXCEEDED" },
        peak.map_or("n/a".to_string(), |m| format!("{m:.1}")),
        top.label,
    );

    if let Some(path) = &args.json {
        let phase_json: Vec<String> = phases
            .iter()
            .map(|p| {
                let mut fields = vec![
                    format!("\"phase\": \"{}\"", p.name),
                    format!("\"wall_ms\": {:.3}", p.wall_ms),
                    format!("\"rows_per_sec\": {:.1}", p.rows_per_sec),
                    format!("\"rss_mb\": {}", mb_json(p.rss_mb)),
                ];
                fields.extend(p.extra.iter().cloned());
                format!("    {{ {} }}", fields.join(", "))
            })
            .collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"stress\",\n",
                "  \"schema\": \"{schema}\",\n",
                "  \"rows_target\": {rows_target},\n",
                "  \"rows\": {rows},\n",
                "  \"cells\": {cells},\n",
                "  \"seed\": {seed},\n",
                "  \"rate\": {rate},\n",
                "  \"skew\": {skew},\n",
                "  \"errors_injected\": {injected},\n",
                "  \"fingerprint\": \"{fingerprint:016x}\",\n",
                "  \"threads\": {threads},\n",
                "  \"hardware_threads\": {hw},\n",
                "  \"oracle_capacity\": {cap},\n",
                "  \"budget_secs\": {budget},\n",
                "  \"elapsed_secs\": {elapsed:.3},\n",
                "  \"within_budget\": {within},\n",
                "  \"peak_rss_mb\": {peak},\n",
                "  \"dictionary\": {{ \"encode_ms\": {encode_ms:.3}, ",
                "\"distinct_counts\": [{distinct}] }},\n",
                "  \"phases\": [\n{phases}\n  ]\n",
                "}}\n",
            ),
            schema = args.schema,
            rows_target = args.rows,
            rows = rows,
            cells = cells,
            seed = args.seed,
            rate = args.rate,
            skew = args.skew,
            injected = injected,
            fingerprint = fingerprint,
            threads = threads,
            hw = parallel::available_threads(),
            cap = args
                .oracle_cap
                .map_or("null".to_string(), |c| c.to_string()),
            budget = args.budget_secs,
            elapsed = elapsed,
            within = within_budget,
            peak = mb_json(peak),
            encode_ms = encode_ms,
            distinct = distinct
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            phases = phase_json.join(",\n"),
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if !within_budget {
        eprintln!(
            "exp_stress: wall clock {elapsed:.1}s exceeded the {}s budget",
            args.budget_secs
        );
        std::process::exit(1);
    }
}
