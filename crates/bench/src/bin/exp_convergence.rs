//! Experiment E5: the sampling estimator converges to the exact Shapley
//! value at the Monte-Carlo rate (error ∝ 1/√m), the variance-reduced
//! variants (ablation A3) beat plain sampling at equal budget — and the
//! parallel permutation engine delivers the same workload faster.
//!
//! Ground truth comes from exact subset enumeration on a small cell game
//! (a 2×4 table: 7 player cells), so the error is against the *definition*,
//! not a long sampling run. The speedup section runs the paper's own la
//! Liga cell game (35 players) through the serial and parallel walk
//! estimators and reports wall time, throughput, and oracle hit rate.
//!
//! Run: `cargo run --release -p trex-bench --bin exp_convergence`
//!
//! Flags (all optional):
//!   --samples N     permutation walks for the speedup section (default 2000)
//!   --threads N     parallel worker count; 0 = available parallelism (default)
//!   --max-m N       cap on the convergence table's sample sizes (default 32768)
//!   --json PATH     also write the machine-readable benchmark record
//!                   (the BENCH_convergence.json the CI bench-smoke job tracks)

use std::time::Instant;
use trex::{CellGameMasked, MaskMode};
use trex_bench::{parse_flag, usage_error};
use trex_constraints::parse_dcs;
use trex_datagen::laliga;
use trex_repair::{FixAction, OracleStats, Rule, RuleRepair};
use trex_shapley::{
    estimate_player, estimate_player_antithetic, estimate_player_stratified, parallel,
    resolve_threads, shapley_exact, ConvergenceTrace, Game, ParallelConfig, SamplingConfig,
};
use trex_table::{CellRef, TableBuilder, Value};

const USAGE: &str = "usage: exp_convergence [--samples N] [--threads N] [--max-m N] [--json PATH]";

/// Minimal `--flag value` reader (the experiment binaries stay
/// dependency-free; rich parsing lives in the CLI crate). Unknown flags
/// and malformed values are usage errors: a typo in the CI bench-smoke
/// command must fail the job, not silently fall back to defaults and
/// mislabel the perf trajectory.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    const KNOWN: [&'static str; 4] = ["--samples", "--threads", "--max-m", "--json"];

    fn parse() -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            if !Self::KNOWN.contains(&flag.as_str()) {
                usage_error(USAGE, format!("unknown flag {flag:?}"));
            }
            match iter.next() {
                Some(value) if !value.starts_with("--") => pairs.push((flag, value)),
                _ => usage_error(USAGE, format!("{flag}: missing value")),
            }
        }
        Flags { pairs }
    }

    fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(Self::KNOWN.contains(&name));
        self.pairs
            .iter()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .map_or(default, |v| parse_flag(USAGE, name, v))
    }
}

/// One timed run of the la Liga walk estimator.
struct TimedRun {
    wall_ms: f64,
    samples_per_sec: f64,
    oracle: OracleStats,
    top_label: String,
    players: usize,
}

fn timed_walk(samples: usize, threads: usize) -> TimedRun {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);
    // A fresh game per run: the oracle cache must start cold so hit rates
    // and wall times are comparable across runs.
    let game = CellGameMasked::new(
        &alg,
        &dcs,
        &dirty,
        cell,
        Value::str("Spain"),
        MaskMode::Null,
    );
    let start = Instant::now();
    let estimates = parallel::estimate_all_walk(&game, ParallelConfig::new(samples, 1, threads));
    let wall = start.elapsed();
    let top = (0..Game::num_players(&game))
        .max_by(|a, b| estimates[*a].value.total_cmp(&estimates[*b].value))
        .map(|i| Game::player_label(&game, i))
        .unwrap_or_default();
    let wall_s = wall.as_secs_f64().max(1e-9);
    TimedRun {
        wall_ms: wall.as_secs_f64() * 1e3,
        samples_per_sec: samples as f64 / wall_s,
        oracle: game.oracle_stats(),
        top_label: top,
        players: Game::num_players(&game),
    }
}

fn main() {
    let flags = Flags::parse();
    let samples = flags.get_usize("--samples", 2000);
    let threads =
        resolve_threads(flags.get_usize("--threads", 0)).unwrap_or_else(|e| usage_error(USAGE, e));
    let max_m = flags.get_usize("--max-m", 32_768);
    let json_path = flags.get("--json").map(str::to_string);

    // ---- Part 1: error-vs-m table on a small game with exact ground truth.
    let table = TableBuilder::new()
        .str_columns(["League", "Country", "City", "Pad"])
        .str_row(["L", "Spain", "Madrid", "x"])
        .str_row(["L", "España", "Madrid", "y"])
        .build();
    let dcs = parse_dcs(
        "C2: !(t1.City = t2.City & t1.Country != t2.Country)\n\
         C3: !(t1.League = t2.League & t1.Country != t2.Country)\n",
    )
    .unwrap();
    let alg = RuleRepair::new(vec![
        Rule::new(
            "C2",
            FixAction::MostCommonGiven {
                attr: "Country".into(),
                given: "City".into(),
            },
        ),
        Rule::new(
            "C3",
            FixAction::MostCommon {
                attr: "Country".into(),
            },
        ),
    ]);
    let cell = CellRef::new(1, table.schema().id("Country"));
    let game = CellGameMasked::new(
        &alg,
        &dcs,
        &table,
        cell,
        Value::str("Spain"),
        MaskMode::Null,
    );
    let exact = shapley_exact(&game).unwrap();
    let player = (0..Game::num_players(&game))
        .max_by(|a, b| exact[*a].total_cmp(&exact[*b]))
        .unwrap();
    println!(
        "tracked player: {} (exact Shapley {:.6})",
        Game::player_label(&game, player),
        exact[player]
    );
    println!();

    println!(
        "{:>8} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
        "m", "plain", "err", "stratified", "err", "antithetic", "err"
    );
    let mut plain_trace = ConvergenceTrace::new(exact[player]);
    let n = Game::num_players(&game);
    for m in [32usize, 128, 512, 2048, 8192, 32768]
        .into_iter()
        .filter(|m| *m <= max_m)
    {
        // Average error over several seeds to smooth the table.
        let seeds = [1u64, 2, 3, 4, 5];
        let avg = |f: &dyn Fn(u64) -> f64| {
            let (mut est_sum, mut err_sum) = (0.0, 0.0);
            for &s in &seeds {
                let v = f(s);
                est_sum += v;
                err_sum += (v - exact[player]).abs();
            }
            (est_sum / seeds.len() as f64, err_sum / seeds.len() as f64)
        };
        let (p_est, p_err) = avg(&|s| {
            estimate_player(
                &game,
                player,
                SamplingConfig {
                    samples: m,
                    seed: s,
                },
            )
            .value
        });
        let (s_est, s_err) =
            avg(&|s| estimate_player_stratified(&game, player, (m / n).max(1), s).value);
        let (a_est, a_err) = avg(&|s| estimate_player_antithetic(&game, player, m / 2, s).value);
        // Track the seed-averaged |error| (recorded as exact + err so the
        // trace's abs_error equals the averaged error).
        plain_trace.record(m, exact[player] + p_err);
        println!(
            "{m:>8} | {p_est:>10.4} {p_err:>10.4} | {s_est:>10.4} {s_err:>10.4} | {a_est:>10.4} {a_err:>10.4}"
        );
    }
    println!();
    let slope = plain_trace.loglog_slope();
    if let Some(slope) = slope {
        println!("plain estimator log-log error slope: {slope:.3} (Monte-Carlo rate ≈ -0.5)");
    }

    // ---- Part 2: serial vs parallel walk estimation on the la Liga game.
    println!();
    println!("== la Liga cell game: {samples} permutation walks, serial vs {threads} thread(s) ==");
    let serial = timed_walk(samples, 1);
    let par = timed_walk(samples, threads);
    let speedup = serial.wall_ms / par.wall_ms.max(1e-9);
    println!(
        "serial:   {:>10.1} ms  {:>10.1} walks/s  oracle hit rate {:.3}",
        serial.wall_ms,
        serial.samples_per_sec,
        serial.oracle.hit_rate()
    );
    println!(
        "parallel: {:>10.1} ms  {:>10.1} walks/s  oracle hit rate {:.3}  (x{speedup:.2})",
        par.wall_ms,
        par.samples_per_sec,
        par.oracle.hit_rate()
    );
    println!(
        "top-ranked cell: {} (serial) / {} (parallel)",
        serial.top_label, par.top_label
    );

    // ---- Part 2b: the adaptive all-player driver on the Part 1 game. Its
    // output is the serial round-laddered estimator's at any thread count
    // (the contract tests/parallel_equivalence.rs pins), so --threads only
    // changes how fast this line prints.
    println!();
    let m = 2048usize.min(max_m.max(n));
    println!("== adaptive driver on {threads} thread(s) (cap m = {m} per cell) ==");
    let adaptive = parallel::estimate_all_adaptive(&game, 0.01, 1.96, 64, m, 1, threads);
    let (adapt, adapt_ok) = adaptive[player];
    println!(
        "tracked player: {:+.4} (err {:.4}, {} samples, converged: {adapt_ok})",
        adapt.value,
        (adapt.value - exact[player]).abs(),
        adapt.samples
    );
    let max_err = adaptive
        .iter()
        .zip(&exact)
        .map(|((e, _), x)| (e.value - x).abs())
        .fold(0.0f64, f64::max);
    println!(
        "all {n} cells: max err {max_err:.4}, {} of {n} converged",
        adaptive.iter().filter(|(_, ok)| *ok).count()
    );

    // ---- Part 3: the machine-readable record the CI perf trajectory reads.
    if let Some(path) = json_path {
        let slope_json = slope
            .map(|s| format!("{s:.6}"))
            .unwrap_or_else(|| "null".to_string());
        let json = format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"convergence\",\n",
                "  \"game\": \"laliga_cell_masked_null\",\n",
                "  \"players\": {players},\n",
                "  \"samples\": {samples},\n",
                "  \"threads\": {threads},\n",
                "  \"hardware_threads\": {hw},\n",
                "  \"serial\": {{ \"wall_ms\": {swall:.3}, \"samples_per_sec\": {srate:.1} }},\n",
                "  \"parallel\": {{ \"wall_ms\": {pwall:.3}, \"samples_per_sec\": {prate:.1} }},\n",
                "  \"speedup\": {speedup:.4},\n",
                "  \"oracle\": {{ \"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {rate:.6} }},\n",
                "  \"loglog_slope\": {slope_json}\n",
                "}}\n",
            ),
            players = par.players,
            samples = samples,
            threads = threads,
            hw = parallel::available_threads(),
            swall = serial.wall_ms,
            srate = serial.samples_per_sec,
            pwall = par.wall_ms,
            prate = par.samples_per_sec,
            speedup = speedup,
            hits = par.oracle.hits,
            misses = par.oracle.misses,
            rate = par.oracle.hit_rate(),
            slope_json = slope_json,
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }
}
