//! Experiment E6: wall-clock scaling of the two solvers — exact Shapley is
//! exponential in the player count (fine for constraint sets, "usually
//! small"), sampling is linear in m·players (the only option for cells) —
//! plus the thread-scaling of the parallel walk and adaptive estimators
//! (whose output is asserted identical at every thread count while we
//! measure) and of constraint violation detection (the row-pair scan
//! behind `trex violations` / `trex repair`).
//!
//! Run: `cargo run --release -p trex-bench --bin exp_scaling`
//!
//! Flags (all optional):
//!   --json PATH     also write the machine-readable scaling record (the
//!                   exp_scaling.json the CI bench-smoke job uploads as an
//!                   artifact next to bench_current.json)

use std::time::Instant;
use trex_bench::{usage_error, RandomBinaryGame};
use trex_constraints::{
    find_all_violations_par, generate_dcs, parse_dcs, statically_unviolable, DcGenConfig,
    DenialConstraint,
};
use trex_shapley::{
    estimate_all_walk, estimate_player, estimate_player_adaptive_rounds, parallel, player_seed,
    shapley_exact, Estimate, ParallelConfig, SamplingConfig, StochasticGame,
};
use trex_table::{Table, TableBuilder};

/// A synthetic league table with planted conflicts: `rows` rows bucketed
/// into 60 teams (7 cities each, so every bucket violates the Team→City FD)
/// plus a sprinkling of Country disagreements.
fn synthetic_table(rows: usize) -> Table {
    let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
    for i in 0..rows {
        let team = format!("T{}", i % 60);
        let city = format!("C{}", i % 7);
        let country = if i % 97 == 0 { "X" } else { "Y" }.to_string();
        b = b.str_row([team.as_str(), city.as_str(), country.as_str()]);
    }
    b.build()
}

fn violation_dcs(table: &Table) -> Vec<DenialConstraint> {
    parse_dcs(
        "C1: !(t1.Team = t2.Team & t1.City != t2.City)\n\
         C2: !(t1.City = t2.City & t1.Country != t2.Country)\n",
    )
    .unwrap()
    .into_iter()
    .map(|dc| dc.resolved(table.schema()).unwrap())
    .collect()
}

/// FNV-1a over a stream of 64-bit words: the output fingerprint CI
/// compares between every thread count and the serial reference.
fn fnv_hash(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The exact bits of one estimate, in fingerprint order.
fn estimate_words(e: &Estimate) -> [u64; 3] {
    [e.value.to_bits(), e.std_dev.to_bits(), e.samples as u64]
}

/// Fingerprint of a walk result set.
fn walk_hash(results: &[Estimate]) -> u64 {
    fnv_hash(results.iter().flat_map(estimate_words))
}

/// Fingerprint of an adaptive result set (estimates plus convergence
/// flags).
fn adaptive_hash(results: &[(Estimate, bool)]) -> u64 {
    fnv_hash(
        results.iter().flat_map(|(e, converged)| {
            estimate_words(e).into_iter().chain([u64::from(*converged)])
        }),
    )
}

const USAGE: &str = "usage: exp_scaling [--json PATH]";

/// Minimal `--json PATH` reader (the experiment binaries stay
/// dependency-free). Any other flag is a usage error: a typo in the CI
/// command must fail the job, not silently mislabel the artifact.
fn json_flag() -> Option<String> {
    let mut iter = std::env::args().skip(1);
    let mut path = None;
    while let Some(flag) = iter.next() {
        if flag != "--json" {
            usage_error(USAGE, format!("unknown flag {flag:?}"));
        }
        match iter.next() {
            Some(value) if !value.starts_with("--") => path = Some(value),
            _ => usage_error(USAGE, "--json: missing value"),
        }
    }
    path
}

fn main() {
    let json_path = json_flag();
    println!("== exact subset enumeration: time vs players (2^n growth) ==");
    println!("{:>4} {:>12} {:>14}", "n", "coalitions", "time");
    for n in [4usize, 8, 12, 16, 20] {
        let game = RandomBinaryGame::new(n, 3, 7);
        let start = Instant::now();
        let phi = shapley_exact(&game).unwrap();
        let dt = start.elapsed();
        assert_eq!(phi.len(), n);
        println!("{n:>4} {:>12} {:>14.3?}", 1u64 << n, dt);
    }

    println!("\n== permutation sampling: time vs m (linear), n = 40 ==");
    println!("{:>8} {:>14} {:>14}", "m", "time", "time/sample");
    let game = RandomBinaryGame::new(40, 5, 11);
    for m in [1_000usize, 10_000, 100_000] {
        let start = Instant::now();
        let est = estimate_player(
            &game,
            0,
            SamplingConfig {
                samples: m,
                seed: 3,
            },
        );
        let dt = start.elapsed();
        println!("{m:>8} {:>14.3?} {:>14.1?}", dt, dt / m as u32);
        let _ = est;
    }

    println!("\n== parallel walk estimation: time vs threads (n = 40, m = 2000) ==");
    println!(
        "({} hardware thread(s) available; past that, extra workers only re-chunk)",
        parallel::available_threads()
    );
    println!("(workers claim blocks of the one serial permutation stream and evaluate");
    println!(" each walk's n+1 prefixes once; the output hash is asserted equal to the");
    println!(" serial estimator's at every thread count while we measure)");
    println!(
        "{:>8} {:>14} {:>10} {:>18}",
        "threads", "time", "speedup", "hash"
    );
    let game = RandomBinaryGame::new(40, 5, 11);
    let walk_config = SamplingConfig {
        samples: 2000,
        seed: 3,
    };
    let walk_serial_hash = walk_hash(&estimate_all_walk(&game, walk_config));
    let mut walk_base = None;
    let mut walk_rows: Vec<(usize, f64, u64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let ests =
            parallel::estimate_all_walk(&game, ParallelConfig::from_sampling(walk_config, threads));
        let dt = start.elapsed();
        assert_eq!(ests.len(), 40);
        // The determinism contract, asserted while we measure: every
        // thread count reproduces the serial estimates exactly.
        let hash = walk_hash(&ests);
        assert_eq!(
            hash, walk_serial_hash,
            "walk output diverged from serial at {threads} threads"
        );
        let base = *walk_base.get_or_insert(dt);
        println!(
            "{threads:>8} {dt:>14.3?} {:>9.2}x {hash:>18x}",
            base.as_secs_f64() / dt.as_secs_f64().max(1e-12)
        );
        walk_rows.push((threads, dt.as_secs_f64() * 1e3, hash));
    }

    println!("\n== adaptive budgets, one hot player: round stealing vs threads ==");
    println!("(16 players; player 0 is a ±1 coin flip that runs to the 6000-sample");
    println!(" cap, the rest are dummies that stop at two batches — so one player");
    println!(" owns ~80% of the budget. Idle workers steal that player's rounds; the");
    println!(" output is asserted bit-identical to its serial round-laddered");
    println!(" reference at every thread count while we measure.)");
    println!("{:>8} {:>14} {:>10}", "threads", "time", "speedup");
    let hot_game = trex_shapley::game::fixtures::one_hot(16, 20_000);
    let hot_players = StochasticGame::num_players(&hot_game);
    let (tol, z, batch, cap, hot_seed) = (0.02f64, 1.96f64, 50usize, 6000usize, 17u64);
    let steal_serial: Vec<(Estimate, bool)> = (0..hot_players)
        .map(|p| {
            estimate_player_adaptive_rounds(
                &hot_game,
                p,
                tol,
                z,
                batch,
                cap,
                player_seed(hot_seed, p),
            )
        })
        .collect();
    assert!(!steal_serial[0].1, "the hot player must run to the cap");
    assert!(steal_serial[1].1, "dummies must converge early");
    let steal_hash = adaptive_hash(&steal_serial);
    // Best of 3 runs per measurement: the 4-vs-1-thread assertion below
    // gates CI, so one preempted run on a shared runner must not be able to
    // flip a timing comparison with a ~3× expected margin.
    let best_of = |threads: usize| {
        let mut best: Option<(std::time::Duration, Vec<(Estimate, bool)>)> = None;
        for _ in 0..3 {
            let start = Instant::now();
            let out =
                parallel::estimate_all_adaptive(&hot_game, tol, z, batch, cap, hot_seed, threads);
            let dt = start.elapsed();
            if best.as_ref().is_none_or(|(b, _)| dt < *b) {
                best = Some((dt, out));
            }
        }
        best.expect("three runs produce a best")
    };
    let mut steal_base = None;
    let mut steal_rows: Vec<(usize, f64, u64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (steal_dt, stolen) = best_of(threads);
        // The determinism contract, asserted while we measure: every
        // thread count reproduces the serial round ladder exactly.
        assert_eq!(
            stolen, steal_serial,
            "adaptive output diverged from serial at {threads} threads"
        );
        let s_base = *steal_base.get_or_insert(steal_dt);
        // The headline claim: with real cores, stealing spreads the hot
        // player's rounds, so 4 workers beat 1. Only asserted where the
        // hardware can show it — a smaller box serializes the workers.
        if parallel::available_threads() >= 4 && threads == 4 {
            assert!(
                steal_dt < s_base,
                "round stealing at 4 threads must beat 1 thread on the \
                 one-hot-player workload ({steal_dt:?} vs {s_base:?})"
            );
        }
        println!(
            "{threads:>8} {steal_dt:>14.3?} {:>9.2}x",
            s_base.as_secs_f64() / steal_dt.as_secs_f64().max(1e-12)
        );
        steal_rows.push((
            threads,
            steal_dt.as_secs_f64() * 1e3,
            adaptive_hash(&stolen),
        ));
    }

    println!("\n== violation detection: time vs threads (2000 rows, 2 DCs) ==");
    println!("(the row-pair scan behind `trex violations` / `trex repair`;");
    println!(" output is identical at every thread count — wall time only)");
    println!(
        "{:>8} {:>14} {:>10} {:>12}",
        "threads", "time", "speedup", "violations"
    );
    let table = synthetic_table(2000);
    let dcs = violation_dcs(&table);
    let mut baseline: Option<(std::time::Duration, usize)> = None;
    let mut violation_rows: Vec<(usize, f64, usize)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let violations = find_all_violations_par(&dcs, &table, threads);
        let dt = start.elapsed();
        let (base, count) = *baseline.get_or_insert((dt, violations.len()));
        assert_eq!(
            violations.len(),
            count,
            "parallel detection changed the violation count"
        );
        println!(
            "{threads:>8} {dt:>14.3?} {:>9.2}x {:>12}",
            base.as_secs_f64() / dt.as_secs_f64().max(1e-12),
            violations.len()
        );
        violation_rows.push((threads, dt.as_secs_f64() * 1e3, violations.len()));
    }

    println!("\n== dead constraints: live DCs alone vs program with 3 dead DCs (2000 rows) ==");
    println!("(the analyzer proves the injected X* constraints can never be violated,");
    println!(" and every scan skips them. Witness lists are asserted identical, and");
    println!(" the program must cost less than 2x the live DCs alone)");
    // The live constraints are the same two FDs as the curve above; the
    // generator only injects the dead ones (contradictory order pairs with
    // no equality join key, so scanning one would cost a full nested-loop
    // pass, several times the live scan).
    let gen_cfg = DcGenConfig {
        count: 0,
        max_lhs: 2,
        order_fraction: 0.0,
        seed: 11,
        redundant: 0,
        unsat: 3,
    };
    let live_dcs = violation_dcs(&table);
    let mut program = live_dcs.clone();
    program.extend(
        generate_dcs(table.schema(), &gen_cfg)
            .iter()
            .map(|dc| dc.resolved(table.schema()).unwrap()),
    );
    let dead = program
        .iter()
        .filter(|dc| statically_unviolable(dc).is_some())
        .count();
    assert_eq!(
        dead, gen_cfg.unsat,
        "every injected X* constraint must be proven unviolable"
    );
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>12}",
        "threads", "live", "program", "ratio", "violations"
    );
    // Best of 3 per measurement, same rationale as the steal curve: the
    // ratio assertion gates CI, so a single preempted run must not flip it.
    let scan_best_of = |dcs: &[DenialConstraint], threads: usize| {
        let mut best: Option<std::time::Duration> = None;
        let mut out = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            out = find_all_violations_par(dcs, &table, threads);
            let dt = start.elapsed();
            if best.is_none_or(|b| dt < b) {
                best = Some(dt);
            }
        }
        (best.expect("three runs produce a best"), out)
    };
    let mut dead_rows: Vec<(usize, f64, f64, usize)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (live_dt, live) = scan_best_of(&live_dcs, threads);
        let (program_dt, found) = scan_best_of(&program, threads);
        assert_eq!(
            live, found,
            "dead DCs changed the witness list at {threads} threads"
        );
        assert!(
            program_dt < 2 * live_dt,
            "dead DCs must be skipped at {threads} threads \
             ({program_dt:?} for the program vs {live_dt:?} for the live DCs)"
        );
        println!(
            "{threads:>8} {live_dt:>14.3?} {program_dt:>14.3?} {:>9.2}x {:>12}",
            program_dt.as_secs_f64() / live_dt.as_secs_f64().max(1e-12),
            live.len()
        );
        dead_rows.push((
            threads,
            live_dt.as_secs_f64() * 1e3,
            program_dt.as_secs_f64() * 1e3,
            live.len(),
        ));
    }

    println!("\ninterpretation: exact doubles per added player; sampling is flat per sample");
    println!("and splits across workers — and so does the violation scan, which is why");
    println!("repair loops (detect → fix → re-detect) take --threads too. This is the");
    println!("asymmetry behind the paper's two-solver design (§2.3).");

    // Machine-readable record for the CI artifact: the walk curve and the
    // skewed-budget steal curve (each row with the output fingerprint CI
    // re-checks against the serial hash), and the violation-detection
    // curve, per thread count.
    if let Some(path) = json_path {
        let walk_json: Vec<String> = walk_rows
            .iter()
            .map(|(threads, wall_ms, hash)| {
                format!(
                    "    {{ \"threads\": {threads}, \"wall_ms\": {wall_ms:.3}, \
                     \"hash\": \"{hash:016x}\" }}"
                )
            })
            .collect();
        let steal_json: Vec<String> = steal_rows
            .iter()
            .map(|(threads, steal_ms, hash)| {
                format!(
                    "    {{ \"threads\": {threads}, \"steal_ms\": {steal_ms:.3}, \
                     \"hash\": \"{hash:016x}\" }}"
                )
            })
            .collect();
        let violation_json: Vec<String> = violation_rows
            .iter()
            .map(|(threads, ms, count)| {
                let rows_per_sec = 2000.0 / (ms / 1e3).max(1e-12);
                format!(
                    "    {{ \"threads\": {threads}, \"wall_ms\": {ms:.3}, \
                     \"rows_per_sec\": {rows_per_sec:.1}, \"violations\": {count} }}"
                )
            })
            .collect();
        let dead_json: Vec<String> = dead_rows
            .iter()
            .map(|(threads, live_ms, program_ms, count)| {
                format!(
                    "    {{ \"threads\": {threads}, \"live_ms\": {live_ms:.3}, \
                     \"program_ms\": {program_ms:.3}, \"violations\": {count} }}"
                )
            })
            .collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"scaling\",\n",
                "  \"hardware_threads\": {hw},\n",
                "  \"walk\": {{\n",
                "    \"players\": 40,\n",
                "    \"samples\": 2000,\n",
                "    \"per_thread\": [\n{walk}\n    ]\n",
                "  }},\n",
                "  \"steal\": {{\n",
                "    \"players\": 16,\n",
                "    \"batch\": 50,\n",
                "    \"max_samples\": 6000,\n",
                "    \"serial_hash\": \"{steal_hash:016x}\",\n",
                "    \"per_thread\": [\n{steal}\n    ]\n",
                "  }},\n",
                "  \"violations\": {{\n",
                "    \"rows\": 2000,\n",
                "    \"dcs\": 2,\n",
                "    \"per_thread\": [\n{violations}\n    ]\n",
                "  }},\n",
                "  \"dead_dcs\": {{\n",
                "    \"rows\": 2000,\n",
                "    \"dcs_total\": {dcs_total},\n",
                "    \"dcs_dead\": {dcs_dead},\n",
                "    \"per_thread\": [\n{dead}\n    ]\n",
                "  }}\n",
                "}}\n",
            ),
            hw = parallel::available_threads(),
            walk = walk_json.join(",\n"),
            steal_hash = steal_hash,
            steal = steal_json.join(",\n"),
            violations = violation_json.join(",\n"),
            dcs_total = program.len(),
            dcs_dead = dead,
            dead = dead_json.join(",\n"),
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }
}
