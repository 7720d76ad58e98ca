//! Serial equivalence of the Shapley sampling engine, on the paper's own
//! games (cross-crate: `trex-shapley` workers driving the `trex-core`
//! coalition games over the `trex-repair` sharded oracle).
//!
//! One contract is under test: every parallel driver returns its serial
//! estimator's output bit for bit at every thread count.
//! * `parallel::estimate_all` is `sampling::estimate_all`;
//! * `parallel::estimate_all_walk` is `sampling::estimate_all_walk` — in
//!   values and, on a fresh oracle cache, in the oracle's hit/miss
//!   counters — and every checkpoint of `estimate_all_walk_anytime` is a
//!   completed walk run with that checkpoint's budget;
//! * `parallel::estimate_all_adaptive` is the serial round-laddered
//!   estimator (`sampling::estimate_player_adaptive_rounds` under the
//!   `player_seed` ladder), pinned on a skewed fixture where one hot player
//!   owns an order of magnitude more budget than the rest;
//! * end to end, `Explainer::explain_cells_{masked,sampled,adaptive}` and
//!   `explain_cells_masked_anytime` through `Session::explainer` print the
//!   1-thread answer at every thread count — including the Figure 2
//!   ranking at 16 threads.
//!
//! Program slicing rides along: explanations under an engine's declared
//! slice (`trex_repair::Reach`) are the unsliced explanations bit for bit
//! at every thread count.
//!
//! So does the masked cell game's walk hook (`Game::walk_values` on one
//! working table per walk): its prefix values are the per-prefix
//! `Game::value` answers and the reference coalition tables' answers, and
//! the oracle's absolute hit/miss counts on the Figure 2 rankings are
//! pinned, so a key change that merged or split coalitions would show. The
//! working table's code-keeping writes (`Table::set_keep_codes` over a
//! spanning encoding) scan and repair exactly like a fresh copy.
//!
//! The giant-bucket block split of `find_all_violations_par` rides along:
//! it keeps the violation scan's output the 1-thread output on a table
//! whose rows all share one equality-bucket key.
//!
//! CI's thread-matrix job re-runs this file with `TREX_TEST_THREADS` set to
//! 1/2/4/8 on a machine with real cores; the variable adds that count to
//! every thread sweep below.

use trex::{CellGameMasked, CellGameSampled, ExecConfig, Explainer, MaskMode, Session};
use trex_constraints::DenialConstraint;
use trex_datagen::laliga;
use trex_repair::{OracleStats, RepairAlgorithm, RepairResult};
use trex_shapley::{
    parallel, player_seed, sampling, AnytimeControl, Coalition, Estimate, Game, ParallelConfig,
    SamplingConfig, StochasticGame,
};
use trex_table::{CellRef, Table, Value};

/// The thread counts every sweep exercises: 1, 2, 3, 4, 8 and 16, plus the
/// CI thread-matrix count from `TREX_TEST_THREADS` when set.
fn thread_counts() -> Vec<usize> {
    with_test_threads(vec![1, 2, 3, 4, 8, 16])
}

/// `counts` plus the CI thread-matrix count from `TREX_TEST_THREADS` when
/// set.
fn with_test_threads(mut counts: Vec<usize>) -> Vec<usize> {
    if let Ok(raw) = std::env::var("TREX_TEST_THREADS") {
        let extra: usize = raw
            .parse()
            .expect("TREX_TEST_THREADS must be a thread count");
        assert!(extra >= 1, "TREX_TEST_THREADS must be >= 1");
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

/// The la Liga null-mask cell game (the walk estimator's game) with a
/// fresh oracle cache.
fn masked_game<'a>(
    alg: &'a trex_repair::RuleRepair,
    dcs: &'a [trex_constraints::DenialConstraint],
    dirty: &'a trex_table::Table,
) -> CellGameMasked<'a> {
    let cell = laliga::cell_of_interest(dirty);
    CellGameMasked::new(alg, dcs, dirty, cell, Value::str("Spain"), MaskMode::Null)
}

/// The la Liga replacement-semantics cell game (the stochastic game the
/// per-player estimators run on) with a fresh oracle cache.
fn sampled_game<'a>(
    alg: &'a trex_repair::RuleRepair,
    dcs: &'a [trex_constraints::DenialConstraint],
    dirty: &'a trex_table::Table,
) -> CellGameSampled<'a> {
    let cell = laliga::cell_of_interest(dirty);
    CellGameSampled::new(alg, dcs, dirty, cell, Value::str("Spain"))
}

/// The serial reference of `parallel::estimate_all_adaptive`: the
/// round-laddered estimator per player under the `player_seed` ladder.
fn serial_adaptive<G: StochasticGame + ?Sized>(
    game: &G,
    (tol, z, batch, cap, seed): (f64, f64, usize, usize, u64),
) -> Vec<(Estimate, bool)> {
    (0..game.num_players())
        .map(|p| {
            sampling::estimate_player_adaptive_rounds(
                game,
                p,
                tol,
                z,
                batch,
                cap,
                player_seed(seed, p),
            )
        })
        .collect()
}

#[test]
fn one_thread_walk_matches_serial_on_the_laliga_cell_game() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let game = masked_game(&alg, &dcs, &dirty);
    let cfg = SamplingConfig {
        samples: 200,
        seed: 3,
    };
    let serial = sampling::estimate_all_walk(&game, cfg);
    let par = parallel::estimate_all_walk(&game, ParallelConfig::from_sampling(cfg, 1));
    assert_eq!(serial, par, "threads = 1 must replay the serial stream");
}

#[test]
fn walk_driver_is_serial_identical_on_the_laliga_cell_game() {
    // Values *and* oracle counters: each thread count runs on a fresh
    // cache and must issue exactly the serial walk's coalition queries.
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cfg = SamplingConfig {
        samples: 80,
        seed: 3,
    };
    let reference = masked_game(&alg, &dcs, &dirty);
    let serial = sampling::estimate_all_walk(&reference, cfg);
    let serial_stats = reference.oracle_stats();
    assert!(serial_stats.misses > 0 && serial_stats.hits > 0);
    for threads in thread_counts() {
        let game = masked_game(&alg, &dcs, &dirty);
        let par = parallel::estimate_all_walk(&game, ParallelConfig::from_sampling(cfg, threads));
        assert_eq!(serial, par, "threads = {threads}");
        assert_eq!(serial_stats, game.oracle_stats(), "threads = {threads}");
    }
}

#[test]
fn every_anytime_checkpoint_is_a_completed_walk_run_on_the_laliga_cell_game() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let game = masked_game(&alg, &dcs, &dirty);
    for threads in thread_counts() {
        let mut checkpoints = Vec::new();
        let (last, finished) = parallel::estimate_all_walk_anytime(
            &game,
            ParallelConfig::new(90, 5, threads),
            25,
            |cp| {
                checkpoints.push((cp.completed, cp.estimates.to_vec()));
                AnytimeControl::Continue
            },
        );
        assert!(finished, "threads = {threads}");
        let budgets: Vec<usize> = checkpoints.iter().map(|(c, _)| *c).collect();
        assert_eq!(budgets, [25, 50, 75, 90], "threads = {threads}");
        for (budget, estimates) in &checkpoints {
            let cfg = SamplingConfig {
                samples: *budget,
                seed: 5,
            };
            let completed = sampling::estimate_all_walk(&game, cfg);
            assert_eq!(*estimates, completed, "threads {threads}, budget {budget}");
        }
        assert_eq!(last, checkpoints.last().unwrap().1);
    }
}

#[test]
fn one_thread_replacement_sampling_matches_serial() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let game = sampled_game(&alg, &dcs, &dirty);
    let cfg = SamplingConfig {
        samples: 40,
        seed: 7,
    };
    let serial = sampling::estimate_all(&game, cfg);
    let par = parallel::estimate_all(&game, ParallelConfig::from_sampling(cfg, 1));
    assert_eq!(serial, par);
}

#[test]
fn player_sharded_estimate_all_is_serial_identical_on_the_laliga_cell_game() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cfg = SamplingConfig {
        samples: 30,
        seed: 7,
    };
    let serial = sampling::estimate_all(&sampled_game(&alg, &dcs, &dirty), cfg);
    for threads in thread_counts() {
        let par = parallel::estimate_all(
            &sampled_game(&alg, &dcs, &dirty),
            ParallelConfig::from_sampling(cfg, threads),
        );
        assert_eq!(serial, par, "threads = {threads}");
    }
}

#[test]
fn fixed_seed_threads_pair_is_reproducible_on_the_cell_game() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    for threads in thread_counts() {
        // Fresh games per run: the shared oracle cache must not be able to
        // mask a nondeterministic estimate.
        let a = parallel::estimate_all_walk(
            &masked_game(&alg, &dcs, &dirty),
            ParallelConfig::new(60, 9, threads),
        );
        let b = parallel::estimate_all_walk(
            &masked_game(&alg, &dcs, &dirty),
            ParallelConfig::new(60, 9, threads),
        );
        assert_eq!(a, b, "threads = {threads}");
    }
}

#[test]
fn parallel_walk_keeps_the_efficiency_axiom_and_the_headline() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let game = masked_game(&alg, &dcs, &dirty);
    let n = Game::num_players(&game);
    for threads in thread_counts() {
        let ests = parallel::estimate_all_walk(&game, ParallelConfig::new(300, 3, threads));
        // Efficiency: the grand coalition repairs the cell (v(N) = 1), and
        // walk marginals telescope to it exactly.
        let total: f64 = ests.iter().map(|e| e.value).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "threads {threads}: total {total}"
        );
        // Example 2.4's headline survives any thread count.
        let top = (0..n)
            .max_by(|a, b| ests[*a].value.total_cmp(&ests[*b].value))
            .unwrap();
        assert_eq!(Game::player_label(&game, top), "t5[League]");
    }
}

#[test]
fn one_thread_adaptive_matches_serial_on_the_laliga_cell_game() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    // A converging run (loose tolerance) and a budget-capped run (absurd
    // tolerance) must both replay the serial round ladder exactly.
    for (tol, max) in [(0.3, 200), (1e-9, 30)] {
        let knobs = (tol, 1.96, 10, max, 7);
        let serial = serial_adaptive(&sampled_game(&alg, &dcs, &dirty), knobs);
        let par = parallel::estimate_all_adaptive(
            &sampled_game(&alg, &dcs, &dirty),
            tol,
            1.96,
            10,
            max,
            7,
            1,
        );
        assert_eq!(serial, par, "tol {tol}");
    }
}

#[test]
fn work_stealing_is_serial_identical_on_the_skewed_adaptive_fixture() {
    // Player 0 of the one-hot fixture has ±1 coin-flip marginals and needs
    // > 10× every other player's budget, so every worker ends up computing
    // rounds of the same player — the hardest case for the contract.
    let game = trex_shapley::game::fixtures::one_hot(9, 0);
    let knobs = (0.03f64, 1.96f64, 25usize, 2000usize, 7u64);
    let (tol, z, batch, cap, seed) = knobs;
    let serial = serial_adaptive(&game, knobs);
    // The skew is real: the hot player runs to the cap (2000 samples), the
    // dummies stop at two batches (50) — a 40× budget ratio.
    assert!(!serial[0].1, "the hot player must exhaust its budget");
    assert_eq!(serial[0].0.samples, cap);
    for dummy in &serial[1..] {
        assert!(dummy.1);
        assert_eq!(dummy.0.samples, 2 * batch);
    }
    for threads in thread_counts() {
        let par = parallel::estimate_all_adaptive(&game, tol, z, batch, cap, seed, threads);
        assert_eq!(serial, par, "threads = {threads}");
    }
}

#[test]
fn work_stealing_is_serial_identical_on_the_laliga_cell_game() {
    // The same contract on the paper's own replacement-semantics cell game
    // over the shared repair oracle (uneven RNG consumption per eval).
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let serial = serial_adaptive(&sampled_game(&alg, &dcs, &dirty), (0.15, 1.96, 15, 120, 9));
    for threads in thread_counts() {
        let par = parallel::estimate_all_adaptive(
            &sampled_game(&alg, &dcs, &dirty),
            0.15,
            1.96,
            15,
            120,
            9,
            threads,
        );
        assert_eq!(serial, par, "threads = {threads}");
    }
}

#[test]
fn explainer_cell_explanations_are_serial_identical_at_any_thread_count() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);
    // Small budgets: the contract is bitwise equality, not accuracy.
    let walks = SamplingConfig {
        samples: 60,
        seed: 3,
    };
    let samples = SamplingConfig {
        samples: 10,
        seed: 7,
    };
    let adaptive = trex::AdaptiveConfig {
        tolerance: 0.1,
        batch: 10,
        max_samples: 40,
        ..trex::AdaptiveConfig::default()
    };
    let explain = |threads: usize| {
        let ex = Explainer::new(&alg).with_config(ExecConfig::new().with_threads(threads));
        let masked = ex
            .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, walks)
            .unwrap();
        let sampled = ex
            .explain_cells_sampled(&dcs, &dirty, cell, samples)
            .unwrap();
        let (adapted, converged) = ex
            .explain_cells_adaptive(&dcs, &dirty, cell, adaptive)
            .unwrap();
        [
            (masked.ranking, masked.values),
            (sampled.ranking, sampled.values),
            (adapted.ranking, adapted.values),
        ]
        .map(|(ranking, values)| (ranking, values, converged.clone()))
    };
    let serial = explain(1);
    for threads in thread_counts() {
        assert_eq!(serial, explain(threads), "threads = {threads}");
    }
}

#[test]
fn session_anytime_explanation_is_serial_identical_at_any_thread_count() {
    let session = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    );
    let cell = laliga::cell_of_interest(session.table());
    let config = SamplingConfig {
        samples: 100,
        seed: 11,
    };
    let run = |threads: usize| {
        let mut snapshots = Vec::new();
        let (explanation, finished) = session
            .explainer(&ExecConfig::new().with_threads(threads))
            .explain_cells_masked_anytime(
                session.constraints(),
                session.table(),
                cell,
                MaskMode::Null,
                config,
                30,
                |cp| {
                    snapshots.push(cp.estimates.to_vec());
                    AnytimeControl::Continue
                },
            )
            .unwrap();
        assert!(finished);
        (explanation.ranking, explanation.values, snapshots)
    };
    let serial = run(1);
    assert_eq!(serial.2.len(), 4, "checkpoints at 30, 60, 90, 100 walks");
    for threads in thread_counts() {
        assert_eq!(serial, run(threads), "threads = {threads}");
    }
}

#[test]
fn figure_2_cell_ranking_at_16_threads_is_the_1_thread_ranking() {
    // `trex explain --cells --samples 400` on the Figure 2 table used to
    // print a different ranking once the thread count left fewer than four
    // cells per worker (35 cells, 16 threads).
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);
    let config = SamplingConfig {
        samples: 400,
        seed: 0,
    };
    let ranking = |threads: usize| {
        Explainer::new(&alg)
            .with_config(ExecConfig::new().with_threads(threads))
            .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, config)
            .unwrap()
            .ranking
    };
    assert_eq!(ranking(16), ranking(1));
}

/// The unsliced reference: forwards `name` and `repair` to the wrapped
/// engine but declares no slice, so the games and the explainer run the
/// whole program over every cell.
struct Unsliced<A>(A);

impl<A: RepairAlgorithm> RepairAlgorithm for Unsliced<A> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        self.0.repair(dcs, dirty)
    }
}

#[test]
fn sliced_explanations_are_bit_identical_to_the_unsliced_program() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let cell = laliga::cell_of_interest(&dirty);
    let sliced = laliga::algorithm1();
    let unsliced = Unsliced(laliga::algorithm1());
    let config = SamplingConfig {
        samples: 100,
        seed: 0,
    };
    let explain = |alg: &dyn RepairAlgorithm, threads: usize| {
        let ex = Explainer::new(alg).with_config(ExecConfig::new().with_threads(threads));
        let constraints = ex.explain_constraints(&dcs, &dirty, cell).unwrap();
        let exact: Vec<(String, String)> = constraints
            .exact
            .iter()
            .map(|(label, r)| (label.clone(), r.to_string()))
            .collect();
        let cells = [MaskMode::Null, MaskMode::Distinct].map(|mode| {
            let e = ex
                .explain_cells_masked(&dcs, &dirty, cell, mode, config)
                .unwrap();
            let bits: Vec<u64> = e.values.iter().map(|v| v.to_bits()).collect();
            (e.ranking, bits)
        });
        (exact, constraints.ranking, cells)
    };
    for threads in with_test_threads(vec![1, 2, 4, 8]) {
        let reference = explain(&unsliced, threads);
        assert_eq!(
            reference.0,
            [("C1", "1/6"), ("C2", "1/6"), ("C3", "2/3"), ("C4", "0")]
                .map(|(c, r)| (c.to_string(), r.to_string()))
        );
        assert_eq!(explain(&sliced, threads), reference, "threads = {threads}");
    }
}

#[test]
fn giant_equality_bucket_detection_is_serial_identical() {
    // Regression for the block-split path: a pathological table whose rows
    // all share one equality-bucket key (every row the same Team) used to
    // land its entire pair scan on a single worker; the split must keep
    // the output — witnesses and order — exactly the 1-thread scan's at
    // every thread count.
    let mut builder = trex_table::TableBuilder::new().str_columns(["Team", "City", "Country"]);
    for i in 0..53 {
        let city = format!("C{}", i % 5);
        builder = builder.str_row(["OneTeam", city.as_str(), "Y"]);
    }
    let table = builder.build();
    let dcs: Vec<trex_constraints::DenialConstraint> =
        trex_constraints::parse_dcs("C1: !(t1.Team = t2.Team & t1.City != t2.City)")
            .unwrap()
            .into_iter()
            .map(|dc| dc.resolved(table.schema()).unwrap())
            .collect();
    let serial = trex_constraints::find_all_violations_par(&dcs, &table, 1);
    assert!(!serial.is_empty(), "the bucket must conflict");
    for threads in thread_counts() {
        let par = trex_constraints::find_all_violations_par(&dcs, &table, threads);
        assert_eq!(serial, par, "threads = {threads}");
    }
}

#[test]
fn sampled_game_estimates_stay_in_range_across_threads() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let game = sampled_game(&alg, &dcs, &dirty);
    let n = StochasticGame::num_players(&game);
    let ests = parallel::estimate_all(&game, ParallelConfig::new(30, 1, 4));
    assert_eq!(ests.len(), n);
    for (i, e) in ests.iter().enumerate() {
        assert_eq!(e.samples, 30, "player {i} lost samples");
        assert!(
            (-1.0..=1.0).contains(&e.value),
            "player {i}: marginal mean {} out of range",
            e.value
        );
    }
}

/// xorshift64: the fixed-seed stream of the walk and write tests below.
struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    /// A uniform permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, self.below(i + 1));
        }
        perm
    }
}

/// Figure 2 with two keyed cells already null: under the Null mask their
/// included and masked states are one table, so they share one key and a
/// walk step over them flips nothing.
fn nulled_figure_2() -> Table {
    let mut dirty = laliga::dirty_table();
    let (city, league) = (dirty.schema().id("City"), dirty.schema().id("League"));
    dirty.set(CellRef::new(1, city), Value::Null);
    dirty.set(CellRef::new(5, league), Value::Null);
    dirty
}

#[test]
fn figure_2_rankings_make_the_pinned_oracle_queries_at_any_thread_count() {
    // Absolute counts, not just equal across thread counts: a coalition
    // key that merged or split equality classes would move them. Each
    // ranking runs on a fresh cache.
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let (shipped, nulled) = (laliga::dirty_table(), nulled_figure_2());
    use MaskMode::{Distinct, Null};
    let pins = [
        ("shipped", &shipped, Null, 80, 3, 1_261, 1_619),
        ("shipped", &shipped, Null, 200, 4, 3_290, 3_910),
        ("shipped", &shipped, Distinct, 80, 3, 1_261, 1_619),
        ("shipped", &shipped, Distinct, 200, 4, 3_290, 3_910),
        ("nulled", &nulled, Null, 80, 3, 1_423, 1_457),
        ("nulled", &nulled, Null, 200, 4, 3_725, 3_475),
        ("nulled", &nulled, Distinct, 80, 3, 1_261, 1_619),
        ("nulled", &nulled, Distinct, 200, 4, 3_290, 3_910),
    ];
    for (table, dirty, mode, walks, seed, hits, misses) in pins {
        let cell = laliga::cell_of_interest(dirty);
        for threads in with_test_threads(vec![1, 2]) {
            let game = CellGameMasked::new(&alg, &dcs, dirty, cell, Value::str("Spain"), mode);
            parallel::estimate_all_walk(&game, ParallelConfig::new(walks, seed, threads));
            assert_eq!(
                game.oracle_stats(),
                OracleStats {
                    hits,
                    misses,
                    evictions: 0
                },
                "{table} {mode:?}, {walks} walks, seed {seed}, threads = {threads}"
            );
        }
    }
}

#[test]
fn the_walk_hook_answers_like_per_prefix_values_and_the_reference_tables() {
    // Figure 2 as shipped, and with two keyed cells already null.
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let (shipped, nulled) = (laliga::dirty_table(), nulled_figure_2());
    let mut rng = Xorshift(0x7761_6c6b_686f_6f6b);
    for dirty in [&shipped, &nulled] {
        let cell = laliga::cell_of_interest(dirty);
        let target = Explainer::new(&alg)
            .repair_target(&dcs, dirty, cell)
            .unwrap();
        assert_eq!(target, Value::str("Spain"));
        for mode in [MaskMode::Null, MaskMode::Distinct] {
            let walked = CellGameMasked::new(&alg, &dcs, dirty, cell, target.clone(), mode);
            let valued = CellGameMasked::new(&alg, &dcs, dirty, cell, target.clone(), mode);
            let n = Game::num_players(&walked);
            let (mut prefix, mut values) = (Coalition::empty(n), Vec::new());
            for _ in 0..30 {
                let perm = rng.permutation(n);
                walked.walk_values(&perm, &mut prefix, &mut values);
                let mut coalition = Coalition::empty(n);
                for (step, &value) in values.iter().enumerate() {
                    if step > 0 {
                        coalition.insert(perm[step - 1]);
                    }
                    assert_eq!(value, valued.value(&coalition), "{mode:?}, step {step}");
                    // The whole program on the fully masked table.
                    let table = walked.coalition_table(&coalition);
                    let reference = trex_repair::repairs_cell_to(&alg, &dcs, &table, cell, &target);
                    assert_eq!(
                        value,
                        f64::from(u8::from(reference)),
                        "{mode:?}, step {step}"
                    );
                }
                assert_eq!(prefix, coalition, "the hook leaves the full prefix");
            }
            let stats = walked.oracle_stats();
            assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
            assert_eq!(stats, valued.oracle_stats(), "{mode:?}");
        }
    }
}

#[test]
fn code_keeping_writes_scan_and_repair_like_a_fresh_copy() {
    // A working copy as the masked cell game makes one: a third of the
    // cells masked, an encoding spanning the dirty values, then rounds of
    // random writes that keep the codes. After each round the codes decode
    // cell for cell, and the violation scan and Algorithm 1 give exactly
    // what they give on a fresh copy of the same contents.
    use trex_datagen::scenario::{generate, ScenarioConfig, SchemaKind};
    let scenario = generate(&ScenarioConfig::new(SchemaKind::Soccer, 200, 7));
    let dirty = scenario.dirty();
    let dcs: Vec<DenialConstraint> = scenario
        .constraints
        .iter()
        .map(|dc| dc.resolved(dirty.schema()).unwrap())
        .collect();
    let arity = dirty.arity();
    let mut rng = Xorshift(0x6b65_6570_636f_6465);
    let mut work = dirty.clone();
    for cell in dirty.cells() {
        match rng.below(6) {
            0 => {
                work.set(cell, Value::Null);
            }
            1 => {
                work.set(cell, Value::LabeledNull(cell.flat_index(arity) as u64));
            }
            _ => {}
        }
    }
    work.encode_spanning(dirty);
    for round in 0..6 {
        for _ in 0..40 {
            let cell = CellRef::from_flat(rng.below(dirty.num_cells()), arity);
            let value = match rng.below(4) {
                0 => Value::Null,
                _ => dirty
                    .get(CellRef::new(rng.below(dirty.num_rows()), cell.attr))
                    .clone(),
            };
            work.set_keep_codes(cell, value);
        }
        let rows = (0..work.num_rows()).map(|r| work.row(r).to_vec()).collect();
        let fresh = Table::from_rows(work.schema().clone(), rows);
        let (kept, exact) = (work.encoded(), fresh.encoded());
        for (c, v) in work.cells_with_values() {
            assert_eq!(kept.decode(c.row, c.attr), v, "round {round}");
        }
        assert!(
            (0..arity).any(|a| {
                let attr = trex_table::AttrId(a);
                kept.dict(attr).len() > exact.dict(attr).len()
            }),
            "round {round}: the kept codes should span unused values"
        );
        for threads in with_test_threads(vec![1, 2]) {
            assert_eq!(
                trex_constraints::find_all_violations_par(&dcs, &work, threads),
                trex_constraints::find_all_violations_par(&dcs, &fresh, threads),
                "round {round}, threads = {threads}"
            );
        }
        let (ours, theirs) = (
            scenario.repairer.repair(&scenario.constraints, &work),
            scenario.repairer.repair(&scenario.constraints, &fresh),
        );
        assert_eq!(ours.clean, theirs.clean, "round {round}");
        assert_eq!(ours.changes, theirs.changes, "round {round}");
        assert!(!ours.changes.is_empty(), "round {round}: nothing to repair");
    }
}
