//! The oracle memoizes repairs: one engine run per distinct (sliced
//! program, table) pair serves `Session::repair`, every explanation's
//! repair target and every constraint coalition, and answers stay those of
//! an engine run.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use trex::{MaskMode, Session};
use trex_constraints::DenialConstraint;
use trex_datagen::{generate_scenario, ErrorRates, ScenarioConfig, SchemaKind};
use trex_repair::{
    hash_dcs, FdChaseRepair, HolisticRepair, HoloCleanStyle, NoOpRepair, PanicGuard, Reach,
    RepairAlgorithm, RepairResult, RuleRepair,
};
use trex_shapley::{ExecConfig, Rational, SamplingConfig};
use trex_table::{AttrId, CellRef, Schema, Table, Value};

/// The (program hash, table fingerprint) pair of every engine run.
type RunLog = Arc<Mutex<Vec<(u64, u64)>>>;

/// Wraps an engine, forwards its slice, and logs every run.
struct Counting<A> {
    inner: A,
    runs: RunLog,
}

impl<A: RepairAlgorithm> RepairAlgorithm for Counting<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        let run = (hash_dcs(dcs), dirty.fingerprint());
        self.runs.lock().unwrap().push(run);
        self.inner.repair(dcs, dirty)
    }

    fn reach(&self, dcs: &[DenialConstraint], schema: &Schema, target: AttrId) -> Option<Reach> {
        self.inner.reach(dcs, schema, target)
    }
}

/// The 2k-row soccer inputs of the benchmark's loop, as generated.
fn soccer2k(seed: u64) -> (Table, Vec<DenialConstraint>, RuleRepair) {
    let mut config = ScenarioConfig::new(SchemaKind::Soccer, 2000, seed);
    config.error.rates = Some(ErrorRates::split(0.002));
    let scenario = generate_scenario(&config);
    let dirty = scenario.dirty().clone();
    (dirty, scenario.constraints, scenario.repairer)
}

/// A session over the seed's inputs with a counting engine, and its log.
fn session(seed: u64, cfg: ExecConfig) -> (Session, RunLog) {
    let (dirty, dcs, alg) = soccer2k(seed);
    let runs = RunLog::default();
    let engine = Counting {
        inner: alg,
        runs: Arc::clone(&runs),
    };
    let session = Session::new(Box::new(engine), dirty, dcs).with_config(cfg);
    (session, runs)
}

type Exact = Vec<Vec<(String, Rational)>>;

/// The exact constraint explanations of `cells`.
fn explain(s: &Session, cells: &[CellRef]) -> Exact {
    cells
        .iter()
        .map(|&cell| s.explain_constraints(cell).expect("repaired").exact)
        .collect()
}

/// One loop iteration of the benchmark: two repairs, then the constraint
/// explanations of the first four repaired cells.
fn iteration(s: &mut Session) -> (RepairResult, Vec<CellRef>, Exact) {
    let first = s.repair();
    let second = s.repair();
    assert_eq!(second.changes, first.changes);
    assert_eq!(second.clean, first.clean);
    let cells: Vec<CellRef> = first.changes.iter().take(4).map(|c| c.cell).collect();
    let exact = explain(s, &cells);
    (first, cells, exact)
}

#[test]
fn a_loop_iteration_runs_the_engine_once_per_distinct_program_and_table() {
    for (seed, distinct) in [(7u64, 3usize), (5, 9)] {
        // Capacity 0 caches nothing: every repair the iteration asks for
        // runs, which yields the reference answers and the distinct pairs.
        let (mut cold, all_runs) = session(seed, ExecConfig::new().with_oracle_cap(0));
        let (want_repair, want_cells, want) = iteration(&mut cold);
        let pairs: BTreeSet<(u64, u64)> = all_runs.lock().unwrap().iter().copied().collect();
        assert_eq!(pairs.len(), distinct, "seed {seed}");

        let (mut s, runs) = session(seed, ExecConfig::new());
        let (repair, cells, got) = iteration(&mut s);
        assert_eq!(cells, want_cells, "seed {seed}");
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(repair.changes, want_repair.changes, "seed {seed}");
        assert_eq!(repair.clean, want_repair.clean, "seed {seed}");
        let ran = runs.lock().unwrap().clone();
        assert_eq!(ran.len(), distinct, "seed {seed}: one run per pair");
        assert_eq!(ran.iter().copied().collect::<BTreeSet<_>>(), pairs);
        let stats = s.oracle_cache().stats();
        assert_eq!(stats.misses, distinct, "seed {seed}: misses are runs");

        // Warm: the same explanations and repair run nothing.
        assert_eq!(explain(&s, &cells), want, "seed {seed}");
        assert_eq!(s.repair().changes, want_repair.changes, "seed {seed}");
        assert_eq!(runs.lock().unwrap().len(), distinct, "seed {seed}: warm");

        // An edit flushes: the next repair runs the engine again, and so
        // does its revert's.
        let cell = CellRef::new(0, s.table().schema().id("Place"));
        let original = s.set_cell(cell, Value::str("1000000"));
        s.repair();
        assert_eq!(runs.lock().unwrap().len(), distinct + 1, "seed {seed}");
        s.set_cell(cell, original);
        assert_eq!(s.repair().changes, want_repair.changes, "seed {seed}");
        assert_eq!(runs.lock().unwrap().len(), distinct + 2, "seed {seed}");
    }
}

#[test]
fn a_memoized_session_repair_equals_a_fresh_run_for_every_shipped_engine() {
    let mut config = ScenarioConfig::new(SchemaKind::Soccer, 200, 3);
    config.error.rates = Some(ErrorRates::split(0.02));
    let scenario = generate_scenario(&config);
    let (dirty, dcs) = (scenario.dirty(), &scenario.constraints);
    let engines: Vec<Box<dyn RepairAlgorithm>> = vec![
        Box::new(scenario.repairer.clone()),
        Box::new(HoloCleanStyle::new()),
        Box::new(HolisticRepair::new()),
        Box::new(FdChaseRepair::new()),
        Box::new(NoOpRepair),
        Box::new(PanicGuard::new(scenario.repairer.clone())),
    ];
    for engine in engines {
        let name = engine.name().to_string();
        let fresh = engine.repair(dcs, dirty);
        let mut s = Session::new(engine, dirty.clone(), dcs.clone());
        for round in ["cold", "warm"] {
            let got = s.repair();
            assert_eq!(got.changes, fresh.changes, "{name} {round}");
            assert_eq!(got.clean, fresh.clean, "{name} {round}");
        }
        let stats = s.oracle_cache().stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "{name}");
    }
}

#[test]
fn a_private_explainer_shares_one_cache_between_its_target_and_its_game() {
    // Figure 1: t5[Country]'s slice is {C1, C2, C3}, so the constraint
    // game repairs 8 distinct sub-programs, and the grand one is the
    // repair target's: 8 runs, not 9.
    let dirty = trex_datagen::laliga::dirty_table();
    let dcs = trex_datagen::laliga::constraints();
    let cell = trex_datagen::laliga::cell_of_interest(&dirty);
    let counted = |runs: &RunLog| Counting {
        inner: trex_datagen::laliga::algorithm1(),
        runs: Arc::clone(runs),
    };
    let runs = RunLog::default();
    let engine = counted(&runs);
    let ex = trex::Explainer::new(&engine);
    let out = ex.explain_constraints(&dcs, &dirty, cell).unwrap();
    let exact: Vec<String> = out.exact.iter().map(|(_, r)| r.to_string()).collect();
    assert_eq!(exact, ["1/6", "1/6", "2/3", "0"]);
    assert_eq!(runs.lock().unwrap().len(), 8);
    // The explainer keeps its one cache for every call: a second call runs
    // nothing.
    ex.repair_target(&dcs, &dirty, cell).unwrap();
    assert_eq!(runs.lock().unwrap().len(), 8);

    // The sequence of `trex explain --cells`: the constraint explanation
    // above, then a cell ranking on the same explainer. The ranking reads
    // its repair target from the cache, so it runs the engine once fewer
    // than the same ranking on a fresh explainer, with the same answer.
    let config = SamplingConfig {
        samples: 50,
        seed: 3,
    };
    let ranked = ex
        .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, config)
        .unwrap();
    let fresh_runs = RunLog::default();
    let fresh_engine = counted(&fresh_runs);
    let fresh = trex::Explainer::new(&fresh_engine)
        .explain_cells_masked(&dcs, &dirty, cell, MaskMode::Null, config)
        .unwrap();
    assert_eq!(ranked.values, fresh.values);
    let ranking_runs = runs.lock().unwrap().len() - 8;
    assert_eq!(ranking_runs, fresh_runs.lock().unwrap().len() - 1);
    // Over both calls the target's (sliced program, table) pair ran as a
    // repair once; its one other run is the masked game's grand
    // coalition, whose answer bit is an entry of another kind.
    let program = Reach::of(&engine, &dcs, dirty.schema(), cell.attr).program(&dcs);
    let target = (hash_dcs(&program), dirty.fingerprint());
    let target_runs = runs
        .lock()
        .unwrap()
        .iter()
        .filter(|&&r| r == target)
        .count();
    assert_eq!(target_runs, 2);
}
