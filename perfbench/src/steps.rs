//! The user operations on an in-process session, each timed, checked
//! against its reference answer, and (in the traced run) followed by
//! replays of the layer calls it makes internally.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use trex::{CellGameMasked, ConstraintGame, Explainer, MaskMode, Session};
use trex_constraints::{DenialConstraint, Violation};
use trex_repair::{OracleCache, OracleStats, RepairAlgorithm, RuleRepair, ShardedOracle};
use trex_shapley::{parallel, Coalition, Game, ParallelConfig, SamplingConfig};
use trex_table::{CellChange, CellRef, EncodedTable, Value};

use crate::clock::{Lap, Stopwatch};
use crate::inputs::Inputs;
use crate::trace::{SpanId, Tracer};

/// Root span of a constraint explanation.
pub const EXPLAIN_CONSTRAINTS: &str = "op.explain_constraints";
/// Root span of a cell explanation.
pub const EXPLAIN_CELLS: &str = "op.explain_cells";

/// Walks of one cell explanation (the paper's Figure 2 ranking).
pub const CELL_WALKS: usize = 200;
/// Repetitions behind one `oracle.hit_us` sample.
const HIT_REPS: u32 = 64;
/// Random coalitions replayed per cell explanation.
const COALITION_REPLAYS: usize = 8;
/// Walks of the Shapley driver replay on an O(1) game.
const DRIVER_WALKS: usize = 4000;

/// Run-wide accounting: latency samples per operation kind, and the
/// attempted/failed tallies. Shared by reference across client threads.
pub struct Run<'t> {
    pub tr: &'t Tracer,
    samples: Mutex<BTreeMap<&'static str, Samples>>,
    attempted: AtomicU64,
    failed: AtomicU64,
}

/// One operation kind's latencies (ms) on each clock of [`crate::clock`].
/// HTTP requests sent concurrently have wall times only: the process CPU
/// clock cannot tell two in-flight requests apart.
#[derive(Default)]
struct Samples {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl<'t> Run<'t> {
    pub fn new(tr: &'t Tracer) -> Self {
        Run {
            tr,
            samples: Mutex::new(BTreeMap::new()),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// Count one operation; keep its latencies when its answer was right.
    pub fn record(&self, op: &'static str, lap: Lap, ok: bool) {
        self.keep(op, Some(lap.cpu_ms), lap.wall_ms, ok);
    }

    /// [`Run::record`] for an operation timed on the wall clock only.
    pub fn record_wall(&self, op: &'static str, wall_ms: f64, ok: bool) {
        self.keep(op, None, wall_ms, ok);
    }

    fn keep(&self, op: &'static str, cpu_ms: Option<f64>, wall_ms: f64, ok: bool) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if ok {
            let mut samples = self.samples.lock().expect("sample store poisoned");
            let s = samples.entry(op).or_default();
            s.cpu.extend(cpu_ms);
            s.wall.push(wall_ms);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
            eprintln!("perfbench: wrong answer or error in a {op} operation");
        }
    }

    /// Process CPU latencies (ms) of one operation kind.
    pub fn samples(&self, op: &str) -> Vec<f64> {
        let samples = self.samples.lock().expect("sample store poisoned");
        samples.get(op).map(|s| s.cpu.clone()).unwrap_or_default()
    }

    /// Wall-clock latencies (ms) of one operation kind.
    pub fn wall_samples(&self, op: &str) -> Vec<f64> {
        let samples = self.samples.lock().expect("sample store poisoned");
        samples.get(op).map(|s| s.wall.clone()).unwrap_or_default()
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Exact Shapley values of a constraint explanation, as `(label, p/q)`.
pub type Rationals = Vec<(String, String)>;

/// A working session plus what the replays need: a second copy of the
/// repair engine (the session's is private) and the resolved constraints.
pub struct Lib {
    pub session: Session,
    alg: RuleRepair,
    resolved: Vec<DenialConstraint>,
}

impl Lib {
    pub fn new(session: Session, inputs: &Inputs) -> Self {
        let alg = RuleRepair::parse_rules(&inputs.rules).expect("generated rules parse");
        let schema = session.table().schema();
        let resolved = session
            .constraints()
            .iter()
            .map(|d| d.resolved(schema).expect("generated constraints resolve"))
            .collect();
        Lib {
            session,
            alg,
            resolved,
        }
    }

    fn cache(&self) -> &Arc<OracleCache> {
        self.session.oracle_cache()
    }

    /// Record the oracle counters an explanation of kind `op` accumulated
    /// since `before`; returns its query count.
    fn oracle_counts(&self, tr: &Tracer, op: &'static str, before: OracleStats) -> usize {
        let after = self.cache().stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let queries = hits + misses;
        tr.count(op, "oracle.queries", queries as f64);
        tr.count(op, "oracle.hits", hits as f64);
        tr.count(op, "oracle.misses", misses as f64);
        tr.count(op, "oracle.entries", self.cache().len() as f64);
        tr.count(op, "oracle.hit_ratio", hits as f64 / queries.max(1) as f64);
        queries
    }

    /// The user types a value: `Session::set_cell`, then the refreshed
    /// `Session::violations`; its latency is recorded under `op`.
    pub fn edit(
        &mut self,
        run: &Run,
        op: &'static str,
        cell: CellRef,
        value: Value,
        expect: &[Violation],
    ) {
        let tr = run.tr;
        let req = tr.request();
        let watch = Stopwatch::start();
        let ((found, scan), _) = tr.span("op.edit", None, req, |root| {
            tr.span("session.set_cell", root, req, |_| {
                self.session.set_cell(cell, value)
            });
            tr.span("session.violations", root, req, |_| {
                self.session.violations()
            })
        });
        run.record(op, watch.lap(), found.as_deref() == Ok(expect));
        if tr.on() {
            self.replay_scan(tr, scan, req);
        }
    }

    /// Replay the work inside a violation scan of the session table under
    /// `parent`: the dictionary encode and the scan itself.
    fn replay_scan(&self, tr: &Tracer, parent: SpanId, req: u64) {
        let table = self.session.table();
        tr.replay("table.encode", parent, req, || {
            black_box(EncodedTable::encode(table))
        });
        let witnesses = tr.replay("constraints.scan", parent, req, || {
            trex_constraints::find_all_violations_par(&self.resolved, table, 1).len()
        });
        tr.count("op.edit", "constraints.witnesses", witnesses as f64);
    }

    /// The Repair button: `Session::repair`.
    pub fn repair(&mut self, run: &Run, expect: &[CellChange]) {
        let tr = run.tr;
        let req = tr.request();
        let watch = Stopwatch::start();
        let ((result, call), _) = tr.span("op.repair", None, req, |root| {
            tr.span("session.repair", root, req, |_| self.session.repair())
        });
        run.record("repair", watch.lap(), result.changes == expect);
        if tr.on() {
            self.replay_repair(tr, call, req);
        }
    }

    /// Replay the work inside a repair of the session inputs under
    /// `parent`: the engine run and one table copy.
    fn replay_repair(&self, tr: &Tracer, parent: SpanId, req: u64) {
        let (dcs, table) = (self.session.constraints(), self.session.table());
        let changed = tr.replay("repair.full", parent, req, || self.alg.repair(dcs, table));
        tr.count(
            "op.repair",
            "repair.cells_changed",
            changed.changes.len() as f64,
        );
        tr.replay("table.clone", parent, req, || black_box(table.clone()));
    }

    /// A constraint ranking: `Session::explain_constraints`.
    pub fn explain_constraints(&self, run: &Run, cell: CellRef, expect: &Rationals) {
        let tr = run.tr;
        let req = tr.request();
        let before = self.cache().stats();
        let watch = Stopwatch::start();
        let ((result, call), _) = tr.span(EXPLAIN_CONSTRAINTS, None, req, |root| {
            tr.span("session.explain_constraints", root, req, |_| {
                self.session.explain_constraints(cell)
            })
        });
        let lap = watch.lap();
        let ok = result.is_ok_and(|e| rationals(&e.exact) == *expect);
        run.record("explain_constraints", lap, ok);
        if !tr.on() {
            return;
        }
        self.oracle_counts(tr, EXPLAIN_CONSTRAINTS, before);
        let (dcs, table) = (self.session.constraints(), self.session.table());
        let Ok(target) = tr.replay("explain.repair_target", call, req, || {
            Explainer::new(&self.alg).repair_target(dcs, table, cell)
        }) else {
            return;
        };
        for mask in 0..1u64 << dcs.len() {
            let subset: Vec<DenialConstraint> = (0..dcs.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| dcs[i].clone())
                .collect();
            tr.replay("repair.coalition", call, req, || {
                trex_repair::repairs_cell_to(&self.alg, &subset, table, cell, &target)
            });
        }
        let oracle = ShardedOracle::with_shared_cache(&self.alg, Arc::clone(self.cache()));
        let game = ConstraintGame::with_oracle(oracle, dcs, table, cell, target);
        tr.replay("shapley.exact", call, req, || {
            black_box(trex_shapley::shapley_exact(&game)).ok()
        });
        let full = Coalition::full(dcs.len());
        hit_us(tr, EXPLAIN_CONSTRAINTS, call, req, &game, &full);
    }

    /// One Figure 2 cell ranking: `Session::explain_cells_masked`, Null
    /// mask, [`CELL_WALKS`] walks.
    pub fn explain_cells(&self, run: &Run, cell: CellRef, seed: u64, expect: &[f64]) {
        let tr = run.tr;
        let req = tr.request();
        let config = SamplingConfig {
            samples: CELL_WALKS,
            seed,
        };
        let before = self.cache().stats();
        let watch = Stopwatch::start();
        let ((result, call), _) = tr.span(EXPLAIN_CELLS, None, req, |root| {
            tr.span("session.explain_cells_masked", root, req, |_| {
                self.session
                    .explain_cells_masked(cell, MaskMode::Null, config)
            })
        });
        let lap = watch.lap();
        let ok = result.is_ok_and(|e| same_bits(&e.values, expect));
        run.record("explain_cells", lap, ok);
        if !tr.on() {
            return;
        }
        let queries = self.oracle_counts(tr, EXPLAIN_CELLS, before);
        let evals_per_walk = queries as f64 / CELL_WALKS as f64;
        tr.count(EXPLAIN_CELLS, "shapley.evals_per_walk", evals_per_walk);
        let (dcs, table) = (self.session.constraints(), self.session.table());
        let Ok(target) = tr.replay("explain.repair_target", call, req, || {
            Explainer::new(&self.alg).repair_target(dcs, table, cell)
        }) else {
            return;
        };
        let game = tr.replay("games.build", call, req, || {
            let oracle = ShardedOracle::with_shared_cache(&self.alg, Arc::clone(self.cache()));
            CellGameMasked::with_oracle(oracle, dcs, table, cell, target.clone(), MaskMode::Null)
        });
        let n = Game::num_players(&game);
        let mut state = seed | 1;
        for _ in 0..COALITION_REPLAYS {
            let members = (0..n).filter(|_| xorshift(&mut state) & 1 == 1);
            let coalition = Coalition::from_players(n, members);
            let masked = tr.replay("games.coalition_table", call, req, || {
                game.coalition_table(&coalition)
            });
            tr.replay("repair.coalition", call, req, || {
                trex_repair::repairs_cell_to(&self.alg, dcs, &masked, cell, &target)
            });
        }
        hit_us(tr, EXPLAIN_CELLS, call, req, &game, &Coalition::full(n));
        let driver_game = trex_bench::RandomBinaryGame::new(n.min(60), 4, seed);
        let t = Instant::now();
        tr.replay("shapley.driver", call, req, || {
            let config = SamplingConfig {
                samples: DRIVER_WALKS,
                seed,
            };
            black_box(parallel::estimate_all_walk(
                &driver_game,
                ParallelConfig::from_sampling(config, 1),
            ))
        });
        let walks_per_s = DRIVER_WALKS as f64 / t.elapsed().as_secs_f64();
        tr.count(EXPLAIN_CELLS, "shapley.walks_per_s", walks_per_s);
    }
}

/// `Game::value` on a coalition the explanation just cached, averaged over
/// [`HIT_REPS`] calls.
fn hit_us(tr: &Tracer, op: &'static str, call: SpanId, req: u64, game: &dyn Game, c: &Coalition) {
    let t = Instant::now();
    tr.replay("oracle.hit", call, req, || {
        for _ in 0..HIT_REPS {
            black_box(game.value(black_box(c)));
        }
    });
    let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(HIT_REPS);
    tr.count(op, "oracle.hit_us", us);
}

/// The next value of a xorshift64 stream (`state` must be non-zero).
pub fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Exact values rendered for comparison with a reference.
pub fn rationals(exact: &[(String, trex_shapley::Rational)]) -> Rationals {
    exact
        .iter()
        .map(|(label, r)| (label.clone(), r.to_string()))
        .collect()
}

/// Bit-for-bit equality of two estimate vectors.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
