//! The interactive session of the demo scenario (§4).
//!
//! The demo's loop: load table + DCs → repair → pick a repaired cell →
//! explain → *act on the explanation* (change DCs or cell values) → repair
//! again → compare. [`Session`] packages that loop as an owned, mutable
//! object so example binaries and integration tests can drive exactly the
//! workflow the demonstration walks the audience through.

use crate::explain::{
    oracle_cache_for, CellExplanation, ConstraintExplanation, ExplainError, Explainer,
};
use crate::games::MaskMode;
use std::collections::VecDeque;
use std::sync::Arc;
use trex_constraints::{DenialConstraint, ResolveError, Violation};
use trex_repair::{hash_dcs, OracleCache, RepairAlgorithm, RepairResult, ShardedOracle};
use trex_shapley::{ExecConfig, SamplingConfig};
use trex_table::{CellRef, Table, Value};

/// One entry of the session's history of edits and repairs.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// What the user changed before this repair (human-readable).
    pub action: String,
    /// Number of cells the repair changed.
    pub cells_repaired: usize,
}

/// An interactive T-REx session.
///
/// `Session` is `Send + Sync`: the server shares one behind an `RwLock`,
/// explanation methods take `&self`, and concurrent explanations pool
/// their repairs through one shared [`OracleCache`].
pub struct Session {
    alg: Box<dyn RepairAlgorithm>,
    table: Table,
    dcs: Vec<DenialConstraint>,
    /// `trex_repair::hash_dcs(&dcs)`: computed by the first repair of a
    /// program and dropped by every program change, so a repair hashes no
    /// constraint and a new session pays nothing for it.
    program_hash: Option<u64>,
    history: VecDeque<HistoryEntry>,
    cfg: ExecConfig,
    oracle_cache: Arc<OracleCache>,
}

impl Session {
    /// How many history entries a session keeps: the most recent ones. A
    /// long-lived server records one entry per edit or repair, so the
    /// history must not grow without bound.
    pub const HISTORY_LIMIT: usize = 1024;

    /// Start a session over a dirty table and constraint set. Explanations
    /// run single-threaded by default; see [`Session::with_config`].
    pub fn new(alg: Box<dyn RepairAlgorithm>, table: Table, dcs: Vec<DenialConstraint>) -> Self {
        Session {
            alg,
            table,
            dcs,
            program_hash: None,
            history: VecDeque::new(),
            cfg: ExecConfig::default(),
            oracle_cache: Arc::new(OracleCache::new()),
        }
    }

    /// Apply an execution configuration wholesale: thread count and oracle
    /// capacity in one value shared with `Explainer` and the
    /// repair engines. The config's `seed`, if set, is not consumed here —
    /// explanation methods take their seed from the explicit
    /// [`SamplingConfig`] argument.
    ///
    /// Rebuilds the session's shared repair cache at the config's
    /// oracle capacity ([`ShardedOracle::DEFAULT_CAPACITY`] when unset):
    /// the one place a session's capacity is set.
    pub fn with_config(mut self, cfg: ExecConfig) -> Self {
        self.cfg = cfg;
        self.oracle_cache = oracle_cache_for(&cfg);
        self
    }

    /// The session's execution configuration.
    pub fn config(&self) -> ExecConfig {
        self.cfg
    }

    /// The session's shared repair cache. [`Session::repair`] and every
    /// explanation ([`Session::explainer`]) memoize into (and read from)
    /// this one cache, so a burst of requests against the same
    /// `(table, constraints)` pair pays for each distinct repair once: a
    /// repeated Repair click, every explanation's repair target and
    /// constraint coalitions, and each cell ranking's coalitions.
    /// Exposed for telemetry ([`OracleCache::stats`]) and explicit flushes
    /// ([`Session::flush_oracle_cache`]).
    pub fn oracle_cache(&self) -> &Arc<OracleCache> {
        &self.oracle_cache
    }

    /// Drop every memoized repair and cell-game answer.
    ///
    /// The session calls this itself after every input mutation
    /// ([`Session::set_cell`], [`Session::upsert_constraint`],
    /// [`Session::remove_constraint`]): cache keys embed the table
    /// fingerprint and program hash, so stale entries were already
    /// unreachable, but flushing returns their memory and keeps the
    /// hit-rate telemetry honest about the new inputs.
    pub fn flush_oracle_cache(&self) {
        self.oracle_cache.clear();
    }

    /// An explainer over the session's algorithm for one execution
    /// configuration: the session's own ([`Session::config`]) or a
    /// per-request override (the server parses `?threads=…&seed=…` into an
    /// [`ExecConfig`] per request). Pass it [`Session::constraints`] and
    /// [`Session::table`] to explain the session's current inputs.
    ///
    /// The explainer always borrows the session's repair cache and builds
    /// none, whatever `exec`'s oracle capacity: the session's capacity is
    /// set by [`Session::with_config`], and answers never depend on it.
    /// [`OracleCache::stats`] on [`Session::oracle_cache`] therefore count
    /// every explanation.
    pub fn explainer(&self, exec: &ExecConfig) -> Explainer<'_> {
        Explainer::new(self.alg.as_ref())
            .with_config(*exec)
            .with_oracle_cache(Arc::clone(&self.oracle_cache))
    }

    /// The current (possibly user-edited) dirty table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The current constraint set.
    pub fn constraints(&self) -> &[DenialConstraint] {
        &self.dcs
    }

    /// The session history, oldest first: one entry per edit or repair,
    /// the most recent [`Session::HISTORY_LIMIT`] of them.
    pub fn history(&self) -> &VecDeque<HistoryEntry> {
        &self.history
    }

    /// Append a history entry, dropping the oldest once the history is full.
    fn record(&mut self, action: String, cells_repaired: usize) {
        if self.history.len() == Self::HISTORY_LIMIT {
            self.history.pop_front();
        }
        self.history.push_back(HistoryEntry {
            action,
            cells_repaired,
        });
    }

    /// The input screen's violation list: every witness of the current
    /// constraint set against the current table, detected on the session's
    /// worker threads (identical output at any thread count). Re-runs
    /// cheaply after each edit, which is what keeps the §4 debugging loop
    /// interactive on large tables.
    pub fn violations(&self) -> Result<Vec<Violation>, ResolveError> {
        self.violations_for(&self.cfg)
    }

    /// [`Session::violations`] under a per-request execution configuration
    /// (its thread count; identical output at any setting).
    pub fn violations_for(&self, exec: &ExecConfig) -> Result<Vec<Violation>, ResolveError> {
        let resolved: Result<Vec<_>, _> = self
            .dcs
            .iter()
            .map(|d| d.resolved(self.table.schema()))
            .collect();
        Ok(trex_constraints::find_all_violations_par(
            &resolved?,
            &self.table,
            exec.threads(),
        ))
    }

    /// Pre-flight static analysis of the session's constraint program
    /// against the session table: typecheck, satisfiability, subsumption,
    /// and the scan-cost plan report. Cheap (no data scan beyond one
    /// dictionary encoding) — run it before the first repair to catch
    /// typos and dead constraints early.
    pub fn analyze(&self) -> trex_constraints::Analysis {
        trex_constraints::analyze_with_table(&self.dcs, &self.table)
    }

    /// The "Repair" button: run the black box on the current inputs.
    ///
    /// The repair is memoized in [`Session::oracle_cache`] under the
    /// program and the table, like every repair an explanation runs: a
    /// repeat on unchanged inputs runs no engine and rebuilds `clean` as
    /// the table plus the cached changes, which is the engine's own
    /// `clean` by the change-list contract of
    /// [`RepairResult::changes`].
    pub fn repair(&mut self) -> RepairResult {
        let oracle =
            ShardedOracle::with_shared_cache(self.alg.as_ref(), Arc::clone(&self.oracle_cache));
        let mut fresh = None;
        let program = *self.program_hash.get_or_insert_with(|| hash_dcs(&self.dcs));
        let changes = oracle.repair_keyed(program, &self.table, || {
            let result = self.alg.repair(&self.dcs, &self.table);
            let changes = result.changes.clone();
            fresh = Some(result);
            changes
        });
        let result = fresh.unwrap_or_else(|| RepairResult {
            clean: trex_table::apply(&self.table, &changes),
            changes: changes.to_vec(),
        });
        self.record("repair".to_string(), result.changes.len());
        result
    }

    /// The "Explain" button, constraint half: Shapley values of the DCs for
    /// the repair of `cell`, under the session's configuration.
    pub fn explain_constraints(
        &self,
        cell: CellRef,
    ) -> Result<ConstraintExplanation, ExplainError> {
        self.explainer(&self.cfg)
            .explain_constraints(&self.dcs, &self.table, cell)
    }

    /// The "Explain" button, cell half: cell explanation under masked
    /// (definition) semantics, under the session's configuration.
    pub fn explain_cells_masked(
        &self,
        cell: CellRef,
        mode: MaskMode,
        config: SamplingConfig,
    ) -> Result<CellExplanation, ExplainError> {
        self.explainer(&self.cfg)
            .explain_cells_masked(&self.dcs, &self.table, cell, mode, config)
    }

    /// User edit: overwrite a cell of the input table ("changing specific
    /// cells to make the repair more accurate", §1). Returns the previous
    /// value.
    pub fn set_cell(&mut self, cell: CellRef, value: Value) -> Value {
        self.record(format!("set {cell} := {value}"), 0);
        self.flush_oracle_cache();
        self.table.set(cell, value)
    }

    /// User edit: remove a constraint by name ("modify the most influencing
    /// constraints", §1). Returns it if present.
    pub fn remove_constraint(&mut self, name: &str) -> Option<DenialConstraint> {
        let idx = self.dcs.iter().position(|d| d.name == name)?;
        self.record(format!("remove constraint {name}"), 0);
        self.flush_oracle_cache();
        self.program_hash = None;
        Some(self.dcs.remove(idx))
    }

    /// Suggest constraints mined from the current table (FastDC-style, see
    /// `trex_constraints::mine_dcs`) that are **not already implied** by
    /// the session's constraint set — the natural "what am I missing?"
    /// companion to the §4 debugging loop. Suggestions are named
    /// `S1, S2, …` and capped at `limit`.
    pub fn suggest_constraints(&self, limit: usize) -> Vec<DenialConstraint> {
        let mined =
            trex_constraints::mine_dcs(&self.table, &trex_constraints::MineConfig::default());
        let mut out = Vec::new();
        // Compare by rendered predicate text: resolution state (attr ids
        // filled in or not) must not affect duplicate detection.
        let rendered = |dc: &DenialConstraint| {
            let mut preds: Vec<String> = dc.predicates.iter().map(|p| p.to_string()).collect();
            preds.sort();
            preds
        };
        let have: Vec<Vec<String>> = self.dcs.iter().map(&rendered).collect();
        for dc in mined {
            let duplicate = have.contains(&rendered(&dc));
            if !duplicate {
                let mut named = dc;
                named.name = format!("S{}", out.len() + 1);
                out.push(named);
                if out.len() == limit {
                    break;
                }
            }
        }
        out
    }

    /// User edit: add (or replace, by name) a constraint. A constraint that
    /// names an attribute the table does not have is rejected with its
    /// [`ResolveError`] and the session is left unchanged, so no later
    /// repair or explanation can trip over it.
    pub fn upsert_constraint(&mut self, dc: DenialConstraint) -> Result<(), ResolveError> {
        dc.resolved(self.table.schema())?;
        self.record(format!("upsert constraint {}", dc.name), 0);
        self.flush_oracle_cache();
        match self.dcs.iter_mut().find(|d| d.name == dc.name) {
            Some(slot) => *slot = dc,
            None => self.dcs.push(dc),
        }
        self.program_hash = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_datagen::laliga;
    use trex_table::Value;

    fn session() -> Session {
        Session::new(
            Box::new(laliga::algorithm1()),
            laliga::dirty_table(),
            laliga::constraints(),
        )
    }

    #[test]
    fn repair_then_explain_loop() {
        let mut s = session();
        let r = s.repair();
        assert_eq!(r.changes.len(), 2);
        let cell = laliga::cell_of_interest(s.table());
        let cons = s.explain_constraints(cell).unwrap();
        assert_eq!(cons.ranking.top().unwrap().label, "C3");
        assert_eq!(s.history().len(), 1);
    }

    #[test]
    fn removing_the_top_constraint_changes_the_repair_path() {
        // Demo scenario: act on the explanation by removing C3; the repair
        // still happens (via C1∧C2) but the explanation shifts.
        let mut s = session();
        let cell = laliga::cell_of_interest(s.table());
        let removed = s.remove_constraint("C3").unwrap();
        assert_eq!(removed.name, "C3");
        assert_eq!(s.constraints().len(), 3);
        let cons = s.explain_constraints(cell).unwrap();
        // With C3 gone, C1 and C2 carry the repair equally (1/2 each).
        assert_eq!(cons.exact[0].1.to_string(), "1/2"); // C1
        assert_eq!(cons.exact[1].1.to_string(), "1/2"); // C2
    }

    #[test]
    fn editing_a_cell_affects_the_next_repair() {
        // Fix t5[City] by hand; C1 then has nothing to do and the repair
        // touches only t5[Country].
        let mut s = session();
        let city = s.table().schema().id("City");
        let old = s.set_cell(CellRef::new(4, city), Value::str("Madrid"));
        assert_eq!(old, Value::str("Capital"));
        let r = s.repair();
        assert_eq!(r.changes.len(), 1);
        assert_eq!(r.changes[0].cell.attr, s.table().schema().id("Country"));
    }

    #[test]
    fn upsert_replaces_by_name() {
        let mut s = session();
        let replacement = trex_constraints::parse_dc_named(
            "C3: !(t1.League = t2.League & t1.Year != t2.Year)",
            "C3",
        )
        .unwrap();
        s.upsert_constraint(replacement.clone()).unwrap();
        assert_eq!(s.constraints().len(), 4);
        assert_eq!(
            s.constraints()
                .iter()
                .find(|d| d.name == "C3")
                .unwrap()
                .predicates,
            replacement.predicates
        );
        // And adding a brand-new one grows the set.
        let extra = trex_constraints::parse_dc_named("C5: !(t1.Place < 1)", "C5").unwrap();
        s.upsert_constraint(extra).unwrap();
        assert_eq!(s.constraints().len(), 5);
    }

    #[test]
    fn upsert_rejects_unresolvable_constraints_and_changes_nothing() {
        let mut s = session();
        let cell = laliga::cell_of_interest(s.table());
        let _ = s.explain_constraints(cell).unwrap();
        let cached = s.oracle_cache().len();
        let bad = trex_constraints::parse_dc_named("C1: !(t1.Nope = t2.Nope)", "C1").unwrap();
        let err = s.upsert_constraint(bad).unwrap_err();
        assert_eq!(err.attr, "Nope");
        assert_eq!(s.constraints(), &laliga::constraints()[..]);
        assert!(s.history().is_empty());
        assert_eq!(s.oracle_cache().len(), cached, "no flush either");
        // The next repair runs on the unchanged constraint set.
        assert_eq!(s.repair().changes.len(), 2);
    }

    #[test]
    fn history_records_actions() {
        let mut s = session();
        let city = s.table().schema().id("City");
        s.set_cell(CellRef::new(4, city), Value::str("Madrid"));
        s.remove_constraint("C4");
        s.repair();
        let actions: Vec<&str> = s.history().iter().map(|h| h.action.as_str()).collect();
        assert_eq!(actions.len(), 3);
        assert!(actions[0].starts_with("set t5["));
        assert_eq!(actions[1], "remove constraint C4");
        assert_eq!(actions[2], "repair");
        assert_eq!(s.history()[2].cells_repaired, 1);
    }

    #[test]
    fn history_keeps_the_most_recent_entries() {
        let mut s = session();
        let cell = CellRef::new(4, s.table().schema().id("City"));
        let action = |i: usize| format!("set {cell} := {}", Value::int(i as i64));
        let edits = Session::HISTORY_LIMIT + 10;
        for i in 0..edits {
            s.set_cell(cell, Value::int(i as i64));
        }
        // Oldest first, starting at the 11th edit.
        let kept: Vec<String> = s.history().iter().map(|h| h.action.clone()).collect();
        let expected: Vec<String> = (10..edits).map(action).collect();
        assert_eq!(kept, expected);
    }

    #[test]
    fn suggestions_exclude_constraints_already_in_the_session() {
        let s = session();
        let suggestions = s.suggest_constraints(50);
        assert!(!suggestions.is_empty());
        // None of the suggestions equals C1..C4 (up to predicate text).
        let have: Vec<String> = s
            .constraints()
            .iter()
            .map(|d| {
                let mut p: Vec<String> = d.predicates.iter().map(|x| x.to_string()).collect();
                p.sort();
                p.join(" & ")
            })
            .collect();
        for sug in &suggestions {
            let mut p: Vec<String> = sug.predicates.iter().map(|x| x.to_string()).collect();
            p.sort();
            assert!(
                !have.contains(&p.join(" & ")),
                "{sug} duplicates a session DC"
            );
            assert!(sug.name.starts_with('S'));
        }
        // Cap respected.
        assert!(s.suggest_constraints(2).len() <= 2);
    }

    #[test]
    fn session_threads_affect_explanations_deterministically() {
        let s = session();
        assert_eq!(s.config().threads(), 1);
        let s = s.with_config(ExecConfig::new().with_threads(2));
        assert_eq!(s.config().threads(), 2);
        let cell = laliga::cell_of_interest(s.table());
        let cfg = SamplingConfig {
            samples: 400,
            seed: 3,
        };
        let a = s.explain_cells_masked(cell, MaskMode::Null, cfg).unwrap();
        let b = s.explain_cells_masked(cell, MaskMode::Null, cfg).unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(a.ranking.top().unwrap().label, "t5[League]");
    }

    #[test]
    fn session_violations_match_direct_detection_at_any_thread_count() {
        let s = session();
        let serial = s.violations().unwrap();
        assert!(!serial.is_empty(), "the demo table starts dirty");
        let mut s = s.with_config(ExecConfig::new().with_threads(4));
        assert_eq!(s.violations().unwrap(), serial);
        // Fixing the table empties the list.
        let r = s.repair();
        for c in &r.changes {
            s.set_cell(c.cell, c.to.clone());
        }
        assert!(s.violations().unwrap().is_empty());
    }

    #[test]
    fn session_thread_count_never_changes_an_explanation() {
        let serial = session();
        let cell = laliga::cell_of_interest(serial.table());
        let cfg = SamplingConfig {
            samples: 200,
            seed: 5,
        };
        let want = serial
            .explain_cells_masked(cell, MaskMode::Null, cfg)
            .unwrap();
        for threads in [2usize, 4] {
            let multi = session().with_config(ExecConfig::new().with_threads(threads));
            let got = multi
                .explain_cells_masked(cell, MaskMode::Null, cfg)
                .unwrap();
            assert_eq!(got.values, want.values, "threads {threads}");
        }
    }

    #[test]
    fn session_oracle_capacity_preserves_results() {
        let bounded = session().with_config(ExecConfig::new().with_oracle_cap(4));
        let reference = session();
        assert_eq!(bounded.config().oracle_cap(), Some(4));
        assert_eq!(reference.config().oracle_cap(), None);
        let cell = laliga::cell_of_interest(bounded.table());
        let cons = bounded.explain_constraints(cell).unwrap();
        let want = reference.explain_constraints(cell).unwrap();
        assert_eq!(cons.exact, want.exact);
        let cfg = SamplingConfig {
            samples: 200,
            seed: 5,
        };
        let cells = bounded
            .explain_cells_masked(cell, MaskMode::Null, cfg)
            .unwrap();
        let want = reference
            .explain_cells_masked(cell, MaskMode::Null, cfg)
            .unwrap();
        assert_eq!(cells.values, want.values);
    }

    #[test]
    fn session_cache_stats_report_oracle_pressure() {
        let bounded = session().with_config(ExecConfig::new().with_oracle_cap(4));
        let cell = laliga::cell_of_interest(bounded.table());
        let cons = bounded.explain_constraints(cell).unwrap();
        let stats = bounded.oracle_cache().stats();
        // Identical explanation to the unbounded session...
        let reference = session();
        let want = reference.explain_constraints(cell).unwrap();
        let unbounded = reference.oracle_cache().stats();
        assert_eq!(cons.exact, want.exact);
        // ...but capacity 4 cannot hold the 16 coalition values, so the
        // bounded run must report evictions where the unbounded one
        // reports none.
        assert!(stats.misses > 0);
        assert!(stats.evictions > 0, "capacity 4 must evict: {stats:?}");
        assert_eq!(unbounded.evictions, 0, "{unbounded:?}");
        assert!(unbounded.hits > 0, "the rational pass re-reads the memo");
    }

    #[test]
    fn session_analyze_is_clean_on_the_demo_program_and_flags_injected_noise() {
        let mut s = session();
        let a = s.analyze();
        assert!(
            !a.has_errors(),
            "demo program should lint clean: {:?}",
            a.diagnostics
        );
        assert_eq!(a.plans.len(), 4);
        // Inject a dead constraint: flagged, and the violation list is
        // unchanged at any thread count.
        let before = s.violations().unwrap();
        s.upsert_constraint(
            trex_constraints::parse_dc_named(
                "Dead: !(t1.Year < t2.Year & t1.Year > t2.Year)",
                "Dead",
            )
            .unwrap(),
        )
        .unwrap();
        let a = s.analyze();
        assert!(a
            .verdicts
            .iter()
            .any(|v| v.name == "Dead" && v.unviolable.is_some()));
        assert_eq!(
            s.violations().unwrap(),
            before,
            "a dead DC contributes no witnesses"
        );
        let s = s.with_config(ExecConfig::new().with_threads(2));
        assert_eq!(s.violations().unwrap(), before);
    }

    #[test]
    fn removing_missing_constraint_is_none() {
        let mut s = session();
        assert!(s.remove_constraint("C9").is_none());
        assert_eq!(s.history().len(), 0);
    }

    #[test]
    fn session_is_send_and_sync() {
        // The server shares one Session behind an RwLock across request
        // threads; both auto traits are load-bearing.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }

    #[test]
    fn shared_cache_pools_answers_across_requests() {
        let s = session();
        let cell = laliga::cell_of_interest(s.table());
        let _ = s.explain_constraints(cell).unwrap();
        let first = s.oracle_cache().stats();
        assert!(first.misses > 0);
        // A second identical request must be answered from the shared
        // cache: no new misses, only hits.
        let _ = s.explain_constraints(cell).unwrap();
        let second = s.oracle_cache().stats();
        assert_eq!(second.misses, first.misses, "{second:?}");
        assert!(second.hits > first.hits, "{second:?}");
        // A configuration naming a different oracle capacity still reads
        // the session cache: all hits, no new entry, and the session's
        // capacity stays its own.
        let exec = ExecConfig::new().with_oracle_cap(4);
        let entries = s.oracle_cache().len();
        let _ = s
            .explainer(&exec)
            .explain_constraints(s.constraints(), s.table(), cell)
            .unwrap();
        let third = s.oracle_cache().stats();
        assert_eq!(third.misses, second.misses, "{third:?}");
        assert_eq!(third.hits, second.hits + (second.hits - first.hits));
        assert_eq!(s.oracle_cache().len(), entries);
        assert_eq!(s.oracle_cache().capacity(), ShardedOracle::DEFAULT_CAPACITY);
    }

    #[test]
    fn mutations_flush_the_shared_cache_and_explanations_stay_fresh() {
        // Satellite: a long-lived session that mutates its inputs must not
        // serve explanations influenced by pre-mutation oracle state. The
        // cache keys already embed the inputs; this pins the flush *and*
        // the freshness of the answers.
        let mut s = session();
        let cell = laliga::cell_of_interest(s.table());
        let before = s.explain_constraints(cell).unwrap();
        assert_eq!(before.ranking.top().unwrap().label, "C3");
        assert!(!s.oracle_cache().is_empty());

        // Remove C3: the cache flushes, and the re-explanation matches a
        // fresh session over the mutated inputs exactly.
        s.remove_constraint("C3").unwrap();
        assert!(s.oracle_cache().is_empty(), "mutation must flush");
        let after = s.explain_constraints(cell).unwrap();
        let mut fresh = session();
        fresh.remove_constraint("C3").unwrap();
        let want = fresh.explain_constraints(cell).unwrap();
        assert_eq!(after.exact, want.exact);
        assert_eq!(after.exact[0].1.to_string(), "1/2");

        // Same for a cell edit (different table fingerprint)...
        let year = s.table().schema().id("Year");
        s.set_cell(CellRef::new(0, year), Value::Int(1999));
        assert!(s.oracle_cache().is_empty(), "set_cell must flush");
        // ...and a constraint upsert.
        let _ = s.explain_constraints(cell);
        s.upsert_constraint(trex_constraints::parse_dc_named("C9: !(t1.Place < 1)", "C9").unwrap())
            .unwrap();
        assert!(s.oracle_cache().is_empty(), "upsert must flush");
    }

    #[test]
    fn concurrent_explanations_match_solo_runs_bit_for_bit() {
        // Satellite: N threads hammer one shared Session (one shared
        // coalition cache) with mixed seeds and thread counts; every result
        // must equal the same request run solo against its own session.
        let s = session().with_config(ExecConfig::new().with_threads(2));
        let cell = laliga::cell_of_interest(s.table());
        let requests: Vec<ExecConfig> = vec![
            ExecConfig::new().with_threads(1).with_seed(3),
            ExecConfig::new().with_threads(2).with_seed(3),
            ExecConfig::new().with_threads(2).with_seed(11),
            ExecConfig::new().with_threads(3).with_seed(7),
            ExecConfig::new().with_threads(4).with_seed(11),
            ExecConfig::new().with_threads(1).with_seed(7),
        ];
        let shared: Vec<CellExplanation> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|exec| {
                    let s = &s;
                    scope.spawn(move || {
                        let cfg = SamplingConfig {
                            samples: 120,
                            seed: exec.seed().unwrap(),
                        };
                        s.explainer(exec)
                            .explain_cells_masked(
                                s.constraints(),
                                s.table(),
                                cell,
                                MaskMode::Null,
                                cfg,
                            )
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (exec, got) in requests.iter().zip(&shared) {
            let solo = session().with_config(*exec);
            let cfg = SamplingConfig {
                samples: 120,
                seed: exec.seed().unwrap(),
            };
            let want = solo
                .explain_cells_masked(cell, MaskMode::Null, cfg)
                .unwrap();
            assert_eq!(got.values, want.values, "{exec:?}");
            assert_eq!(got.players, want.players, "{exec:?}");
        }
        assert!(
            s.oracle_cache().stats().hits > 0,
            "the hammer must actually share the cache"
        );
    }
}
