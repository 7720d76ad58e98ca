//! Invariant suite for the bounded-memory [`OracleCache`]: whatever the
//! capacity, eviction may only ever cost recomputation time — never change
//! an answer, never let the cache outgrow its bound, never lose a query in
//! the statistics.
//!
//! The workloads are seeded-random query sequences (repeats included, so
//! hits, misses, and evictions all occur) over small tables with planted
//! conflicts, run side by side against an effectively unbounded oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use trex_constraints::{parse_dcs, DenialConstraint};
use trex_repair::{OracleCache, OracleStats, RepairAlgorithm, RepairResult, ShardedOracle};
use trex_table::{AttrId, CellRef, Table, TableBuilder, Value};

/// Deterministic test repairer: sets cell (0,0) to "FIXED" whenever at
/// least one constraint is passed, and counts invocations.
struct CountingRepair {
    calls: AtomicUsize,
}

impl CountingRepair {
    fn new() -> Self {
        CountingRepair {
            calls: AtomicUsize::new(0),
        }
    }
    fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }
}

impl RepairAlgorithm for CountingRepair {
    fn name(&self) -> &str {
        "counting"
    }
    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut clean = dirty.clone();
        if !dcs.is_empty() {
            clean.set(CellRef::new(0, AttrId(0)), Value::str("FIXED"));
        }
        RepairResult::from_tables(dirty, clean)
    }
}

fn dcs() -> Vec<DenialConstraint> {
    parse_dcs("C1: !(t1.A = t2.A & t1.B != t2.B)").unwrap()
}

/// The `i`-th distinct query table of the workload.
fn table_for(i: usize) -> Table {
    TableBuilder::new()
        .str_columns(["A", "B"])
        .str_row([format!("v{i}").as_str(), "x"])
        .str_row([format!("v{i}").as_str(), "y"])
        .build()
}

/// A seeded workload: `queries` draws over `distinct` tables, with repeats.
fn workload(distinct: usize, queries: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..queries).map(|_| rng.gen_range(0..distinct)).collect()
}

/// An oracle on a cache of its own with `capacity` entries on `shards`
/// shards.
fn bounded(alg: &dyn RepairAlgorithm, capacity: usize, shards: usize) -> ShardedOracle<'_> {
    ShardedOracle::with_shared_cache(alg, Arc::new(OracleCache::with_config(capacity, shards)))
}

fn run(oracle: &ShardedOracle<'_>, keys: &[usize]) -> Vec<bool> {
    let dcs = dcs();
    let cell = CellRef::new(0, AttrId(0));
    keys.iter()
        .map(|&i| oracle.repairs_cell_to(&dcs, &table_for(i), cell, &Value::str("FIXED")))
        .collect()
}

#[test]
fn any_capacity_yields_the_unbounded_answers() {
    // The headline invariant: for every capacity — saturated, exact-fit, or
    // roomy — the answer sequence is identical to the unbounded oracle's.
    let keys = workload(24, 400, 7);
    let unbounded_alg = CountingRepair::new();
    let unbounded = ShardedOracle::new(&unbounded_alg);
    let reference = run(&unbounded, &keys);
    for capacity in [0usize, 1, 2, 5, 13, 24, 100] {
        for shards in [1usize, 4, 16] {
            let alg = CountingRepair::new();
            let oracle = bounded(&alg, capacity, shards);
            let answers = run(&oracle, &keys);
            assert_eq!(
                answers, reference,
                "capacity {capacity}, {shards} shards changed an answer"
            );
        }
    }
}

#[test]
fn capacity_at_least_live_keys_is_identical_to_unbounded_with_zero_evictions() {
    let keys = workload(20, 300, 11);
    let unbounded_alg = CountingRepair::new();
    let unbounded = ShardedOracle::new(&unbounded_alg);
    let reference = run(&unbounded, &keys);
    let reference_stats = unbounded.cache().stats();
    assert_eq!(reference_stats.evictions, 0);
    // 20 distinct keys; one shard keeps quota rounding out of the picture,
    // so any capacity ≥ 20 must behave exactly like the unbounded oracle —
    // same answers, same stats, same live-entry count, no evictions.
    for capacity in [20usize, 21, 64, 1 << 20] {
        let alg = CountingRepair::new();
        let oracle = bounded(&alg, capacity, 1);
        let answers = run(&oracle, &keys);
        assert_eq!(answers, reference, "capacity {capacity}");
        assert_eq!(
            oracle.cache().stats(),
            reference_stats,
            "capacity {capacity}"
        );
        assert_eq!(
            oracle.cache().len(),
            unbounded.cache().len(),
            "capacity {capacity}"
        );
        assert_eq!(alg.calls(), unbounded_alg.calls(), "capacity {capacity}");
    }
}

#[test]
fn hits_plus_misses_equals_queries_at_every_capacity() {
    let keys = workload(16, 250, 3);
    for capacity in [0usize, 1, 3, 8, 16, 50] {
        let alg = CountingRepair::new();
        let oracle = bounded(&alg, capacity, 4);
        let _ = run(&oracle, &keys);
        let stats = oracle.cache().stats();
        assert_eq!(
            stats.hits + stats.misses,
            keys.len(),
            "capacity {capacity}: every query is exactly one hit or one miss"
        );
        // Every miss ran the black box exactly once.
        assert_eq!(alg.calls(), stats.misses, "capacity {capacity}");
    }
}

#[test]
fn no_evictions_until_capacity_pressure() {
    let alg = CountingRepair::new();
    // 8 entries on one shard; the first 8 distinct keys fit exactly.
    let oracle = bounded(&alg, 8, 1);
    let dcs = dcs();
    let cell = CellRef::new(0, AttrId(0));
    for i in 0..8 {
        let _ = oracle.repairs_cell_to(&dcs, &table_for(i), cell, &Value::str("FIXED"));
        assert_eq!(
            oracle.cache().stats().evictions,
            0,
            "under capacity after key {i}"
        );
        assert_eq!(oracle.cache().len(), i + 1);
    }
    // The ninth distinct key forces exactly one eviction.
    let _ = oracle.repairs_cell_to(&dcs, &table_for(8), cell, &Value::str("FIXED"));
    assert_eq!(oracle.cache().stats().evictions, 1);
    assert_eq!(oracle.cache().len(), 8);
}

#[test]
fn live_entries_never_exceed_capacity() {
    let keys = workload(40, 600, 19);
    let dcs = dcs();
    let cell = CellRef::new(0, AttrId(0));
    for (capacity, shards) in [(1usize, 1usize), (5, 1), (7, 3), (12, 16), (33, 16)] {
        let alg = CountingRepair::new();
        let oracle = bounded(&alg, capacity, shards);
        for (q, &i) in keys.iter().enumerate() {
            let _ = oracle.repairs_cell_to(&dcs, &table_for(i), cell, &Value::str("FIXED"));
            assert!(
                oracle.cache().len() <= capacity,
                "capacity {capacity}/{shards} shards: {} live after query {q}",
                oracle.cache().len()
            );
        }
        assert_eq!(oracle.cache().capacity(), capacity);
    }
}

#[test]
fn requeried_evicted_key_recomputes_the_same_value() {
    // Thrash a capacity-2 cache with distinct keys, re-querying old keys
    // throughout: every answer must match a fresh uncached computation.
    let fresh_alg = CountingRepair::new();
    let dcs = dcs();
    let cell = CellRef::new(0, AttrId(0));
    let alg = CountingRepair::new();
    let oracle = bounded(&alg, 2, 1);
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..200 {
        let i = rng.gen_range(0..10usize);
        let cached = oracle.repairs_cell_to(&dcs, &table_for(i), cell, &Value::str("FIXED"));
        let fresh = trex_repair::repairs_cell_to(
            &fresh_alg,
            &dcs,
            &table_for(i),
            cell,
            &Value::str("FIXED"),
        );
        assert_eq!(cached, fresh, "key {i} changed its answer after eviction");
    }
    let stats = oracle.cache().stats();
    assert!(stats.evictions > 0, "the workload must thrash");
    assert!(
        stats.misses > 10,
        "re-queried evicted keys must recompute (misses {})",
        stats.misses
    );
}

#[test]
fn concurrent_bounded_oracle_keeps_the_invariants() {
    // Hammer a small bounded cache from 4 threads: answers stay correct,
    // the bound holds at the end, and the stats still account for every
    // query even under eviction races.
    let alg = CountingRepair::new();
    let oracle = bounded(&alg, 6, 3);
    let dcs = dcs();
    let cell = CellRef::new(0, AttrId(0));
    let per_thread = 150usize;
    let threads = 4usize;
    std::thread::scope(|scope| {
        for w in 0..threads {
            let oracle = &oracle;
            let dcs = &dcs;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w as u64);
                for _ in 0..per_thread {
                    let i = rng.gen_range(0..15usize);
                    let got =
                        oracle.repairs_cell_to(dcs, &table_for(i), cell, &Value::str("FIXED"));
                    assert!(got, "every keyed table repairs (0,0) to FIXED");
                }
            });
        }
    });
    let stats = oracle.cache().stats();
    assert_eq!(stats.hits + stats.misses, threads * per_thread);
    assert!(oracle.cache().len() <= 6);
    assert!(stats.evictions > 0, "15 keys through 6 slots must evict");
}

#[test]
fn clear_resets_the_bounded_cache() {
    let alg = CountingRepair::new();
    let oracle = bounded(&alg, 3, 1);
    let keys = workload(9, 60, 5);
    let _ = run(&oracle, &keys);
    assert!(oracle.cache().stats().evictions > 0);
    oracle.cache().clear();
    assert_eq!(oracle.cache().stats(), OracleStats::default());
    assert!(oracle.cache().is_empty());
    // And the cleared cache fills back up correctly.
    let _ = run(&oracle, &keys);
    assert!(oracle.cache().len() <= 3);
}
