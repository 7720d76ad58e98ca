//! Ablation A1: oracle memoization. A full constraint explanation runs the
//! exact float solver *and* the rational cross-check — with the cache the
//! second solve is free; without it every coalition repairs twice.
//!
//! The `oracle_shards` group is the contention sweep behind the
//! `ShardedOracle::DEFAULT_SHARDS` choice: hot cache hits hammered from
//! every hardware thread at 1/4/16/64 shards. One shard serializes all
//! workers on a single mutex; the sweep shows where adding shards stops
//! paying (16 on every machine profiled so far — see
//! `OracleCache::with_config`'s docs).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use trex::ConstraintGame;
use trex_constraints::{parse_dcs, DenialConstraint};
use trex_datagen::laliga;
use trex_repair::{OracleCache, RepairAlgorithm, RepairResult, ShardedOracle};
use trex_shapley::{available_threads, shapley_exact, shapley_exact_rational};
use trex_table::{AttrId, CellRef, Table, TableBuilder, Value};

fn bench_oracle_cache(c: &mut Criterion) {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);

    let mut group = c.benchmark_group("oracle_cache");
    group.bench_function("cached_double_solve", |b| {
        b.iter(|| {
            let game = ConstraintGame::new(&alg, &dcs, &dirty, cell, Value::str("Spain"));
            let f = shapley_exact(black_box(&game)).unwrap();
            let r = shapley_exact_rational(black_box(&game)).unwrap();
            (f, r)
        })
    });
    group.bench_function("uncached_double_solve", |b| {
        b.iter(|| {
            let oracle =
                ShardedOracle::with_shared_cache(&alg, Arc::new(OracleCache::with_capacity(0)));
            let game = ConstraintGame::with_oracle(oracle, &dcs, &dirty, cell, Value::str("Spain"));
            let f = shapley_exact(black_box(&game)).unwrap();
            let r = shapley_exact_rational(black_box(&game)).unwrap();
            (f, r)
        })
    });
    group.finish();
}

/// A no-op-style repairer for the contention sweep: repairs (0,0) whenever
/// any constraint is passed. Cheap on purpose — the sweep must measure lock
/// contention, not repair time.
struct TinyRepair;

impl RepairAlgorithm for TinyRepair {
    fn name(&self) -> &str {
        "tiny"
    }
    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        let mut clean = dirty.clone();
        if !dcs.is_empty() {
            clean.set(CellRef::new(0, AttrId(0)), Value::str("FIXED"));
        }
        RepairResult::from_tables(dirty, clean)
    }
}

/// The shard-count contention sweep: every hardware thread hammers a warm
/// cache (pure hits — the worst case for the shard locks, since nothing
/// amortizes the acquisition). The winner sets `DEFAULT_SHARDS`.
fn bench_oracle_shards(c: &mut Criterion) {
    let alg = TinyRepair;
    let tables: Vec<Table> = (0..64)
        .map(|i| {
            TableBuilder::new()
                .str_columns(["A"])
                .str_row([format!("v{i}").as_str()])
                .build()
        })
        .collect();
    let dcs = parse_dcs("C1: !(t1.A != t2.A)").unwrap();
    let cell = CellRef::new(0, AttrId(0));
    let workers = available_threads();
    let mut group = c.benchmark_group("oracle_shards");
    for shards in [1usize, 4, 16, 64] {
        let cache = OracleCache::with_config(ShardedOracle::DEFAULT_CAPACITY, shards);
        let oracle = ShardedOracle::with_shared_cache(&alg, Arc::new(cache));
        // Warm every key so the measured loop is pure cache hits.
        for t in &tables {
            let _ = oracle.repairs_cell_to(&dcs, t, cell, &Value::str("FIXED"));
        }
        group.bench_function(format!("hits_{shards}_shards_{workers}_workers"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        let oracle = &oracle;
                        let dcs = &dcs;
                        let tables = &tables;
                        scope.spawn(move || {
                            // Each worker walks the keys from its own offset
                            // so concurrent queries spread over the shards.
                            for i in 0..256usize {
                                let t = &tables[(w * 17 + i) % tables.len()];
                                black_box(oracle.repairs_cell_to(
                                    dcs,
                                    t,
                                    cell,
                                    &Value::str("FIXED"),
                                ));
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_oracle_cache, bench_oracle_shards);
criterion_main!(benches);
