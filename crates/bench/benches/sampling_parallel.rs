//! Thread-scaling of the parallel permutation engine on the paper's own
//! cell game (la Liga table, Algorithm 1, cell of interest t5[Country]):
//! the same walk budget at 1, 2, 4, and 8 workers, plus the per-player
//! replacement estimator at 1 vs 4 workers. On a multi-core machine the
//! walk time should drop near-linearly until the hardware thread count;
//! `BENCH_convergence.json` (emitted by `exp_convergence --json`) records
//! the measured speedup over time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trex::{CellGameMasked, CellGameSampled, MaskMode};
use trex_datagen::laliga;
use trex_shapley::{parallel, ParallelConfig};
use trex_table::Value;

fn bench_parallel_sampling(c: &mut Criterion) {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);

    let mut group = c.benchmark_group("sampling_parallel_la_liga");
    group.sample_size(10);

    // Walk estimation of all 35 players under masked semantics, split
    // across workers. The game (and so the oracle cache) is rebuilt every
    // iteration: a shared warm cache would turn every query into a hit and
    // the bench would measure mutex overhead instead of repair-evaluation
    // scaling (exp_convergence::timed_walk makes the same choice).
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("masked_walk_160", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let masked = CellGameMasked::new(
                        &alg,
                        &dcs,
                        &dirty,
                        cell,
                        Value::str("Spain"),
                        MaskMode::Null,
                    );
                    parallel::estimate_all_walk(
                        black_box(&masked),
                        ParallelConfig::new(160, 1, threads),
                    )
                })
            },
        );
    }

    // Replacement-semantics estimation (Example 2.5) of all players: the
    // uncached game, where every in-slice sample pays two sliced repairs —
    // the workload the parallel engine exists for.
    let sampled = CellGameSampled::new(&alg, &dcs, &dirty, cell, Value::str("Spain"));
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("replacement_all_20", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    parallel::estimate_all(black_box(&sampled), ParallelConfig::new(20, 1, threads))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_sampling);
criterion_main!(benches);
