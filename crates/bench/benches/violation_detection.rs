//! Ablation A2: the nested-loop reference against the violation scan
//! (equality partition) on standings tables of growing size, with the scan
//! at 1 thread and at all hardware threads. The scan should win by a
//! growing factor (quadratic vs near-linear for selective join keys). The
//! thread-scaling group measures the scan behind
//! `trex violations --threads` / `trex repair --threads`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use trex_bench::standings_workload;
use trex_constraints::{find_all_violations_par, find_violations, DenialConstraint};
use trex_table::Table;

fn resolved(table: &Table) -> Vec<DenialConstraint> {
    trex_datagen::soccer::soccer_constraints()
        .iter()
        .map(|d| d.resolved(table.schema()).unwrap())
        .collect()
}

fn bench_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("violation_detection");
    let all_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for rows in [48usize, 96, 192, 384] {
        let (table, _) = standings_workload(rows, 0.02, 3);
        let dcs = resolved(&table);
        group.throughput(Throughput::Elements(table.num_rows() as u64));
        group.bench_with_input(
            BenchmarkId::new("nested_loop", table.num_rows()),
            &table,
            |b, t| {
                b.iter(|| {
                    dcs.iter()
                        .map(|dc| find_violations(black_box(dc), black_box(t)).len())
                        .sum::<usize>()
                })
            },
        );
        for (name, threads) in [("scan_1_thread", 1), ("scan_all_threads", all_threads)] {
            group.bench_with_input(BenchmarkId::new(name, table.num_rows()), &table, |b, t| {
                b.iter(|| find_all_violations_par(black_box(&dcs), black_box(t), threads).len())
            });
        }
    }
    group.finish();
}

/// Thread scaling of the scan at a fixed table size. Output is identical
/// at every worker count, so this group is purely a wall-time measurement.
fn bench_detection_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("violation_detection_threads");
    let (table, _) = standings_workload(384, 0.02, 3);
    let dcs = resolved(&table);
    group.throughput(Throughput::Elements(table.num_rows() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("scan", threads), &threads, |b, &t| {
            b.iter(|| find_all_violations_par(black_box(&dcs), black_box(&table), t).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detection, bench_detection_parallel);
criterion_main!(benches);
