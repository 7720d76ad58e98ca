//! Ablation A3: plain permutation sampling vs stratified vs antithetic
//! variants, time per equal sample budget. (The variance comparison — the
//! interesting half — is printed by `exp_convergence`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trex_bench::RandomBinaryGame;
use trex_shapley::{
    estimate_player, estimate_player_antithetic, estimate_player_stratified, SamplingConfig,
};

fn bench_variants(c: &mut Criterion) {
    let game = RandomBinaryGame::new(24, 4, 5);
    let mut group = c.benchmark_group("sampling_variants");
    // Equalized budgets: plain m = 24·s, stratified s per stratum (24
    // strata), antithetic m/2 pairs.
    let s = 50usize;
    let m = 24 * s;
    group.bench_with_input(BenchmarkId::new("plain", m), &m, |b, &m| {
        b.iter(|| {
            estimate_player(
                black_box(&game),
                0,
                SamplingConfig {
                    samples: m,
                    seed: 9,
                },
            )
        })
    });
    group.bench_with_input(BenchmarkId::new("stratified", s), &s, |b, &s| {
        b.iter(|| estimate_player_stratified(black_box(&game), 0, s, 9))
    });
    group.bench_with_input(BenchmarkId::new("antithetic", m / 2), &(m / 2), |b, &p| {
        b.iter(|| estimate_player_antithetic(black_box(&game), 0, p, 9))
    });
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
