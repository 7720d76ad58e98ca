//! Variance-reduced sampling variants (ablation A3 of DESIGN.md).
//!
//! The plain estimator of [`crate::sampling`] draws coalition sizes with the
//! distribution induced by uniform permutations. Two standard refinements:
//!
//! * **Stratified sampling** — allocate an equal number of samples to each
//!   coalition size `k ∈ {0, …, n−1}` and average the per-stratum means.
//!   Since the Shapley value is exactly the uniform mixture over sizes of
//!   the size-conditional expected marginal, this is unbiased and removes
//!   the between-stratum component of the variance.
//! * **Antithetic sampling** — evaluate each drawn permutation *and its
//!   reverse*, pairing negatively correlated marginals (player early vs
//!   late), and average the pair.
//!
//! Both return the same [`Estimate`] type as the plain sampler so harnesses
//! can compare them head-to-head (`exp_convergence`, `sampling_variants`
//! bench).

use crate::convergence::RunningStats;
use crate::game::{Coalition, StochasticGame};
use crate::sampling::Estimate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stratified-by-coalition-size estimator for one player.
///
/// `samples_per_stratum` samples are drawn for each size `k ∈ {0..n-1}`:
/// a uniformly random `k`-subset of the other players forms the coalition.
/// The estimate is the mean of the per-stratum means; its reported
/// `std_dev` is derived from the stratified standard error (`√(Σ s_k²/m) / n`
/// scaled back so [`Estimate::std_error`] is correct).
pub fn estimate_player_stratified<G: StochasticGame + ?Sized>(
    game: &G,
    player: usize,
    samples_per_stratum: usize,
    seed: u64,
) -> Estimate {
    let n = game.num_players();
    assert!(player < n, "player {player} out of range ({n} players)");
    assert!(
        samples_per_stratum > 0,
        "need at least one sample per stratum"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // The shuffle pool carries across strata: partial Fisher–Yates yields
    // a uniform `k`-subset from any starting arrangement.
    let mut pool: Vec<usize> = (0..n).filter(|i| *i != player).collect();
    let stratum_stats: Vec<RunningStats> = (0..n)
        .map(|k| {
            let mut stats = RunningStats::new();
            for _ in 0..samples_per_stratum {
                // Partial Fisher–Yates: first k entries become the coalition.
                for i in 0..k {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                let coalition = Coalition::from_players(n, pool[..k].iter().copied());
                let (with, without) = game.eval_pair(&coalition, player, &mut rng);
                stats.push(with - without);
            }
            stats
        })
        .collect();
    let mean: f64 = stratum_stats.iter().map(RunningStats::mean).sum::<f64>() / n as f64;
    // Var(estimate) = (1/n²) Σ_k Var(stratum mean_k) = (1/n²) Σ_k s_k²/m.
    let var_of_mean: f64 = stratum_stats
        .iter()
        .map(|s| s.variance() / samples_per_stratum as f64)
        .sum::<f64>()
        / (n as f64 * n as f64);
    let total_samples = n * samples_per_stratum;
    // Back out a std_dev such that Estimate::std_error() = sqrt(var_of_mean).
    let std_dev = (var_of_mean * total_samples as f64).sqrt();
    Estimate {
        value: mean,
        std_dev,
        samples: total_samples,
    }
}

/// Antithetic-pairs estimator for one player: each iteration draws one
/// permutation, uses it *and* its reverse, and records the average of the
/// two marginals as a single observation.
pub fn estimate_player_antithetic<G: StochasticGame + ?Sized>(
    game: &G,
    player: usize,
    pairs: usize,
    seed: u64,
) -> Estimate {
    let n = game.num_players();
    assert!(player < n, "player {player} out of range ({n} players)");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = RunningStats::new();
    let mut perm: Vec<usize> = (0..n).collect();
    for _ in 0..pairs {
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let marginal = |preds: &mut dyn Iterator<Item = usize>, rng: &mut StdRng| {
            let mut coalition = Coalition::empty(n);
            for p in preds {
                if p == player {
                    break;
                }
                coalition.insert(p);
            }
            let (with, without) = game.eval_pair(&coalition, player, rng);
            with - without
        };
        let forward = marginal(&mut perm.iter().copied(), &mut rng);
        let backward = marginal(&mut perm.iter().rev().copied(), &mut rng);
        stats.push(0.5 * (forward + backward));
    }
    stats.estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::shapley_exact;
    use crate::game::fixtures;
    use crate::sampling::{estimate_player, SamplingConfig};

    #[test]
    fn stratified_is_unbiased_on_fixtures() {
        let g = fixtures::gloves(2, 3);
        let exact = shapley_exact(&g).unwrap();
        for (p, want) in exact.iter().enumerate() {
            let est = estimate_player_stratified(&g, p, 4000, 17);
            assert!(
                (est.value - want).abs() < 0.02,
                "player {p}: {} vs {want}",
                est.value
            );
        }
    }

    #[test]
    fn antithetic_is_unbiased_on_fixtures() {
        let g = fixtures::paper_example_2_3();
        let exact = shapley_exact(&g).unwrap();
        for (p, want) in exact.iter().enumerate() {
            let est = estimate_player_antithetic(&g, p, 10_000, 23);
            assert!(
                (est.value - want).abs() < 0.02,
                "player {p}: {} vs {want}",
                est.value
            );
        }
    }

    #[test]
    fn stratified_beats_plain_variance_on_majority() {
        // The majority game's marginal is entirely explained by coalition
        // size, so stratification should collapse the standard error.
        let g = fixtures::majority(9);
        let plain = estimate_player(
            &g,
            0,
            SamplingConfig {
                samples: 9 * 200,
                seed: 31,
            },
        );
        let strat = estimate_player_stratified(&g, 0, 200, 31);
        assert_eq!(plain.samples, strat.samples);
        assert!(
            strat.std_error() < plain.std_error() * 0.5,
            "stratified {} vs plain {}",
            strat.std_error(),
            plain.std_error()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = fixtures::gloves(1, 2);
        let a = estimate_player_stratified(&g, 0, 100, 5);
        let b = estimate_player_stratified(&g, 0, 100, 5);
        assert_eq!(a, b);
        let c = estimate_player_antithetic(&g, 0, 100, 5);
        let d = estimate_player_antithetic(&g, 0, 100, 5);
        assert_eq!(c, d);
    }

    #[test]
    fn dummy_player_is_exactly_zero() {
        let g = fixtures::paper_example_2_3();
        let s = estimate_player_stratified(&g, 3, 50, 1);
        assert_eq!(s.value, 0.0);
        let a = estimate_player_antithetic(&g, 3, 50, 1);
        assert_eq!(a.value, 0.0);
    }

    #[test]
    fn sample_counts_reported() {
        let g = fixtures::gloves(1, 2);
        let s = estimate_player_stratified(&g, 0, 10, 0);
        assert_eq!(s.samples, 3 * 10);
        let a = estimate_player_antithetic(&g, 0, 25, 0);
        assert_eq!(a.samples, 25);
    }
}
