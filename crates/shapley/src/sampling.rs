//! Monte-Carlo Shapley approximation by permutation sampling.
//!
//! Implements the estimator of Strumbelj & Kononenko ([7] in the paper),
//! which T-REx uses for **table cells** — "the number of cells in a table
//! can be very large, so T-REx uses a sampling algorithm based on [7]"
//! (§2.3). One sample for player `i` (Example 2.5):
//!
//! 1. draw a uniformly random permutation `π` of the players;
//! 2. let `S = pred_π(i)`, the players preceding `i` in `π`;
//! 3. evaluate the marginal pair `(v(S ∪ {i}), v(S))` — for the cell game
//!    this builds *one* replacement table and toggles only cell `i` between
//!    the two instances (common random numbers);
//! 4. accumulate `v(S∪{i}) − v(S)`; the estimate is the running mean `ϕ/m`.
//!
//! Since each summand is the marginal term of the permutation form of the
//! Shapley value (see [`crate::perm`]), the estimator is unbiased; variance
//! decays as `1/m` (experiment E5 measures this empirically).
//!
//! [`estimate_all_walk`] is the all-players variant (Castro et al. style):
//! one permutation walk yields a marginal sample for *every* player at the
//! cost of `n+1` evaluations, which amortizes much better when the whole
//! ranking is wanted — that is what the explanation screen shows.

use crate::convergence::RunningStats;
use crate::game::{Coalition, Game, StochasticGame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the sampling estimators.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
    /// Number of Monte-Carlo samples (`m` in Example 2.5). For
    /// [`estimate_all_walk`] this is the number of permutations.
    pub samples: usize,
    /// RNG seed; all estimates are deterministic given the seed.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            samples: 1000,
            seed: 0,
        }
    }
}

/// A Monte-Carlo estimate with its sampling distribution summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimated Shapley value (mean marginal contribution).
    pub value: f64,
    /// Sample standard deviation of the marginal contributions.
    pub std_dev: f64,
    /// Number of samples used.
    pub samples: usize,
}

impl Estimate {
    /// Standard error of the mean, `s/√m`.
    pub fn std_error(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.std_dev / (self.samples as f64).sqrt()
        }
    }

    /// Normal-approximation confidence half-width at `z` standard errors
    /// (`z = 1.96` for 95%).
    pub fn ci_half_width(&self, z: f64) -> f64 {
        z * self.std_error()
    }
}

/// The derived seed of `player` in the all-players drivers: the base seed
/// laddered by a golden-ratio multiple of the player index, so per-player
/// sample streams are decorrelated but fully determined by the base seed.
///
/// Shared by [`estimate_all`] and every all-player driver of
/// [`crate::parallel`]: each must ladder identically for the
/// serial-equivalence contract to compose.
pub fn player_seed(seed: u64, player: usize) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(player as u64 + 1))
}

/// SplitMix64 finalizer (Steele, Lea, Flood 2014) — the standard 64-bit
/// mixer behind the round ladder below.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The derived seed of `round` in the round-laddered adaptive estimator
/// ([`estimate_player_adaptive_rounds`]): round 0 keeps the (per-player)
/// seed unmodified, later rounds xor a SplitMix64 hash of their index.
///
/// Laddering per *round* instead of running one continuous stream is what
/// makes a round a relocatable unit of work: any worker can compute round
/// `r` of any player from `(seed, r)` alone, so
/// [`crate::parallel::estimate_all_adaptive`] can spread one player's
/// rounds across workers and still merge, in round order, to the exact
/// statistics of the serial round-laddered loop.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        seed
    } else {
        seed ^ splitmix64(round as u64)
    }
}

/// Draw a uniform permutation of `0..n` (Fisher–Yates) into `perm`.
///
/// Shared with [`crate::parallel`]: the serial and parallel estimators must
/// consume the RNG identically for the bit-for-bit contract, so there is
/// exactly one copy of every sampling primitive.
pub(crate) fn random_permutation_into<R: Rng + ?Sized>(
    perm: &mut Vec<usize>,
    n: usize,
    rng: &mut R,
) {
    perm.clear();
    perm.extend(0..n);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
}

/// The reused prefix coalition and prefix values of a walk: one
/// allocation each per worker instead of per walk.
pub(crate) struct WalkScratch {
    prefix: Coalition,
    values: Vec<f64>,
}

impl WalkScratch {
    pub(crate) fn new(n: usize) -> Self {
        WalkScratch {
            prefix: Coalition::empty(n),
            values: Vec::with_capacity(n + 1),
        }
    }

    /// Evaluate the `n + 1` prefix coalitions of `perm` (∅, then one more
    /// player at a time) in walk order, through [`Game::walk_values`].
    pub(crate) fn prefix_values<G: Game + ?Sized>(&mut self, game: &G, perm: &[usize]) -> &[f64] {
        game.walk_values(perm, &mut self.prefix, &mut self.values);
        debug_assert_eq!(self.values.len(), perm.len() + 1);
        &self.values
    }
}

/// Push one walk's marginals `values[i + 1] − values[i]` into the stats of
/// the player `perm[i]` inserted at step `i`, in walk order.
pub(crate) fn fold_walk(stats: &mut [RunningStats], perm: &[usize], values: &[f64]) {
    for (i, &p) in perm.iter().enumerate() {
        stats[p].push(values[i + 1] - values[i]);
    }
}

/// One marginal sample for `player` (Example 2.5): draw a permutation, form
/// the predecessor coalition, evaluate the pair, return `v(S∪{i}) − v(S)`.
fn marginal_sample<G: StochasticGame + ?Sized>(game: &G, player: usize, rng: &mut StdRng) -> f64 {
    let n = game.num_players();
    let mut perm = Vec::with_capacity(n);
    random_permutation_into(&mut perm, n, rng);
    let mut coalition = Coalition::empty(n);
    for &p in &perm {
        if p == player {
            break;
        }
        coalition.insert(p);
    }
    let (with, without) = game.eval_pair(&coalition, player, rng);
    with - without
}

/// One full permutation walk (Castro et al.): visit the players in a fresh
/// random order, pushing every incremental marginal into `stats`. `perm`
/// and `scratch` are reused across walks and do not affect the RNG stream
/// or the output.
pub(crate) fn walk_once<G: Game + ?Sized>(
    game: &G,
    rng: &mut StdRng,
    stats: &mut [RunningStats],
    perm: &mut Vec<usize>,
    scratch: &mut WalkScratch,
) {
    random_permutation_into(perm, game.num_players(), rng);
    let values = scratch.prefix_values(game, perm);
    fold_walk(stats, perm, values);
}

/// Estimate the Shapley value of a single `player` with `config.samples`
/// permutation samples — the exact procedure of Example 2.5.
pub fn estimate_player<G: StochasticGame + ?Sized>(
    game: &G,
    player: usize,
    config: SamplingConfig,
) -> Estimate {
    let n = game.num_players();
    assert!(player < n, "player {player} out of range ({n} players)");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stats = RunningStats::new();
    for _ in 0..config.samples {
        stats.push(marginal_sample(game, player, &mut rng));
    }
    stats.estimate()
}

/// Estimate all players independently (`config.samples` samples each).
///
/// Each player gets a distinct derived seed, so estimates are independent
/// and the whole call is deterministic.
pub fn estimate_all<G: StochasticGame + ?Sized>(game: &G, config: SamplingConfig) -> Vec<Estimate> {
    (0..game.num_players())
        .map(|p| {
            estimate_player(
                game,
                p,
                SamplingConfig {
                    samples: config.samples,
                    seed: player_seed(config.seed, p),
                },
            )
        })
        .collect()
}

/// Estimate all players with shared permutation walks: each of
/// `config.samples` permutations is walked once, contributing one marginal
/// sample to every player with `n + 1` evaluations total.
///
/// Only available for deterministic games: a walk shares the coalition
/// between players, so per-pair common random numbers do not apply.
pub fn estimate_all_walk<G: Game + ?Sized>(game: &G, config: SamplingConfig) -> Vec<Estimate> {
    let n = game.num_players();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stats = vec![RunningStats::new(); n];
    let mut perm = Vec::with_capacity(n);
    let mut scratch = WalkScratch::new(n);
    for _ in 0..config.samples {
        walk_once(game, &mut rng, &mut stats, &mut perm, &mut scratch);
    }
    stats.iter().map(RunningStats::estimate).collect()
}

/// One `batch`-sized round of a player's adaptive budget: `batch` marginal
/// samples from a fresh RNG seeded [`round_seed`]`(seed, round)`. A pure
/// function of its arguments, so any worker can compute any round.
pub(crate) fn adaptive_round<G: StochasticGame + ?Sized>(
    game: &G,
    player: usize,
    batch: usize,
    seed: u64,
    round: usize,
) -> RunningStats {
    let mut rng = StdRng::seed_from_u64(round_seed(seed, round));
    let mut stats = RunningStats::new();
    for _ in 0..batch {
        stats.push(marginal_sample(game, player, &mut rng));
    }
    stats
}

/// The adaptive stopping rule on the statistics folded so far: converged
/// once at least two batches are in and the `z`-confidence half-width is
/// within `tolerance`, given up once `max_samples` are in, else `None`
/// (run another round).
pub(crate) fn adaptive_stop(
    stats: &RunningStats,
    tolerance: f64,
    z: f64,
    batch: usize,
    max_samples: usize,
) -> Option<(Estimate, bool)> {
    let est = stats.estimate();
    // Require at least two batches before trusting the variance.
    if stats.count() >= 2 * batch && est.ci_half_width(z) <= tolerance {
        Some((est, true))
    } else if stats.count() >= max_samples {
        Some((est, false))
    } else {
        None
    }
}

/// Adaptive estimation of one player: sample in `batch`-sized rounds until
/// the `z`-confidence half-width drops below `tolerance` (after at least
/// two rounds) or `max_samples` is reached. Returns the estimate and
/// whether it converged.
///
/// Round `r` draws its samples from a *fresh* RNG seeded
/// [`round_seed`]`(seed, r)` instead of continuing one sequential stream,
/// and is folded in with the exact parallel-Welford merge. That makes every
/// round a pure function of `(seed, r)`, so
/// [`crate::parallel::estimate_all_adaptive`] can compute rounds on any
/// worker in any order, fold them back in round order, and reproduce this
/// function bit for bit at any thread count.
pub fn estimate_player_adaptive_rounds<G: StochasticGame + ?Sized>(
    game: &G,
    player: usize,
    tolerance: f64,
    z: f64,
    batch: usize,
    max_samples: usize,
    seed: u64,
) -> (Estimate, bool) {
    let n = game.num_players();
    assert!(player < n, "player {player} out of range");
    assert!(batch > 0, "batch must be positive");
    let mut stats = RunningStats::new();
    for round in 0.. {
        stats.merge(&adaptive_round(game, player, batch, seed, round));
        if let Some(done) = adaptive_stop(&stats, tolerance, z, batch, max_samples) {
            return done;
        }
    }
    unreachable!("the sample cap terminates the round loop")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::shapley_exact;
    use crate::game::{fixtures, FnGame};

    #[test]
    fn estimates_converge_to_exact_on_gloves() {
        let g = fixtures::gloves(2, 3);
        let exact = shapley_exact(&g).unwrap();
        let cfg = SamplingConfig {
            samples: 20_000,
            seed: 11,
        };
        for (p, want) in exact.iter().enumerate() {
            let est = estimate_player(&g, p, cfg);
            assert!(
                (est.value - want).abs() < 0.02,
                "player {p}: {} vs {want}",
                est.value
            );
        }
    }

    #[test]
    fn walk_estimates_converge_and_are_efficient() {
        let g = fixtures::paper_example_2_3();
        let exact = shapley_exact(&g).unwrap();
        let ests = estimate_all_walk(
            &g,
            SamplingConfig {
                samples: 30_000,
                seed: 5,
            },
        );
        for (est, want) in ests.iter().zip(&exact) {
            assert!((est.value - want).abs() < 0.02);
        }
        // Permutation walks are exactly efficient *per sample*: the marginals
        // along one permutation telescope to v(N) - v(∅). So the means sum to
        // v(N) exactly (up to fp).
        let total: f64 = ests.iter().map(|e| e.value).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn dummy_player_estimates_to_zero_exactly() {
        // Player 3 in the paper game is a dummy: every marginal is 0, so
        // even the *sampled* estimate is exactly 0 with zero variance.
        let g = fixtures::paper_example_2_3();
        let est = estimate_player(
            &g,
            3,
            SamplingConfig {
                samples: 500,
                seed: 3,
            },
        );
        assert_eq!(est.value, 0.0);
        assert_eq!(est.std_dev, 0.0);
        assert_eq!(est.ci_half_width(1.96), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = fixtures::majority(7);
        let cfg = SamplingConfig {
            samples: 200,
            seed: 42,
        };
        let a = estimate_player(&g, 2, cfg);
        let b = estimate_player(&g, 2, cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn error_shrinks_with_sample_count() {
        let g = fixtures::gloves(3, 3);
        let exact = shapley_exact(&g).unwrap();
        let err = |m: usize| {
            let est = estimate_player(
                &g,
                0,
                SamplingConfig {
                    samples: m,
                    seed: 99,
                },
            );
            (est.value - exact[0]).abs()
        };
        // Not strictly monotone, but 100x samples should clearly beat 1x.
        assert!(err(40_000) < err(400) + 1e-9);
    }

    #[test]
    fn round_ladder_keeps_round_zero_and_decorrelates_the_rest() {
        assert_eq!(round_seed(99, 0), 99, "round 0 keeps the player seed");
        let seeds: Vec<u64> = (0..50).map(|r| round_seed(99, r)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "round seeds must not collide");
    }

    #[test]
    fn adaptive_rounds_converges_and_respects_the_cap() {
        let g = fixtures::unanimity(6, vec![0, 1, 2]);
        let (est, converged) = estimate_player_adaptive_rounds(&g, 0, 0.02, 1.96, 500, 200_000, 7);
        assert!(converged);
        assert!((est.value - 1.0 / 3.0).abs() < 0.05);
        let (est, converged) = estimate_player_adaptive_rounds(&g, 0, 1e-12, 1.96, 10, 100, 7);
        assert!(!converged);
        assert_eq!(est.samples, 100, "cap reached in whole batches");
    }

    #[test]
    fn adaptive_rounds_is_deterministic_and_stops_dummies_early() {
        let g = fixtures::paper_example_2_3();
        let a = estimate_player_adaptive_rounds(&g, 3, 0.05, 1.96, 40, 4000, 11);
        let b = estimate_player_adaptive_rounds(&g, 3, 0.05, 1.96, 40, 4000, 11);
        assert_eq!(a, b);
        // Player 3 is a dummy: zero variance, stop at exactly two batches.
        assert!(a.1);
        assert_eq!(a.0.samples, 80);
        assert_eq!(a.0.value, 0.0);
    }

    #[test]
    fn single_player_game() {
        let g = FnGame::new(1, |s: &Coalition| if s.contains(0) { 2.0 } else { 0.0 });
        let est = estimate_player(
            &g,
            0,
            SamplingConfig {
                samples: 10,
                seed: 0,
            },
        );
        assert_eq!(est.value, 2.0);
        assert_eq!(est.std_dev, 0.0);
    }

    #[test]
    fn std_error_math() {
        let e = Estimate {
            value: 1.0,
            std_dev: 2.0,
            samples: 100,
        };
        assert!((e.std_error() - 0.2).abs() < 1e-12);
        assert!((e.ci_half_width(1.96) - 0.392).abs() < 1e-12);
    }
}
