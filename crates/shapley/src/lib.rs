//! # trex-shapley
//!
//! The Shapley-value engine of the T-REx reproduction.
//!
//! The paper (§2.2–§2.3) casts "how much did this constraint / this cell
//! contribute to the repair of the cell of interest?" as the Shapley value
//! of a cooperative game whose characteristic function queries the black-box
//! repair algorithm. This crate provides the game abstractions and four
//! solvers:
//!
//! | solver | module | cost | used for |
//! |---|---|---|---|
//! | subset enumeration (def. of §2.2) | [`exact`] | `Θ(2^n)` | constraints (few players) |
//! | permutation enumeration | [`perm`] | `Θ(n!·n)` | cross-check oracle |
//! | permutation sampling ([7], Example 2.5) | [`sampling`] | `Θ(m)` | cells (many players) |
//! | parallel permutation sampling | [`parallel`] | `Θ(m / threads)` | cells, multi-core |
//! | stratified / antithetic variants | [`stratified`] | `Θ(m)` | ablation A3 |
//!
//! The plain, walk, and adaptive estimators each have one [`parallel`]
//! driver whose output is the serial estimator's, bit for bit, at every
//! thread count: `threads` changes wall time only. The adaptive stream is
//! the round ladder of [`sampling::estimate_player_adaptive_rounds`]. The
//! stratified and antithetic estimators stay serial (ablation A3).
//!
//! All solvers operate on [`Game`]/[`StochasticGame`] and are exercised
//! against closed-form fixtures ([`game::fixtures`]) and against each other
//! by property tests (Shapley axioms: efficiency, symmetry, dummy,
//! linearity).

#![warn(missing_docs)]

pub mod banzhaf;
pub mod config;
pub mod convergence;
pub mod exact;
pub mod game;
pub mod interaction;
pub mod parallel;
pub mod perm;
pub mod sampling;
pub mod stratified;

pub use banzhaf::banzhaf_exact;
pub use config::{exec_config_from_knobs, ExecConfig};
pub use convergence::{ConvergenceTrace, RunningStats, TracePoint};
pub use exact::{shapley_exact, shapley_exact_rational, ExactError, Rational, MAX_EXACT_PLAYERS};
pub use game::{Coalition, FnGame, Game, StochasticGame};
pub use interaction::shapley_interaction_exact;
pub use parallel::{
    available_threads, estimate_all_walk_anytime, resolve_threads, AnytimeCheckpoint,
    AnytimeControl, ParallelConfig, ThreadsError, MAX_THREADS,
};
pub use perm::{shapley_permutation_exact, MAX_PERM_PLAYERS};
pub use sampling::{
    estimate_all, estimate_all_walk, estimate_player, estimate_player_adaptive_rounds, player_seed,
    round_seed, Estimate, SamplingConfig,
};
pub use stratified::{estimate_player_antithetic, estimate_player_stratified};

// Property tests, gated behind the `proptest` feature to keep plain
// `cargo test` fast. They compile against the offline shim in
// `vendor/proptest` (or crates.io proptest — CI's weekly cron runs both):
// `cargo test --workspace --features proptest`.
#[cfg(all(test, feature = "proptest"))]
mod axiom_tests {
    //! Property tests of the Shapley axioms on random games.

    use super::*;
    use proptest::prelude::*;

    /// A random game over `n ≤ 6` players given by its `2^n` coalition
    /// values (v(∅) forced to 0).
    #[derive(Debug, Clone)]
    struct TableGame {
        n: usize,
        values: Vec<f64>,
    }

    impl Game for TableGame {
        fn num_players(&self) -> usize {
            self.n
        }
        fn value(&self, c: &Coalition) -> f64 {
            let mut mask = 0usize;
            for i in c.iter() {
                mask |= 1 << i;
            }
            self.values[mask]
        }
    }

    fn arb_game(max_n: usize) -> impl Strategy<Value = TableGame> {
        (1..=max_n).prop_flat_map(|n| {
            proptest::collection::vec(-10.0f64..10.0, 1 << n).prop_map(move |mut values| {
                values[0] = 0.0;
                TableGame { n, values }
            })
        })
    }

    fn arb_binary_game(max_n: usize) -> impl Strategy<Value = TableGame> {
        (1..=max_n).prop_flat_map(|n| {
            proptest::collection::vec(proptest::bool::ANY, 1 << n).prop_map(move |bits| {
                let mut values: Vec<f64> = bits
                    .into_iter()
                    .map(|b| if b { 1.0 } else { 0.0 })
                    .collect();
                values[0] = 0.0;
                TableGame { n, values }
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Efficiency: Σφ_i = v(N).
        #[test]
        fn efficiency(g in arb_game(6)) {
            let phi = shapley_exact(&g).unwrap();
            let grand = g.value(&Coalition::full(g.n));
            prop_assert!((phi.iter().sum::<f64>() - grand).abs() < 1e-9);
        }

        /// Dummy: a player whose marginal contribution is always 0 gets 0.
        #[test]
        fn dummy_player(g in arb_game(5)) {
            // Force player 0 to be a dummy: v(S ∪ {0}) = v(S).
            let mut g = g;
            let size = g.values.len();
            for mask in 0..size {
                if mask & 1 == 1 {
                    g.values[mask] = g.values[mask & !1];
                }
            }
            let phi = shapley_exact(&g).unwrap();
            prop_assert!(phi[0].abs() < 1e-9, "dummy got {}", phi[0]);
        }

        /// Symmetry: interchangeable players get equal values. We symmetrize
        /// players 0 and 1 by averaging the game over the swap.
        #[test]
        fn symmetry(g in arb_game(5)) {
            if g.n < 2 { return Ok(()); }
            let mut g = g;
            let size = g.values.len();
            let swap01 = |mask: usize| {
                let b0 = mask & 1;
                let b1 = (mask >> 1) & 1;
                (mask & !3) | (b0 << 1) | b1
            };
            let orig = g.values.clone();
            for mask in 0..size {
                g.values[mask] = 0.5 * (orig[mask] + orig[swap01(mask)]);
            }
            let phi = shapley_exact(&g).unwrap();
            prop_assert!((phi[0] - phi[1]).abs() < 1e-9);
        }

        /// Linearity: Shap(v + w) = Shap(v) + Shap(w).
        #[test]
        fn linearity(a in arb_game(5), b in arb_game(5)) {
            if a.n != b.n { return Ok(()); }
            let sum = TableGame {
                n: a.n,
                values: a.values.iter().zip(&b.values).map(|(x, y)| x + y).collect(),
            };
            let pa = shapley_exact(&a).unwrap();
            let pb = shapley_exact(&b).unwrap();
            let ps = shapley_exact(&sum).unwrap();
            for i in 0..a.n {
                prop_assert!((ps[i] - (pa[i] + pb[i])).abs() < 1e-9);
            }
        }

        /// The permutation-enumeration solver agrees with subset enumeration.
        #[test]
        fn perm_matches_subset(g in arb_game(5)) {
            let a = shapley_exact(&g).unwrap();
            let b = shapley_permutation_exact(&g);
            for i in 0..g.n {
                prop_assert!((a[i] - b[i]).abs() < 1e-9);
            }
        }

        /// The rational solver agrees with the float solver on 0/1 games.
        #[test]
        fn rational_matches_float_on_binary(g in arb_binary_game(6)) {
            let f = shapley_exact(&g).unwrap();
            let r = shapley_exact_rational(&g).unwrap();
            for i in 0..g.n {
                prop_assert!((f[i] - r[i].to_f64()).abs() < 1e-9);
            }
        }

        /// For monotone 0/1 games every Shapley value lies in [0, 1].
        #[test]
        fn binary_game_values_bounded(g in arb_binary_game(5)) {
            // Make the game monotone by propagating 1s upward.
            let mut g = g;
            let n = g.n;
            let size = 1usize << n;
            for mask in 0..size {
                for i in 0..n {
                    if mask >> i & 1 == 1 && g.values[mask & !(1 << i)] == 1.0 {
                        g.values[mask] = 1.0;
                    }
                }
            }
            let phi = shapley_exact(&g).unwrap();
            for p in phi {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&p));
            }
        }

        /// The sampling estimator is within a generous tolerance of exact.
        #[test]
        fn sampling_close_to_exact(g in arb_game(5), seed in 0u64..1000) {
            let exact = shapley_exact(&g).unwrap();
            for (p, want) in exact.iter().enumerate().take(2) {
                let est = estimate_player(&g, p, SamplingConfig { samples: 3000, seed });
                let tol = est.ci_half_width(5.0).max(0.3);
                prop_assert!(
                    (est.value - want).abs() <= tol,
                    "player {p}: est {} exact {want} tol {}", est.value, tol
                );
            }
        }
    }
}
