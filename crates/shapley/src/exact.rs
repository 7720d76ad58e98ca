//! Exact Shapley values by subset enumeration.
//!
//! Directly implements the definition of §2.2:
//!
//! ```text
//! Shap(N, v, a) = Σ_{S ⊆ N\{a}}  |S|!(|N|−|S|−1)!/|N|!  ·  (v(S∪{a}) − v(S))
//! ```
//!
//! Cost is `Θ(2^n)` characteristic-function evaluations (each coalition is
//! evaluated once and its value reused for all `n` players), so this is the
//! solver T-REx uses for **constraints** — "the naïve approach is feasible
//! as the number of DCs is usually small" (§1) — and it is capped at
//! [`MAX_EXACT_PLAYERS`] players.
//!
//! For 0/1-valued games (every T-REx game is one: `Alg|t[A] ∈ {0,1}`) the
//! module also offers an exact *rational* mode that returns Shapley values
//! as `num/denom` pairs over `i128`, so the paper's hand-computed fractions
//! (`1/6, 1/6, 2/3, 0` in Example 2.3) can be asserted without floating-
//! point tolerance.

use crate::game::{Coalition, Game};
use std::fmt;

/// Enumeration limit: `2^24` coalition evaluations is the most we are
/// willing to do exactly.
pub const MAX_EXACT_PLAYERS: usize = 24;

/// Error from the exact solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactError {
    /// The game has more players than [`MAX_EXACT_PLAYERS`].
    TooManyPlayers {
        /// Players in the game.
        n: usize,
        /// The limit.
        limit: usize,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::TooManyPlayers { n, limit } => {
                write!(
                    f,
                    "exact Shapley over {n} players exceeds the {limit}-player enumeration limit"
                )
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// Factorials `0! … n!` as `f64` (exact up to `22!`, far beyond our player
/// cap for the weight ratio's precision needs).
fn factorials(n: usize) -> Vec<f64> {
    let mut f = vec![1.0f64; n + 1];
    for i in 1..=n {
        f[i] = f[i - 1] * i as f64;
    }
    f
}

/// Evaluate `v` over every mask in `0..size`, one [`Game::value`] call
/// per mask, in mask order.
fn values_by_mask<G: Game + ?Sized>(game: &G, n: usize, size: usize) -> Vec<f64> {
    (0..size)
        .map(|mask| game.value(&Coalition::from_mask(n, mask as u64)))
        .collect()
}

/// Exact Shapley values of every player, by full subset enumeration.
///
/// Evaluates `v` on all `2^n` coalitions exactly once. Returns the values in
/// player order.
pub fn shapley_exact<G: Game + ?Sized>(game: &G) -> Result<Vec<f64>, ExactError> {
    let n = game.num_players();
    if n > MAX_EXACT_PLAYERS {
        return Err(ExactError::TooManyPlayers {
            n,
            limit: MAX_EXACT_PLAYERS,
        });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let size = 1usize << n;
    // v over all coalitions, indexed by bitmask.
    let values = values_by_mask(game, n, size);
    let fact = factorials(n);
    let mut phi = vec![0.0f64; n];
    for mask in 0..size {
        let s = (mask as u64).count_ones() as usize;
        for (i, phi_i) in phi.iter_mut().enumerate() {
            if mask >> i & 1 == 1 {
                continue; // S must exclude the player
            }
            let weight = fact[s] * fact[n - s - 1] / fact[n];
            let with = values[mask | (1 << i)];
            let without = values[mask];
            *phi_i += weight * (with - without);
        }
    }
    Ok(phi)
}

/// An exact rational `num/denom` (not necessarily reduced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rational {
    /// Numerator.
    pub num: i128,
    /// Denominator (always positive).
    pub den: i128,
}

impl Rational {
    /// Reduce to lowest terms.
    pub fn reduced(self) -> Rational {
        fn gcd(a: i128, b: i128) -> i128 {
            if b == 0 {
                a.abs()
            } else {
                gcd(b, a % b)
            }
        }
        let g = gcd(self.num, self.den).max(1);
        Rational {
            num: self.num / g,
            den: self.den / g,
        }
    }

    /// Convert to `f64`.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.reduced();
        if r.den == 1 {
            write!(f, "{}", r.num)
        } else {
            write!(f, "{}/{}", r.num, r.den)
        }
    }
}

/// Exact Shapley values of a **0/1 game** as rationals with denominator
/// `n!`.
///
/// The game's `value` must return exactly `0.0` or `1.0` on every coalition;
/// anything else is reported as an error string in the `Err` channel of the
/// inner result. Player cap `n ≤ 20` keeps `n! · 2^n` within `i128`.
pub fn shapley_exact_rational<G: Game + ?Sized>(game: &G) -> Result<Vec<Rational>, ExactError> {
    let n = game.num_players();
    if n > 20 {
        return Err(ExactError::TooManyPlayers { n, limit: 20 });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let size = 1usize << n;
    let values: Vec<bool> = values_by_mask(game, n, size)
        .into_iter()
        .map(|v| {
            assert!(
                v == 0.0 || v == 1.0,
                "shapley_exact_rational requires a 0/1 game, got v = {v}"
            );
            v == 1.0
        })
        .collect();
    let mut fact = vec![1i128; n + 1];
    for i in 1..=n {
        fact[i] = fact[i - 1] * i as i128;
    }
    let mut num = vec![0i128; n];
    for mask in 0..size {
        let s = (mask as u64).count_ones() as usize;
        for (i, num_i) in num.iter_mut().enumerate() {
            if mask >> i & 1 == 1 {
                continue;
            }
            let with = values[mask | (1 << i)] as i128;
            let without = values[mask] as i128;
            *num_i += fact[s] * fact[n - s - 1] * (with - without);
        }
    }
    Ok(num
        .into_iter()
        .map(|numerator| {
            Rational {
                num: numerator,
                den: fact[n],
            }
            .reduced()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::fixtures;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn unanimity_game_splits_evenly_over_carrier() {
        let g = fixtures::unanimity(5, vec![1, 3]);
        let phi = shapley_exact(&g).unwrap();
        assert_close(&phi, &[0.0, 0.5, 0.0, 0.5, 0.0]);
    }

    #[test]
    fn additive_game_returns_weights() {
        let w = vec![0.5, -1.0, 2.25, 0.0];
        let g = fixtures::additive(w.clone());
        assert_close(&shapley_exact(&g).unwrap(), &w);
    }

    #[test]
    fn majority_game_is_symmetric() {
        let g = fixtures::majority(5);
        let phi = shapley_exact(&g).unwrap();
        assert_close(&phi, &[0.2; 5]);
    }

    #[test]
    fn gloves_market_values() {
        // 1 left glove, 2 right gloves: the left holder gets 2/3.
        let g = fixtures::gloves(1, 2);
        let phi = shapley_exact(&g).unwrap();
        assert_close(&phi, &[2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0]);
    }

    #[test]
    fn paper_example_2_3_values() {
        let g = fixtures::paper_example_2_3();
        let phi = shapley_exact(&g).unwrap();
        assert_close(&phi, &[1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0, 0.0]);
    }

    #[test]
    fn paper_example_2_3_rational() {
        let g = fixtures::paper_example_2_3();
        let phi = shapley_exact_rational(&g).unwrap();
        assert_eq!(phi[0], Rational { num: 1, den: 6 });
        assert_eq!(phi[1], Rational { num: 1, den: 6 });
        assert_eq!(phi[2], Rational { num: 2, den: 3 });
        assert_eq!(phi[3], Rational { num: 0, den: 1 });
        assert_eq!(phi[2].to_string(), "2/3");
    }

    #[test]
    fn efficiency_on_fixtures() {
        let g = fixtures::gloves(2, 3);
        let phi = shapley_exact(&g).unwrap();
        let total: f64 = phi.iter().sum();
        let grand = g.value(&Coalition::full(5));
        assert!((total - grand).abs() < 1e-12);
    }

    #[test]
    fn zero_players_is_empty() {
        let g = crate::game::FnGame::new(0, |_: &Coalition| 0.0);
        assert!(shapley_exact(&g).unwrap().is_empty());
        assert!(shapley_exact_rational(&g).unwrap().is_empty());
    }

    #[test]
    fn too_many_players_errors() {
        let g = crate::game::FnGame::new(30, |_: &Coalition| 0.0);
        assert!(matches!(
            shapley_exact(&g),
            Err(ExactError::TooManyPlayers { n: 30, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "0/1 game")]
    fn rational_rejects_non_binary_games() {
        let g = fixtures::additive(vec![0.5, 0.5]);
        let _ = shapley_exact_rational(&g);
    }

    #[test]
    fn rational_matches_float() {
        let g = fixtures::unanimity(6, vec![0, 2, 4]);
        let f = shapley_exact(&g).unwrap();
        let r = shapley_exact_rational(&g).unwrap();
        for (x, y) in f.iter().zip(r) {
            assert!((x - y.to_f64()).abs() < 1e-12);
        }
    }

    #[test]
    fn rational_display_reduces() {
        assert_eq!(Rational { num: 4, den: 24 }.to_string(), "1/6");
        assert_eq!(Rational { num: 0, den: 24 }.to_string(), "0");
        assert_eq!(Rational { num: 24, den: 24 }.to_string(), "1");
    }
}
