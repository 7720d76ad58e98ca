//! The Banzhaf power index — an alternative attribution measure.
//!
//! The Banzhaf value of player `i` is the *unweighted* average marginal
//! contribution over all coalitions of the other players:
//!
//! ```text
//! Bz(i) = 1/2^(n-1) · Σ_{S ⊆ N\{i}} ( v(S ∪ {i}) − v(S) )
//! ```
//!
//! versus Shapley's size-weighted average. Banzhaf drops the efficiency
//! axiom (values need not sum to `v(N)`) but keeps dummy and symmetry, and
//! is a standard comparison point for attribution methods. T-REx uses
//! Shapley; this module answers "would a cheaper index give the same
//! ranking?" on the constraint game (the `exp_interaction` experiment),
//! which is exactly the kind of question a user of the explanations would
//! ask.

use crate::exact::{ExactError, MAX_EXACT_PLAYERS};
use crate::game::{Coalition, Game};

/// Exact Banzhaf values of every player by subset enumeration (`Θ(2^n)`).
pub fn banzhaf_exact<G: Game + ?Sized>(game: &G) -> Result<Vec<f64>, ExactError> {
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
    let mut values = vec![0.0f64; size];
    for (mask, slot) in values.iter_mut().enumerate() {
        *slot = game.value(&Coalition::from_mask(n, mask as u64));
    }
    let denom = (1u64 << (n - 1)) as f64;
    let mut bz = vec![0.0f64; n];
    for mask in 0..size {
        for (i, bz_i) in bz.iter_mut().enumerate() {
            if mask >> i & 1 == 1 {
                continue;
            }
            *bz_i += (values[mask | (1 << i)] - values[mask]) / denom;
        }
    }
    Ok(bz)
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
    fn additive_games_return_weights() {
        // For additive games Banzhaf = Shapley = the weights.
        let w = vec![1.0, -0.5, 2.0];
        let g = fixtures::additive(w.clone());
        assert_close(&banzhaf_exact(&g).unwrap(), &w);
    }

    #[test]
    fn unanimity_banzhaf_differs_from_shapley() {
        // Unanimity on {0,1} over 3 players: Shapley gives 1/2 each to the
        // carrier; Banzhaf gives 1/2 each too... carrier of size 2 out of
        // n=3: Bz(0) = #{S ⊆ {1,2}\... : 1 ∈ S}/4 = 2/4 = 1/2. Same here.
        // Use majority(3): Shapley = 1/3 each; Banzhaf = probability of
        // being pivotal = (coalitions of other 2 with exactly 1 member)/4
        // = 2/4 = 1/2 ≠ 1/3.
        let g = fixtures::majority(3);
        let bz = banzhaf_exact(&g).unwrap();
        assert_close(&bz, &[0.5, 0.5, 0.5]);
        let sh = crate::exact::shapley_exact(&g).unwrap();
        assert!((sh[0] - 1.0 / 3.0).abs() < 1e-12);
        // Banzhaf is not efficient: values sum to 1.5 ≠ v(N) = 1.
        assert!((bz.iter().sum::<f64>() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn dummy_player_gets_zero() {
        let g = fixtures::paper_example_2_3();
        let bz = banzhaf_exact(&g).unwrap();
        assert_eq!(bz[3], 0.0);
        // And the paper game's Banzhaf ranking matches Shapley's ordering:
        // C3 ≻ C1 = C2 ≻ C4.
        assert!(bz[2] > bz[0]);
        assert!((bz[0] - bz[1]).abs() < 1e-12);
    }

    #[test]
    fn paper_game_banzhaf_values() {
        // v(S) = 1 iff 2 ∈ S or {0,1} ⊆ S, n = 4.
        // Bz(2): marginal is 1 iff S (⊆ {0,1,3}) doesn't contain {0,1}:
        // 8 - 2 = 6 of 8 → 3/4.
        // Bz(0): pivotal iff 1 ∈ S, 2 ∉ S: 2 of 8 → 1/4.
        let g = fixtures::paper_example_2_3();
        let bz = banzhaf_exact(&g).unwrap();
        assert_close(&bz, &[0.25, 0.25, 0.75, 0.0]);
    }

    #[test]
    fn empty_game() {
        let g = crate::game::FnGame::new(0, |_: &Coalition| 0.0);
        assert!(banzhaf_exact(&g).unwrap().is_empty());
    }

    #[test]
    fn too_many_players_rejected() {
        let g = crate::game::FnGame::new(30, |_: &Coalition| 0.0);
        assert!(banzhaf_exact(&g).is_err());
    }
}
