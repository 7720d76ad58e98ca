//! # trex-bench
//!
//! Shared fixtures for the benchmark suite and the experiment harness
//! binaries (`src/bin/exp_*.rs`). Each experiment in DESIGN.md §5 maps to
//! one bench target or binary here; EXPERIMENTS.md records the outputs.

use trex_constraints::DenialConstraint;
use trex_datagen::{errors, soccer};
use trex_table::Table;

/// Reject an experiment binary's command line: print `message` and the
/// binary's `usage` to stderr, then exit with status 2. An unknown flag or
/// a malformed value is a usage error, not a panic with a backtrace.
pub fn usage_error(usage: &str, message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}\n\n{usage}");
    std::process::exit(2)
}

/// Parse `value` as the value of `flag`, or exit through [`usage_error`].
pub fn parse_flag<T>(usage: &str, flag: &str, value: &str) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .unwrap_or_else(|e| usage_error(usage, format!("{flag}: cannot parse {value:?} ({e})")))
}

/// A standings workload of roughly `rows` rows with `dirt` fraction of
/// Country cells corrupted out-of-domain — the canonical benchmark input.
pub fn standings_workload(rows: usize, dirt: f64, seed: u64) -> (Table, Vec<DenialConstraint>) {
    // rows = countries × cities × teams × years; scale countries.
    let per_country = 3 * 2 * 2; // cities × teams × years
    let countries = (rows / per_country).max(1);
    let clean = soccer::generate_clean(&soccer::SoccerConfig {
        countries,
        cities_per_country: 3,
        teams_per_city: 2,
        years: 2,
        seed,
    });
    let injected = errors::inject_errors(
        &clean,
        &errors::ErrorConfig {
            rate: dirt,
            kind_weights: [0, 0, 1, 0, 0],
            columns: vec!["Country".to_string()],
            seed: seed.wrapping_add(1),
            ..Default::default()
        },
    );
    (injected.dirty, soccer::soccer_constraints())
}

/// A random monotone binary (0/1) game over `n` players, defined by `k`
/// random minimal winning coalitions — the shape T-REx constraint games
/// take. Used by the Shapley scaling benchmarks.
pub struct RandomBinaryGame {
    /// Player count.
    pub n: usize,
    minimal_winning: Vec<u64>,
}

impl RandomBinaryGame {
    /// Build with `k` random minimal winning coalitions (deterministic per
    /// seed). The grand coalition always wins.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        assert!((1..=60).contains(&n));
        let mut rng = StdRng::seed_from_u64(seed);
        let minimal_winning = (0..k.max(1))
            .map(|_| {
                let size = rng.gen_range(1..=(n / 2 + 1));
                let mut mask = 0u64;
                while (mask.count_ones() as usize) < size {
                    mask |= 1 << rng.gen_range(0..n);
                }
                mask
            })
            .collect();
        RandomBinaryGame { n, minimal_winning }
    }
}

impl trex_shapley::Game for RandomBinaryGame {
    fn num_players(&self) -> usize {
        self.n
    }

    fn value(&self, coalition: &trex_shapley::Coalition) -> f64 {
        // n ≤ 60 (asserted in `new`), so the whole membership is word 0.
        let mask = coalition.words()[0];
        if self.minimal_winning.iter().any(|w| mask & w == *w) {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_shapley::{shapley_exact, Coalition, Game};

    #[test]
    fn workload_scales_with_rows() {
        let (t, dcs) = standings_workload(48, 0.02, 1);
        assert!(t.num_rows() >= 48);
        assert_eq!(dcs.len(), 4);
    }

    #[test]
    fn random_game_is_binary_and_efficient() {
        let g = RandomBinaryGame::new(8, 3, 42);
        assert!(g.value(&Coalition::full(8)) == 1.0);
        let phi = shapley_exact(&g).unwrap();
        let grand = g.value(&Coalition::full(8)) - g.value(&Coalition::empty(8));
        assert!((phi.iter().sum::<f64>() - grand).abs() < 1e-9);
    }
}
