//! Synthetic soccer-standings generator.
//!
//! The demo scrapes league standings from Wikipedia (§4); this generator
//! reproduces that workload shape at arbitrary scale: a world of countries,
//! each with one league and several cities, each city with a few teams;
//! rows are `(Team, City, Country, League, Year, Place)` standings entries.
//! Generated tables satisfy the paper's four constraints by construction
//! (the error injector then dirties them while keeping ground truth).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trex_constraints::DenialConstraint;
use trex_table::{DType, Table, TableBuilder, Value};

/// Configuration of the standings generator.
#[derive(Debug, Clone)]
pub struct SoccerConfig {
    /// Number of countries (each has one league).
    pub countries: usize,
    /// Cities per country.
    pub cities_per_country: usize,
    /// Teams per city.
    pub teams_per_city: usize,
    /// Seasons (years) generated per league.
    pub years: usize,
    /// RNG seed (shuffles which teams appear in which season).
    pub seed: u64,
}

impl Default for SoccerConfig {
    fn default() -> Self {
        SoccerConfig {
            countries: 3,
            cities_per_country: 3,
            teams_per_city: 2,
            years: 2,
            seed: 0,
        }
    }
}

impl SoccerConfig {
    /// Derive the country count that brings the generated table to
    /// ≈ `target_rows` rows with this config's per-country shape
    /// (`cities_per_country × teams_per_city × years` rows per country,
    /// at least one country). Per-country bucket sizes stay constant, so
    /// violation detection scales linearly in the target — the
    /// million-row-friendly counterpart to
    /// [`crate::laliga::generate_standings`].
    pub fn with_target_rows(mut self, target_rows: usize) -> Self {
        let per_country = self.cities_per_country * self.teams_per_city * self.years;
        assert!(per_country > 0, "per-country shape must be non-empty");
        self.countries = (target_rows / per_country).max(1);
        self
    }
}

/// Country names used by the generator, cycled with numeric suffixes when
/// more are requested.
const COUNTRY_POOL: [&str; 8] = [
    "Spain",
    "England",
    "Italy",
    "Germany",
    "France",
    "Portugal",
    "Netherlands",
    "Argentina",
];
const LEAGUE_POOL: [&str; 8] = [
    "La Liga",
    "Premier League",
    "Serie A",
    "Bundesliga",
    "Ligue 1",
    "Primeira Liga",
    "Eredivisie",
    "Primera Division",
];

fn country_name(i: usize) -> String {
    let base = COUNTRY_POOL[i % COUNTRY_POOL.len()];
    if i < COUNTRY_POOL.len() {
        base.to_string()
    } else {
        format!("{base} {}", i / COUNTRY_POOL.len() + 1)
    }
}

fn league_name(i: usize) -> String {
    let base = LEAGUE_POOL[i % LEAGUE_POOL.len()];
    if i < LEAGUE_POOL.len() {
        base.to_string()
    } else {
        format!("{base} {}", i / LEAGUE_POOL.len() + 1)
    }
}

/// Generate a clean standings table.
///
/// Every (league, year) season lists all of the country's teams with
/// distinct places 1..n in a seed-shuffled order, so C4 ("no two teams of a
/// league share a place in a year") holds; `Team → City`, `City → Country`,
/// and `League → Country` hold by construction.
pub fn generate_clean(config: &SoccerConfig) -> Table {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = TableBuilder::new()
        .column("Team", DType::Str)
        .column("City", DType::Str)
        .column("Country", DType::Str)
        .column("League", DType::Str)
        .column("Year", DType::Int)
        .column("Place", DType::Int);

    for c in 0..config.countries {
        let country = country_name(c);
        let league = league_name(c);
        // The country's teams with their home cities.
        let mut teams: Vec<(String, String)> = Vec::new();
        for ci in 0..config.cities_per_country {
            let city = format!("{country} City {}", ci + 1);
            for t in 0..config.teams_per_city {
                teams.push((format!("{city} FC {}", t + 1), city.clone()));
            }
        }
        for y in 0..config.years {
            let year = 2000 + y as i64;
            // Shuffle standings for this season.
            let mut order: Vec<usize> = (0..teams.len()).collect();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for (place, &ti) in order.iter().enumerate() {
                let (team, city) = &teams[ti];
                b = b.row([
                    Value::str(team.clone()),
                    Value::str(city.clone()),
                    Value::str(country.clone()),
                    Value::str(league.clone()),
                    Value::int(year),
                    Value::int(place as i64 + 1),
                ]);
            }
        }
    }
    b.build()
}

/// The paper's four constraints (same shapes as Figure 1), which generated
/// tables satisfy by construction.
pub fn soccer_constraints() -> Vec<DenialConstraint> {
    crate::laliga::constraints()
}

/// Algorithm 1 adapted to multi-country tables.
///
/// The paper's literal step 3 repairs a C3 violation with the *globally*
/// most common country — fine for its single-country-dominated example
/// table, catastrophic on a balanced multi-league table (a single error
/// would drag a whole league to another country's name). The natural
/// generalization conditions each fix on the violated constraint's join
/// attribute:
///
/// 1. C1 ⇒ `City ← argmax P[City | Team]`
/// 2. C2 ⇒ `Country ← argmax P[Country | City]`
/// 3. C3 ⇒ `Country ← argmax P[Country | League]`
/// 4. C4 ⇒ `Place ← argmax P[Place | Team]`
pub fn soccer_algorithm1() -> trex_repair::RuleRepair {
    use trex_repair::{FixAction, Rule, RuleRepair};
    RuleRepair::new(vec![
        Rule::new(
            "C1",
            FixAction::MostCommonGiven {
                attr: "City".to_string(),
                given: "Team".to_string(),
            },
        ),
        Rule::new(
            "C2",
            FixAction::MostCommonGiven {
                attr: "Country".to_string(),
                given: "City".to_string(),
            },
        ),
        Rule::new(
            "C3",
            FixAction::MostCommonGiven {
                attr: "Country".to_string(),
                given: "League".to_string(),
            },
        ),
        Rule::new(
            "C4",
            FixAction::MostCommonGiven {
                attr: "Place".to_string(),
                given: "Team".to_string(),
            },
        ),
    ])
    .with_name("algorithm1-conditioned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_constraints::find_all_violations_par;

    #[test]
    fn generated_table_has_expected_shape() {
        let cfg = SoccerConfig::default();
        let t = generate_clean(&cfg);
        let rows = cfg.countries * cfg.cities_per_country * cfg.teams_per_city * cfg.years;
        assert_eq!(t.num_rows(), rows);
        assert_eq!(t.arity(), 6);
    }

    #[test]
    fn generated_table_satisfies_all_constraints() {
        let t = generate_clean(&SoccerConfig {
            countries: 4,
            cities_per_country: 3,
            teams_per_city: 2,
            years: 3,
            seed: 9,
        });
        let dcs: Vec<DenialConstraint> = soccer_constraints()
            .iter()
            .map(|d| d.resolved(t.schema()).unwrap())
            .collect();
        assert!(find_all_violations_par(&dcs, &t, 1).is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SoccerConfig {
            seed: 42,
            ..Default::default()
        };
        assert_eq!(generate_clean(&cfg), generate_clean(&cfg));
        let other = generate_clean(&SoccerConfig {
            seed: 43,
            ..Default::default()
        });
        assert_ne!(generate_clean(&cfg), other);
    }

    #[test]
    fn many_countries_get_distinct_names() {
        let t = generate_clean(&SoccerConfig {
            countries: 10,
            cities_per_country: 1,
            teams_per_city: 1,
            years: 1,
            seed: 0,
        });
        let country = t.schema().id("Country");
        let mut names: Vec<String> = (0..t.num_rows())
            .map(|r| t.value(r, country).as_str().unwrap().to_string())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn conditioned_algorithm_repairs_an_injected_country_error() {
        use trex_repair::RepairAlgorithm;
        let clean = generate_clean(&SoccerConfig {
            countries: 3,
            cities_per_country: 3,
            teams_per_city: 2,
            years: 1,
            seed: 31,
        });
        let injected = crate::errors::inject_errors(
            &clean,
            &crate::errors::ErrorConfig {
                rate: 0.02,
                kind_weights: [0, 0, 1, 0, 0],
                columns: vec!["Country".to_string()],
                seed: 77,
                ..Default::default()
            },
        );
        let r = soccer_algorithm1().repair(&soccer_constraints(), &injected.dirty);
        assert_eq!(r.clean, clean, "exactly the injected error is undone");
    }

    #[test]
    fn places_within_a_season_are_distinct() {
        let t = generate_clean(&SoccerConfig::default());
        let league = t.schema().id("League");
        let year = t.schema().id("Year");
        let place = t.schema().id("Place");
        for i in 0..t.num_rows() {
            for j in (i + 1)..t.num_rows() {
                if t.value(i, league) == t.value(j, league) && t.value(i, year) == t.value(j, year)
                {
                    assert_ne!(t.value(i, place), t.value(j, place));
                }
            }
        }
    }
}
