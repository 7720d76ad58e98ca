//! A census-shaped second domain.
//!
//! HoloClean's own evaluation uses census-style datasets (Adult/Hospital);
//! to show the explanation pipeline generalizes beyond the soccer domain we
//! generate a census-like table `(Education, EducationYears, MaritalStatus,
//! Relationship, AgeBand, Country)` whose columns are linked by functional
//! dependencies and realistic correlations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trex_constraints::{parse_dcs, DenialConstraint};
use trex_table::{DType, Table, TableBuilder, Value};

/// Configuration for the census generator.
#[derive(Debug, Clone)]
pub struct CensusConfig {
    /// Number of rows.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        CensusConfig { rows: 100, seed: 0 }
    }
}

/// `(Education, EducationYears)` pairs — the FD `Education →
/// EducationYears` holds by construction.
const EDUCATION: [(&str, i64); 6] = [
    ("HS-grad", 9),
    ("Some-college", 10),
    ("Bachelors", 13),
    ("Masters", 14),
    ("Doctorate", 16),
    ("11th", 7),
];

/// `(MaritalStatus, Relationship)` pairs — `MaritalStatus → Relationship`
/// in this simplified world.
const MARITAL: [(&str, &str); 4] = [
    ("Married", "Husband"),
    ("Never-married", "Not-in-family"),
    ("Divorced", "Unmarried"),
    ("Widowed", "Unmarried"),
];

const AGE_BANDS: [&str; 4] = ["18-30", "31-45", "46-60", "61+"];
const COUNTRIES: [&str; 4] = ["United-States", "Mexico", "Germany", "India"];

/// Generate a clean census-like table.
pub fn generate_census(config: &CensusConfig) -> Table {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = TableBuilder::new()
        .column("Education", DType::Str)
        .column("EducationYears", DType::Int)
        .column("MaritalStatus", DType::Str)
        .column("Relationship", DType::Str)
        .column("AgeBand", DType::Str)
        .column("Country", DType::Str);
    for _ in 0..config.rows {
        let (edu, years) = EDUCATION[rng.gen_range(0..EDUCATION.len())];
        let (marital, rel) = MARITAL[rng.gen_range(0..MARITAL.len())];
        // Age correlates with education (doctorates skew older).
        let age_idx = match edu {
            "Doctorate" | "Masters" => rng.gen_range(1..AGE_BANDS.len()),
            "11th" => rng.gen_range(0..2),
            _ => rng.gen_range(0..AGE_BANDS.len()),
        };
        let country = COUNTRIES[rng.gen_range(0..COUNTRIES.len())];
        b = b.row([
            Value::str(edu),
            Value::int(years),
            Value::str(marital),
            Value::str(rel),
            Value::str(AGE_BANDS[age_idx]),
            Value::str(country),
        ]);
    }
    b.build()
}

/// The census constraints: two FDs plus a sanity range rule.
///
/// * D1: `Education → EducationYears`
/// * D2: `MaritalStatus → Relationship`
/// * D3: education years are positive (unary)
pub fn census_constraints() -> Vec<DenialConstraint> {
    parse_dcs(
        "D1: !(t1.Education = t2.Education & t1.EducationYears != t2.EducationYears)\n\
         D2: !(t1.MaritalStatus = t2.MaritalStatus & t1.Relationship != t2.Relationship)\n\
         D3: !(t1.EducationYears < 1)\n",
    )
    .expect("census constraints parse")
}

/// Algorithm 1 for the census domain, conditioned like
/// [`crate::soccer::soccer_algorithm1`]:
///
/// 1. D1 ⇒ `EducationYears ← argmax P[EducationYears | Education]`
/// 2. D2 ⇒ `Relationship ← argmax P[Relationship | MaritalStatus]`
/// 3. D3 ⇒ `EducationYears ← argmax P[EducationYears | Education]`
pub fn census_algorithm1() -> trex_repair::RuleRepair {
    use trex_repair::{FixAction, Rule, RuleRepair};
    RuleRepair::new(vec![
        Rule::new(
            "D1",
            FixAction::MostCommonGiven {
                attr: "EducationYears".to_string(),
                given: "Education".to_string(),
            },
        ),
        Rule::new(
            "D2",
            FixAction::MostCommonGiven {
                attr: "Relationship".to_string(),
                given: "MaritalStatus".to_string(),
            },
        ),
        Rule::new(
            "D3",
            FixAction::MostCommonGiven {
                attr: "EducationYears".to_string(),
                given: "Education".to_string(),
            },
        ),
    ])
    .with_name("census-algorithm1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_constraints::find_all_violations_par;

    #[test]
    fn generated_census_is_clean() {
        let t = generate_census(&CensusConfig { rows: 200, seed: 4 });
        assert_eq!(t.num_rows(), 200);
        let dcs: Vec<DenialConstraint> = census_constraints()
            .iter()
            .map(|d| d.resolved(t.schema()).unwrap())
            .collect();
        assert!(find_all_violations_par(&dcs, &t, 1).is_empty());
    }

    #[test]
    fn fds_hold_by_construction() {
        let t = generate_census(&CensusConfig::default());
        use trex_constraints::FunctionalDependency;
        assert!(FunctionalDependency::new(["Education"], "EducationYears").holds(&t));
        assert!(FunctionalDependency::new(["MaritalStatus"], "Relationship").holds(&t));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = CensusConfig { rows: 50, seed: 8 };
        assert_eq!(generate_census(&cfg), generate_census(&cfg));
    }

    #[test]
    fn values_come_from_the_declared_domains() {
        let t = generate_census(&CensusConfig::default());
        let edu = t.schema().id("Education");
        for r in 0..t.num_rows() {
            let v = t.value(r, edu).as_str().unwrap().to_string();
            assert!(EDUCATION.iter().any(|(e, _)| *e == v), "{v}");
        }
    }
}
