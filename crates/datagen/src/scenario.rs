//! The unified scenario corpus: one config, four schemas, ground truth.
//!
//! Every generator in this crate (the paper's [`crate::laliga`] world, the
//! multi-league [`crate::soccer`] scraper shape, the census
//! [`crate::adult`] domain, and the Zipf-skewed [`crate::sensor`]
//! telemetry) is parameterized here behind one [`ScenarioConfig`]: a
//! schema, a target row count, a seed, and the error model. One call to
//! [`generate`] yields the clean table, the dirtied table with its
//! ground-truth diff, the schema's denial constraints, and the
//! schema-matched Algorithm 1 — everything `exp_stress`, the CLI `datagen`
//! subcommand, and the corpus determinism tests need.
//!
//! Scaling characters differ by schema and are intentional (the composite
//! equality-bucket sizes drive violation-scan cost):
//!
//! * `soccer` and `sensor` scale to millions of rows (bounded or
//!   Zipf-tailed buckets);
//! * `laliga` keeps the paper's single league, so its C3 bucket is the
//!   whole table (quadratic scan — a worst-case stress shape, keep row
//!   counts modest);
//! * `adult` has only six `Education` values, so D1's buckets are
//!   `rows / 6` (quadratic beyond ~50k rows).

use std::fmt;
use std::str::FromStr;

use crate::errors::{inject_errors, ErrorConfig, InjectionResult};
use crate::sensor::SensorConfig;
use crate::soccer::SoccerConfig;
use crate::{adult, laliga, sensor, soccer};
use trex_constraints::DenialConstraint;
use trex_repair::RuleRepair;
use trex_table::Table;

/// The four corpus schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaKind {
    /// The paper's single-league standings world at scale
    /// ([`laliga::generate_standings`]).
    Laliga,
    /// Multi-league standings ([`soccer::generate_clean`]).
    Soccer,
    /// Census rows ([`adult::generate_census`]).
    Adult,
    /// Zipf-skewed sensor readings ([`sensor::generate_readings`]).
    Sensor,
}

impl SchemaKind {
    /// All schemas, in a stable order.
    pub const ALL: [SchemaKind; 4] = [
        SchemaKind::Laliga,
        SchemaKind::Soccer,
        SchemaKind::Adult,
        SchemaKind::Sensor,
    ];

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            SchemaKind::Laliga => "laliga",
            SchemaKind::Soccer => "soccer",
            SchemaKind::Adult => "adult",
            SchemaKind::Sensor => "sensor",
        }
    }
}

impl fmt::Display for SchemaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchemaKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchemaKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown schema {s:?} (known: laliga, soccer, adult, sensor)"))
    }
}

/// Per-schema shape knobs of the [`SchemaKind::Soccer`] generator (the
/// country count is derived from the scenario's row target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoccerKnobs {
    /// Cities per country.
    pub cities_per_country: usize,
    /// Teams per city.
    pub teams_per_city: usize,
    /// Seasons per league.
    pub years: usize,
}

impl Default for SoccerKnobs {
    fn default() -> Self {
        SoccerKnobs {
            cities_per_country: 3,
            teams_per_city: 2,
            years: 2,
        }
    }
}

/// Per-schema shape knobs of the [`SchemaKind::Sensor`] generator (the
/// sensor count is derived from the scenario's row target).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorKnobs {
    /// Average rows per sensor: `sensors = rows / rows_per_sensor`
    /// (at least one).
    pub rows_per_sensor: usize,
    /// Number of distinct sites.
    pub sites: usize,
    /// Zipf exponent of the per-row sensor draw; the knob that grows one
    /// giant equality bucket.
    pub skew: f64,
}

impl Default for SensorKnobs {
    fn default() -> Self {
        SensorKnobs {
            rows_per_sensor: 5,
            sites: 10,
            skew: 1.0,
        }
    }
}

/// The unified scenario configuration: `(schema, rows, seed, error model,
/// per-schema knobs)` pins a corpus member byte-for-byte.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Which schema to generate.
    pub schema: SchemaKind,
    /// Target row count. Structured generators round to a whole unit
    /// (season, country); read the actual count off the generated table.
    pub rows: usize,
    /// Seed for both the clean generator and the error injector.
    pub seed: u64,
    /// The error model ([`ErrorConfig::seed`] is overridden by
    /// [`ScenarioConfig::seed`] so one seed pins the whole scenario).
    pub error: ErrorConfig,
    /// Soccer/laliga shape knobs.
    pub soccer: SoccerKnobs,
    /// Sensor shape knobs.
    pub sensor: SensorKnobs,
}

impl ScenarioConfig {
    /// A scenario with default knobs and the default error model.
    pub fn new(schema: SchemaKind, rows: usize, seed: u64) -> Self {
        ScenarioConfig {
            schema,
            rows,
            seed,
            error: ErrorConfig::default(),
            soccer: SoccerKnobs::default(),
            sensor: SensorKnobs::default(),
        }
    }
}

/// A generated corpus member: everything the end-to-end pipeline needs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The clean table (ground truth target).
    pub clean: Table,
    /// The injected-error result: dirty table + ground-truth diff.
    pub injection: InjectionResult,
    /// The schema's denial constraints (unresolved, as the session APIs
    /// expect).
    pub constraints: Vec<DenialConstraint>,
    /// The schema-matched Algorithm 1.
    pub repairer: RuleRepair,
}

impl Scenario {
    /// The dirty table (shorthand for `injection.dirty`).
    pub fn dirty(&self) -> &Table {
        &self.injection.dirty
    }

    /// An FNV-1a fingerprint over the clean CSV bytes, the dirty CSV
    /// bytes, and the rendered ground-truth diff — the byte-identity
    /// invariant the corpus determinism tests pin across runs, processes,
    /// and `TREX_TEST_THREADS` values.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix_bytes = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix_bytes(trex_table::write_csv(&self.clean).as_bytes());
        mix_bytes(trex_table::write_csv(&self.injection.dirty).as_bytes());
        for ch in &self.injection.truth {
            mix_bytes(format!("{} {} {}\n", ch.cell, ch.from, ch.to).as_bytes());
        }
        h
    }
}

/// Generate one corpus member from its config. Deterministic: the same
/// `(seed, ScenarioConfig)` yields a byte-identical [`Scenario`].
pub fn generate(config: &ScenarioConfig) -> Scenario {
    let (clean, constraints, repairer) = match config.schema {
        SchemaKind::Laliga => (
            laliga::generate_standings(config.rows, config.seed),
            laliga::constraints(),
            soccer::soccer_algorithm1(),
        ),
        SchemaKind::Soccer => {
            let soccer_cfg = SoccerConfig {
                countries: 1, // overridden by the row target below
                cities_per_country: config.soccer.cities_per_country,
                teams_per_city: config.soccer.teams_per_city,
                years: config.soccer.years,
                seed: config.seed,
            }
            .with_target_rows(config.rows);
            (
                soccer::generate_clean(&soccer_cfg),
                soccer::soccer_constraints(),
                soccer::soccer_algorithm1(),
            )
        }
        SchemaKind::Adult => (
            adult::generate_census(&adult::CensusConfig {
                rows: config.rows,
                seed: config.seed,
            }),
            adult::census_constraints(),
            adult::census_algorithm1(),
        ),
        SchemaKind::Sensor => (
            sensor::generate_readings(&SensorConfig {
                rows: config.rows,
                sensors: (config.rows / config.sensor.rows_per_sensor.max(1)).max(1),
                sites: config.sensor.sites,
                skew: config.sensor.skew,
                seed: config.seed,
            }),
            sensor::sensor_constraints(),
            sensor::sensor_algorithm1(),
        ),
    };
    let error = ErrorConfig {
        seed: config.seed,
        ..config.error.clone()
    };
    let injection = inject_errors(&clean, &error);
    Scenario {
        clean,
        injection,
        constraints,
        repairer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_constraints::find_all_violations_par;
    use trex_repair::RepairAlgorithm;

    fn cfg(schema: SchemaKind) -> ScenarioConfig {
        let mut c = ScenarioConfig::new(schema, 600, 42);
        c.error.rate = 0.01;
        c
    }

    #[test]
    fn every_schema_generates_a_clean_table_and_a_real_diff() {
        for schema in SchemaKind::ALL {
            let s = generate(&cfg(schema));
            assert!(s.clean.num_rows() >= 500, "{schema}: too few rows");
            let resolved: Vec<DenialConstraint> = s
                .constraints
                .iter()
                .map(|d| d.resolved(s.clean.schema()).unwrap())
                .collect();
            assert!(
                find_all_violations_par(&resolved, &s.clean, 2).is_empty(),
                "{schema}: clean table is dirty"
            );
            assert!(
                !s.injection.truth.is_empty(),
                "{schema}: no errors injected"
            );
            assert_eq!(
                trex_table::apply(s.dirty(), &s.injection.truth),
                s.clean,
                "{schema}: truth diff must restore the clean table"
            );
        }
    }

    #[test]
    fn same_config_is_byte_identical() {
        for schema in SchemaKind::ALL {
            let a = generate(&cfg(schema));
            let b = generate(&cfg(schema));
            assert_eq!(a.clean, b.clean, "{schema}");
            assert_eq!(a.injection, b.injection, "{schema}");
            assert_eq!(a.fingerprint(), b.fingerprint(), "{schema}");
        }
    }

    #[test]
    fn seed_changes_the_scenario() {
        for schema in SchemaKind::ALL {
            let a = generate(&cfg(schema));
            let mut other = cfg(schema);
            other.seed = 43;
            let b = generate(&other);
            assert_ne!(a.fingerprint(), b.fingerprint(), "{schema}");
        }
    }

    #[test]
    fn schema_names_round_trip() {
        for schema in SchemaKind::ALL {
            assert_eq!(schema.name().parse::<SchemaKind>().unwrap(), schema);
        }
        assert!("nope".parse::<SchemaKind>().is_err());
    }

    #[test]
    fn repairer_fixes_a_country_error_scenario() {
        // The scenario's own Algorithm 1 repairs a column-targeted
        // out-of-domain injection back to the clean table.
        let mut c = ScenarioConfig::new(SchemaKind::Soccer, 120, 7);
        c.error = ErrorConfig {
            rate: 0.02,
            kind_weights: [0, 0, 1, 0, 0],
            columns: vec!["Country".to_string()],
            ..Default::default()
        };
        let s = generate(&c);
        assert!(!s.injection.truth.is_empty());
        let r = s.repairer.repair(&s.constraints, s.dirty());
        assert_eq!(r.clean, s.clean);
    }

    #[test]
    fn soccer_and_sensor_hit_the_row_target_closely() {
        for schema in [SchemaKind::Soccer, SchemaKind::Sensor, SchemaKind::Adult] {
            let s = generate(&ScenarioConfig::new(schema, 5000, 1));
            let rows = s.clean.num_rows();
            assert!(
                (4800..=5200).contains(&rows),
                "{schema}: {rows} rows is far from the 5000 target"
            );
        }
    }
}
