//! A sensor-readings third domain with Zipf-skewed keys.
//!
//! Rows are `(SensorId, Site, Unit, Hour, Reading)` telemetry entries.
//! Unlike the soccer and census generators, the *key distribution* is the
//! point: each row's sensor is drawn from a [`ZipfSampler`], so a few hot
//! sensors own a large share of the table. The two functional dependencies
//! (`SensorId → Site`, `SensorId → Unit`) then hash-partition into one
//! giant equality bucket plus a long tail — the workload shape the
//! giant-bucket splitter in `find_all_violations_par` exists for — and the two
//! range constraints exercise the unary (non-indexed) scan path.

use crate::skew::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trex_constraints::{parse_dcs, DenialConstraint};
use trex_repair::{FixAction, Rule, RuleRepair};
use trex_table::{DType, Table, TableBuilder, Value};

/// The clean reading range; S3/S4 deny values outside it.
pub const READING_RANGE: (i64, i64) = (0, 1000);

/// Configuration of the sensor-readings generator.
#[derive(Debug, Clone)]
pub struct SensorConfig {
    /// Number of rows (readings).
    pub rows: usize,
    /// Number of distinct sensors (Zipf ranks).
    pub sensors: usize,
    /// Number of distinct sites sensors are spread over.
    pub sites: usize,
    /// Zipf exponent of the per-row sensor draw (`0` = uniform; larger
    /// values concentrate rows on a few hot sensors).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            rows: 1000,
            sensors: 50,
            sites: 10,
            skew: 1.0,
            seed: 0,
        }
    }
}

const UNITS: [&str; 3] = ["C", "hPa", "%RH"];

/// Generate a clean readings table: `SensorId → Site` and `SensorId →
/// Unit` hold by construction (both are derived from the sensor rank), and
/// every `Reading` lies inside [`READING_RANGE`]. Deterministic per seed;
/// sensor ranks are Zipf-distributed per [`SensorConfig::skew`].
pub fn generate_readings(config: &SensorConfig) -> Table {
    assert!(config.sensors > 0, "need at least one sensor");
    assert!(config.sites > 0, "need at least one site");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = ZipfSampler::new(config.sensors, config.skew);
    let mut b = TableBuilder::new()
        .column("SensorId", DType::Str)
        .column("Site", DType::Str)
        .column("Unit", DType::Str)
        .column("Hour", DType::Int)
        .column("Reading", DType::Int);
    for i in 0..config.rows {
        let s = zipf.sample(&mut rng);
        let reading = rng.gen_range(READING_RANGE.0..=READING_RANGE.1);
        b = b.row([
            Value::str(format!("S{s:05}")),
            Value::str(format!("Site {}", s % config.sites + 1)),
            Value::str(UNITS[s % UNITS.len()]),
            Value::int((i % 24) as i64),
            Value::int(reading),
        ]);
    }
    b.build()
}

/// The sensor constraints: two FDs (equality-join indexed, Zipf-bucketed)
/// plus two unary range rules (nested-scan path).
///
/// * S1: `SensorId → Site`
/// * S2: `SensorId → Unit`
/// * S3: readings are not negative
/// * S4: readings do not exceed the instrument range
pub fn sensor_constraints() -> Vec<DenialConstraint> {
    parse_dcs(
        "S1: !(t1.SensorId = t2.SensorId & t1.Site != t2.Site)\n\
         S2: !(t1.SensorId = t2.SensorId & t1.Unit != t2.Unit)\n\
         S3: !(t1.Reading < 0)\n\
         S4: !(t1.Reading > 1000)\n",
    )
    .expect("sensor constraints parse")
}

/// Algorithm 1 for the sensor domain, conditioned like
/// [`crate::soccer::soccer_algorithm1`]: every fix re-derives the cell from
/// its sensor's most common value.
///
/// 1. S1 ⇒ `Site ← argmax P[Site | SensorId]`
/// 2. S2 ⇒ `Unit ← argmax P[Unit | SensorId]`
/// 3. S3 ⇒ `Reading ← argmax P[Reading | SensorId]`
/// 4. S4 ⇒ `Reading ← argmax P[Reading | SensorId]`
pub fn sensor_algorithm1() -> RuleRepair {
    let given_sensor = |attr: &str| FixAction::MostCommonGiven {
        attr: attr.to_string(),
        given: "SensorId".to_string(),
    };
    RuleRepair::new(vec![
        Rule::new("S1", given_sensor("Site")),
        Rule::new("S2", given_sensor("Unit")),
        Rule::new("S3", given_sensor("Reading")),
        Rule::new("S4", given_sensor("Reading")),
    ])
    .with_name("sensor-algorithm1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use trex_constraints::find_all_violations_par;

    #[test]
    fn generated_readings_are_clean() {
        let t = generate_readings(&SensorConfig {
            rows: 500,
            ..Default::default()
        });
        assert_eq!(t.num_rows(), 500);
        assert_eq!(t.arity(), 5);
        let dcs: Vec<DenialConstraint> = sensor_constraints()
            .iter()
            .map(|d| d.resolved(t.schema()).unwrap())
            .collect();
        assert!(find_all_violations_par(&dcs, &t, 1).is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SensorConfig {
            rows: 300,
            seed: 21,
            ..Default::default()
        };
        assert_eq!(generate_readings(&cfg), generate_readings(&cfg));
        let other = generate_readings(&SensorConfig {
            seed: 22,
            ..cfg.clone()
        });
        assert_ne!(generate_readings(&cfg), other);
    }

    #[test]
    fn skew_concentrates_rows_on_the_hot_sensor() {
        let skewed = generate_readings(&SensorConfig {
            rows: 5000,
            sensors: 200,
            skew: 1.2,
            ..Default::default()
        });
        let flat = generate_readings(&SensorConfig {
            rows: 5000,
            sensors: 200,
            skew: 0.0,
            ..Default::default()
        });
        let biggest_bucket = |t: &Table| -> usize {
            let sensor = t.schema().id("SensorId");
            let mut counts: HashMap<String, usize> = HashMap::new();
            for r in 0..t.num_rows() {
                *counts
                    .entry(t.value(r, sensor).as_str().unwrap().to_string())
                    .or_default() += 1;
            }
            counts.into_values().max().unwrap()
        };
        let hot = biggest_bucket(&skewed);
        let uniform = biggest_bucket(&flat);
        assert!(
            hot > uniform * 5,
            "skewed hot bucket ({hot}) must dwarf the uniform one ({uniform})"
        );
    }

    #[test]
    fn algorithm1_repairs_an_injected_site_error() {
        use trex_repair::RepairAlgorithm;
        let clean = generate_readings(&SensorConfig {
            rows: 400,
            sensors: 20,
            skew: 1.0,
            seed: 13,
            ..Default::default()
        });
        let injected = crate::errors::inject_errors(
            &clean,
            &crate::errors::ErrorConfig {
                rate: 0.01,
                kind_weights: [0, 0, 1, 0, 0],
                columns: vec!["Site".to_string()],
                seed: 5,
                ..Default::default()
            },
        );
        assert!(!injected.truth.is_empty());
        let r = sensor_algorithm1().repair(&sensor_constraints(), &injected.dirty);
        assert_eq!(r.clean, clean, "exactly the injected errors are undone");
    }

    #[test]
    fn out_of_range_readings_violate_the_unary_rules() {
        let mut t = generate_readings(&SensorConfig {
            rows: 50,
            ..Default::default()
        });
        let reading = t.schema().id("Reading");
        t.set(trex_table::CellRef::new(3, reading), Value::int(-4));
        t.set(trex_table::CellRef::new(7, reading), Value::int(99_999));
        let dcs: Vec<DenialConstraint> = sensor_constraints()
            .iter()
            .map(|d| d.resolved(t.schema()).unwrap())
            .collect();
        let vs = find_all_violations_par(&dcs, &t, 1);
        assert!(vs.iter().any(|v| &*v.constraint == "S3" && v.row1 == 3));
        assert!(vs.iter().any(|v| &*v.constraint == "S4" && v.row1 == 7));
    }
}
