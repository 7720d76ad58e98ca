//! A HoloClean-style probabilistic repair engine.
//!
//! The paper demonstrates T-REx on top of HoloClean [5] — "a holistic data
//! repair system that repairs the input table based on a probabilistic
//! model involving machine learning techniques" (§3). HoloClean itself is a
//! Python/PostgreSQL system; per the substitution table in DESIGN.md §2 we
//! rebuild its pipeline from scratch in Rust:
//!
//! 1. **error detection** — cells implicated in DC violations are *noisy*
//!    (read off [`trex_constraints::find_all_violations_par`]'s witnesses);
//! 2. **domain generation** — pruned candidate sets via co-occurrence
//!    statistics ([`domain`]);
//! 3. **featurization** — co-occurrence, minimality, constraint and
//!    frequency signals ([`features`]);
//! 4. **learning** — optional structured-perceptron calibration of the
//!    feature weights on the clean portion of the data ([`infer`]);
//! 5. **inference** — iterated conditional modes over the noisy cells
//!    ([`infer`]).
//!
//! T-REx only ever consumes this engine through the black-box
//! [`RepairAlgorithm`] interface, exactly as it consumes Algorithm 1 — that
//! interchangeability is the point of the paper, and integration test
//! `black_box_swap` exercises it.

pub mod domain;
pub mod features;
pub mod infer;

pub use domain::{cell_domain, CellDomain, CooccurrenceModel, DomainConfig};
pub use features::{featurize, FeatureVector, FeatureWeights};
pub use infer::{icm_sweep, train_weights, TrainConfig};

use crate::traits::{RepairAlgorithm, RepairResult};
use trex_constraints::{find_all_violations_par, DenialConstraint};
use trex_table::{CellRef, Table};

/// The distinct cells implicated in any violation of the resolved `dcs`,
/// sorted: the cells error detection marks noisy.
pub(crate) fn detect_errors(
    dcs: &[DenialConstraint],
    table: &Table,
    threads: usize,
) -> Vec<CellRef> {
    let mut cells: Vec<CellRef> = find_all_violations_par(dcs, table, threads)
        .into_iter()
        .flat_map(|v| v.cells)
        .collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// Configuration of the full engine.
#[derive(Debug, Clone)]
pub struct HoloCleanConfig {
    /// Domain generation parameters.
    pub domain: DomainConfig,
    /// Scoring weights (ignored if `train` is set — training starts from
    /// them).
    pub weights: FeatureWeights,
    /// Run perceptron calibration on the clean cells before inference.
    pub train: bool,
    /// Maximum ICM sweeps per detection round.
    pub max_sweeps: usize,
    /// Maximum detect→infer rounds (repairs can surface new violations).
    pub max_rounds: usize,
    /// Worker threads for violation detection (must be ≥ 1). Detection
    /// output is identical at any thread count, so this is a wall-time
    /// knob only — repair results never depend on it.
    pub threads: usize,
}

impl Default for HoloCleanConfig {
    fn default() -> Self {
        HoloCleanConfig {
            domain: DomainConfig::default(),
            weights: FeatureWeights::default(),
            train: false,
            max_sweeps: 4,
            max_rounds: 2,
            threads: 1,
        }
    }
}

/// The HoloClean-style repairer.
#[derive(Debug, Clone, Default)]
pub struct HoloCleanStyle {
    config: HoloCleanConfig,
}

impl HoloCleanStyle {
    /// Build with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build with explicit configuration.
    pub fn with_config(config: HoloCleanConfig) -> Self {
        HoloCleanStyle { config }
    }

    /// Enable perceptron weight training.
    pub fn with_training(mut self) -> Self {
        self.config.train = true;
        self
    }
}

impl RepairAlgorithm for HoloCleanStyle {
    fn name(&self) -> &str {
        "holoclean-style"
    }

    fn with_exec(mut self, cfg: &trex_shapley::ExecConfig) -> Self {
        self.config.threads = cfg.threads();
        self
    }

    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        let resolved: Vec<DenialConstraint> = dcs
            .iter()
            .map(|dc| {
                dc.resolved(dirty.schema())
                    .unwrap_or_else(|e| panic!("cannot resolve constraint: {e}"))
            })
            .collect();
        let mut table = dirty.clone();
        for _ in 0..self.config.max_rounds {
            // 1. error detection on the current table.
            let noisy = detect_errors(&resolved, &table, self.config.threads);
            if noisy.is_empty() {
                break;
            }
            // 2. statistics + domains from the current snapshot.
            let model = CooccurrenceModel::build(&table);
            let domains: Vec<CellDomain> = noisy
                .iter()
                .map(|c| cell_domain(&table, &model, *c, &self.config.domain))
                .collect();
            // 3./4. weights, optionally trained on the clean cells.
            let weights = if self.config.train {
                train_weights(
                    &resolved,
                    &table,
                    &noisy,
                    self.config.weights,
                    &TrainConfig {
                        domain: self.config.domain,
                        ..TrainConfig::default()
                    },
                )
            } else {
                self.config.weights
            };
            // 5. ICM inference.
            let mut any_change = false;
            for _ in 0..self.config.max_sweeps {
                let changed = icm_sweep(&resolved, &mut table, &model, &domains, &weights);
                any_change |= changed > 0;
                if changed == 0 {
                    break;
                }
            }
            if !any_change {
                break;
            }
        }
        RepairResult::from_tables(dirty, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_constraints::parse_dcs;
    use trex_table::{TableBuilder, Value};

    fn dcs() -> Vec<DenialConstraint> {
        parse_dcs(
            "C1: !(t1.Team = t2.Team & t1.City != t2.City)\n\
             C2: !(t1.City = t2.City & t1.Country != t2.Country)\n",
        )
        .unwrap()
    }

    fn dirty() -> Table {
        TableBuilder::new()
            .str_columns(["Team", "City", "Country"])
            .str_row(["Real Madrid", "Madrid", "Spain"])
            .str_row(["Real Madrid", "Madrid", "Spain"])
            .str_row(["Real Madrid", "Capital", "Spain"])
            .str_row(["Barcelona", "Barcelona", "Spain"])
            .str_row(["Barcelona", "Barcelona", "España"])
            .build()
    }

    #[test]
    fn repairs_both_errors() {
        let r = HoloCleanStyle::new().repair(&dcs(), &dirty());
        let t = &r.clean;
        let city = t.schema().id("City");
        let country = t.schema().id("Country");
        assert_eq!(t.value(2, city), &Value::str("Madrid"));
        assert_eq!(t.value(4, country), &Value::str("Spain"));
        let resolved: Vec<_> = dcs()
            .iter()
            .map(|d| d.resolved(t.schema()).unwrap())
            .collect();
        assert!(find_all_violations_par(&resolved, t, 1).is_empty());
    }

    #[test]
    fn detected_errors_are_each_implicated_cell_once_sorted() {
        // Row 2's City conflicts with rows 0 and 1 under C1 (both orders),
        // and C1 listed twice implicates nothing new.
        let t = dirty();
        let c1: Vec<_> = dcs()[..1]
            .iter()
            .map(|d| d.resolved(t.schema()).unwrap())
            .collect();
        let twice = [c1.clone(), c1].concat();
        let (team, city) = (t.schema().id("Team"), t.schema().id("City"));
        let expected: Vec<CellRef> = [0, 1, 2]
            .into_iter()
            .flat_map(|r| [CellRef::new(r, team), CellRef::new(r, city)])
            .collect();
        assert_eq!(detect_errors(&twice, &t, 1), expected);
    }

    #[test]
    fn minimality_only_noisy_cells_change() {
        let r = HoloCleanStyle::new().repair(&dcs(), &dirty());
        assert_eq!(r.changes.len(), 2);
        let rows: Vec<usize> = r.changes.iter().map(|c| c.cell.row).collect();
        assert!(rows.contains(&2));
        assert!(rows.contains(&4));
    }

    #[test]
    fn clean_table_untouched() {
        let clean = HoloCleanStyle::new().repair(&dcs(), &dirty()).clean;
        let again = HoloCleanStyle::new().repair(&dcs(), &clean);
        assert!(again.changes.is_empty());
    }

    #[test]
    fn deterministic() {
        let a = HoloCleanStyle::new().repair(&dcs(), &dirty());
        let b = HoloCleanStyle::new().repair(&dcs(), &dirty());
        assert_eq!(a.clean, b.clean);
    }

    #[test]
    fn trained_variant_still_repairs() {
        let r = HoloCleanStyle::new()
            .with_training()
            .repair(&dcs(), &dirty());
        let t = &r.clean;
        assert_eq!(t.value(2, t.schema().id("City")), &Value::str("Madrid"));
    }

    #[test]
    fn empty_constraints_change_nothing() {
        let r = HoloCleanStyle::new().repair(&[], &dirty());
        assert!(r.changes.is_empty());
    }

    #[test]
    fn threaded_detection_gives_identical_repairs() {
        let serial = HoloCleanStyle::new().repair(&dcs(), &dirty());
        let par = HoloCleanStyle::new()
            .with_exec(&trex_shapley::ExecConfig::new().with_threads(4))
            .repair(&dcs(), &dirty());
        assert_eq!(serial.clean, par.clean);
        assert_eq!(serial.changes, par.changes);
    }

    #[test]
    fn respects_null_cells() {
        let mut t = dirty();
        t.set(CellRef::new(2, t.schema().id("City")), Value::Null);
        let r = HoloCleanStyle::new().repair(&dcs(), &t);
        // The nulled cell creates no violation, so only the Country error
        // gets repaired.
        assert_eq!(r.changes.len(), 1);
        assert_eq!(r.changes[0].cell.row, 4);
    }
}
