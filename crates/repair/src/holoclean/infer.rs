//! Inference and weight training for the HoloClean-style engine.
//!
//! HoloClean grounds a factor graph and runs statistical inference to pick
//! each noisy cell's most probable value. Our pruned reproduction performs
//! **iterated conditional modes** (ICM): repeatedly sweep the noisy cells,
//! setting each to the candidate with the highest feature score given the
//! current assignment of every other cell, until a sweep changes nothing or
//! the round bound is hit. For the score models used here ICM converges to
//! the same local optimum MAP inference would, and is deterministic.
//!
//! [`train_weights`] implements HoloClean's "learn from the clean part of
//! the data" idea as a structured perceptron: for every *clean* cell
//! (one not implicated in any violation), the observed value should outscore
//! every other candidate in its domain; mistakes update the weights by the
//! feature difference. This keeps the engine self-calibrating across
//! domains without external training data.

use super::domain::{cell_domain, CellDomain, CooccurrenceModel, DomainConfig};
use super::features::{featurize, FeatureVector, FeatureWeights};
use trex_constraints::DenialConstraint;
use trex_table::{CellRef, ColumnStats, Table, Value};

/// One ICM sweep over the noisy cells: set every cell to its best-scoring
/// candidate given the current table. Returns the number of cells changed.
pub fn icm_sweep(
    dcs: &[DenialConstraint],
    table: &mut Table,
    model: &CooccurrenceModel,
    domains: &[CellDomain],
    weights: &FeatureWeights,
) -> usize {
    let mut changed = 0;
    for domain in domains {
        let cell = domain.cell;
        let stats = ColumnStats::from_column(table, cell.attr);
        let mut best: Option<(f64, &Value)> = None;
        for cand in &domain.candidates {
            let f = featurize(dcs, table, model, &stats, cell, cand);
            let score = f.score(weights);
            let better = match best {
                None => true,
                Some((b, bv)) => score > b + 1e-12 || (score > b - 1e-12 && cand < bv),
            };
            if better {
                best = Some((score, cand));
            }
        }
        if let Some((_, winner)) = best {
            if table.get(cell) != winner {
                let w = winner.clone();
                table.set(cell, w);
                changed += 1;
            }
        }
    }
    changed
}

/// Configuration of the perceptron trainer.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the clean cells.
    pub epochs: usize,
    /// Learning rate.
    pub rate: f64,
    /// Domain generation used to produce negative candidates.
    pub domain: DomainConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            rate: 0.1,
            domain: DomainConfig::default(),
        }
    }
}

/// Structured-perceptron weight training on the clean cells of `table`.
///
/// `noisy` lists the cells implicated in violations; every *other* non-null
/// cell is treated as ground truth: its observed value must outscore each
/// alternative candidate. Returns the trained weights (starting from
/// `initial`). The constraint feature's weight is clamped non-negative —
/// fewer violations must never be penalized, whatever the training data
/// says.
pub fn train_weights(
    dcs: &[DenialConstraint],
    table: &Table,
    noisy: &[CellRef],
    initial: FeatureWeights,
    config: &TrainConfig,
) -> FeatureWeights {
    let model = CooccurrenceModel::build(table);
    let mut w = initial.as_array();
    let mut scratch = table.clone();
    for _ in 0..config.epochs {
        let mut mistakes = 0usize;
        for cell in table.cells() {
            if noisy.contains(&cell) || !table.get(cell).is_concrete() {
                continue;
            }
            let observed = table.get(cell).clone();
            let domain = cell_domain(table, &model, cell, &config.domain);
            if domain.candidates.len() < 2 {
                continue;
            }
            let stats = ColumnStats::from_column(table, cell.attr);
            let feats: Vec<(Value, FeatureVector)> = domain
                .candidates
                .iter()
                .map(|c| {
                    (
                        c.clone(),
                        featurize(dcs, &mut scratch, &model, &stats, cell, c),
                    )
                })
                .collect();
            let weights = FeatureWeights::from_array(w);
            let (best_v, best_f) = feats
                .iter()
                .max_by(|(va, fa), (vb, fb)| {
                    fa.score(&weights)
                        .partial_cmp(&fb.score(&weights))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| vb.cmp(va))
                })
                .expect("domain has candidates");
            if *best_v != observed {
                mistakes += 1;
                let gold = feats
                    .iter()
                    .find(|(v, _)| *v == observed)
                    .map(|(_, f)| *f)
                    .expect("observed value is always in its own domain");
                let ga = gold.as_array();
                let ba = best_f.as_array();
                for k in 0..4 {
                    w[k] += config.rate * (ga[k] - ba[k]);
                }
            }
        }
        if mistakes == 0 {
            break;
        }
    }
    // Never reward violations.
    w[2] = w[2].max(0.0);
    FeatureWeights::from_array(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holoclean::detect_errors;
    use trex_constraints::parse_dcs;
    use trex_table::TableBuilder;

    fn setup() -> (Table, Vec<DenialConstraint>) {
        let t = TableBuilder::new()
            .str_columns(["City", "Country"])
            .str_row(["Madrid", "Spain"])
            .str_row(["Madrid", "Spain"])
            .str_row(["Madrid", "Spain"])
            .str_row(["Paris", "France"])
            .str_row(["Madrid", "España"])
            .build();
        let dcs: Vec<DenialConstraint> =
            parse_dcs("C2: !(t1.City = t2.City & t1.Country != t2.Country)")
                .unwrap()
                .into_iter()
                .map(|d| d.resolved(t.schema()).unwrap())
                .collect();
        (t, dcs)
    }

    #[test]
    fn icm_fixes_the_dirty_cell() {
        let (t, dcs) = setup();
        let model = CooccurrenceModel::build(&t);
        let country = t.schema().id("Country");
        let cell = CellRef::new(4, country);
        let domains = vec![cell_domain(&t, &model, cell, &DomainConfig::default())];
        let mut work = t.clone();
        let changed = icm_sweep(
            &dcs,
            &mut work,
            &model,
            &domains,
            &FeatureWeights::default(),
        );
        assert_eq!(changed, 1);
        assert_eq!(work.get(cell), &Value::str("Spain"));
    }

    #[test]
    fn icm_is_idempotent_once_converged() {
        let (t, dcs) = setup();
        let model = CooccurrenceModel::build(&t);
        let country = t.schema().id("Country");
        let cell = CellRef::new(4, country);
        let domains = vec![cell_domain(&t, &model, cell, &DomainConfig::default())];
        let mut work = t.clone();
        let w = FeatureWeights::default();
        let _ = icm_sweep(&dcs, &mut work, &model, &domains, &w);
        let again = icm_sweep(&dcs, &mut work, &model, &domains, &w);
        assert_eq!(again, 0);
    }

    #[test]
    fn training_does_not_break_calibration() {
        let (t, dcs) = setup();
        let noisy = detect_errors(&dcs, &t, 1);
        let trained = train_weights(
            &dcs,
            &t,
            &noisy,
            FeatureWeights::default(),
            &TrainConfig::default(),
        );
        // Constraint weight stays non-negative and the trained weights still
        // repair the dirty cell.
        assert!(trained.constraint >= 0.0);
        let model = CooccurrenceModel::build(&t);
        let country = t.schema().id("Country");
        let cell = CellRef::new(4, country);
        let domains = vec![cell_domain(&t, &model, cell, &DomainConfig::default())];
        let mut work = t.clone();
        let _ = icm_sweep(&dcs, &mut work, &model, &domains, &trained);
        assert_eq!(work.get(cell), &Value::str("Spain"));
    }

    #[test]
    fn training_with_adversarial_init_recovers_on_clean_cells() {
        // Clean cells need multi-candidate domains for the perceptron to
        // see mistakes: Barcelona rows share Country=Spain with the Madrid
        // rows, so their City cells have {Barcelona, Madrid} domains.
        let t = TableBuilder::new()
            .str_columns(["City", "Country"])
            .str_row(["Madrid", "Spain"])
            .str_row(["Madrid", "Spain"])
            .str_row(["Madrid", "Spain"])
            .str_row(["Barcelona", "Spain"])
            .str_row(["Barcelona", "Spain"])
            .str_row(["Madrid", "España"])
            .build();
        let dcs: Vec<DenialConstraint> =
            parse_dcs("C2: !(t1.City = t2.City & t1.Country != t2.Country)")
                .unwrap()
                .into_iter()
                .map(|d| d.resolved(t.schema()).unwrap())
                .collect();
        let noisy = detect_errors(&dcs, &t, 1);
        // Start with weights that prefer *changing* values (negative
        // minimality): the perceptron should push minimality back up
        // because clean cells must keep their observed values.
        let bad = FeatureWeights {
            cooccurrence: 0.0,
            minimality: -1.0,
            constraint: 0.0,
            frequency: 0.0,
        };
        let trained = train_weights(
            &dcs,
            &t,
            &noisy,
            bad,
            &TrainConfig {
                epochs: 10,
                rate: 0.5,
                domain: DomainConfig::default(),
            },
        );
        assert!(trained.minimality > bad.minimality);
    }
}
