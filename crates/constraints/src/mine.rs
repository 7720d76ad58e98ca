//! Denial-constraint discovery (a FastDC-style miner).
//!
//! The paper's reference [2] (Chu, Ilyas & Papotti, *Discovering denial
//! constraints*) supplies the DCs a T-REx deployment starts from. This
//! module implements the core of that algorithm on our substrate, scaled to
//! the workloads of this workspace:
//!
//! 1. build the **predicate space**: for every attribute, the same-attribute
//!    pair predicates `t1.A = t2.A` and `t1.A ≠ t2.A`, plus `<` / `>` for
//!    numeric attributes;
//! 2. compute the **evidence set**: for every ordered tuple pair, the set of
//!    predicates it satisfies (deduplicated into a set of bitmasks);
//! 3. a candidate DC `¬(p₁ ∧ … ∧ p_k)` is **valid** iff no evidence
//!    contains all its predicates, and **minimal** iff no proper subset is
//!    valid. Candidates are enumerated by increasing size with
//!    superset-of-valid pruning.
//!
//! Trivially unsatisfiable candidates (two predicates over the same
//! attribute, e.g. `=` together with `≠`) are excluded — they are "valid"
//! vacuously and worthless.
//!
//! The search is exponential in the predicate-space size, which is `O(4·
//! arity)` here — fine for the ≤ 10-attribute tables this workspace
//! targets, exactly like the original operates on relatively narrow
//! relations.

use crate::ast::{CmpOp, DenialConstraint, Predicate};
use std::collections::HashSet;
use trex_table::{DType, Table};

/// Configuration of the miner.
#[derive(Debug, Clone)]
pub struct MineConfig {
    /// Maximum number of predicates per DC.
    pub max_predicates: usize,
    /// Include `<` / `>` predicates for numeric attributes.
    pub order_predicates: bool,
}

impl Default for MineConfig {
    fn default() -> Self {
        MineConfig {
            max_predicates: 3,
            order_predicates: false,
        }
    }
}

/// Build the predicate space for `table` (resolved against its schema).
fn predicate_space(table: &Table, config: &MineConfig) -> Vec<Predicate> {
    let mut out = Vec::new();
    for (id, attr) in table.schema().iter() {
        let _ = id;
        let mut ops = vec![CmpOp::Eq, CmpOp::Neq];
        if config.order_predicates && matches!(attr.dtype, DType::Int | DType::Float) {
            ops.push(CmpOp::Lt);
            ops.push(CmpOp::Gt);
        }
        for op in ops {
            let mut p = Predicate::pair(attr.name.clone(), op);
            // Resolve in place.
            for o in [&mut p.left, &mut p.right] {
                if let crate::ast::Operand::Attr { name, attr_id, .. } = o {
                    *attr_id = table.schema().resolve(name);
                }
            }
            out.push(p);
        }
    }
    out
}

/// Evaluate predicate `p` on the ordered row pair `(r1, r2)`.
fn satisfied(p: &Predicate, table: &Table, r1: usize, r2: usize) -> bool {
    use crate::ast::{Operand, TupleVar};
    let value = |o: &Operand| match o {
        Operand::Const(v) => v.clone(),
        Operand::Attr { var, attr_id, .. } => {
            let row = match var {
                TupleVar::T1 => r1,
                TupleVar::T2 => r2,
            };
            table.value(row, attr_id.expect("resolved")).clone()
        }
    };
    p.op.eval(&value(&p.left), &value(&p.right))
}

/// Compute the deduplicated evidence set of `table` over `predicates`
/// (bitmask per ordered tuple pair).
fn evidence_set(table: &Table, predicates: &[Predicate]) -> Vec<u64> {
    assert!(predicates.len() <= 64, "predicate space exceeds 64 bits");
    let n = table.num_rows();
    let mut out: HashSet<u64> = HashSet::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let mut mask = 0u64;
            for (k, p) in predicates.iter().enumerate() {
                if satisfied(p, table, i, j) {
                    mask |= 1 << k;
                }
            }
            out.insert(mask);
        }
    }
    let mut v: Vec<u64> = out.into_iter().collect();
    v.sort_unstable();
    v
}

/// Mine all minimal valid DCs of `table` with at most
/// `config.max_predicates` predicates. Mined constraints are named
/// `M1, M2, …` in discovery order (smaller DCs first, then lexicographic by
/// predicate indices) and come back *resolved*.
pub fn mine_dcs(table: &Table, config: &MineConfig) -> Vec<DenialConstraint> {
    let predicates = predicate_space(table, config);
    let evidence = evidence_set(table, &predicates);
    let p = predicates.len();

    // Which attribute each predicate constrains (at most one predicate per
    // attribute in a candidate).
    let attr_of: Vec<usize> = predicates
        .iter()
        .map(|pr| match &pr.left {
            crate::ast::Operand::Attr { attr_id, .. } => attr_id.expect("resolved").0,
            crate::ast::Operand::Const(_) => usize::MAX,
        })
        .collect();

    let is_valid = |mask: u64| -> bool { !evidence.iter().any(|e| e & mask == mask) };

    let mut valid_masks: Vec<u64> = Vec::new();
    let mut found: Vec<DenialConstraint> = Vec::new();

    // Enumerate candidate predicate sets by increasing size.
    let mut current: Vec<Vec<usize>> = (0..p).map(|i| vec![i]).collect();
    for _size in 1..=config.max_predicates {
        let mut next: Vec<Vec<usize>> = Vec::new();
        for cand in &current {
            let mask: u64 = cand.iter().map(|i| 1u64 << i).sum();
            // Prune supersets of already-valid DCs (minimality).
            if valid_masks.iter().any(|v| v & mask == *v) {
                continue;
            }
            if is_valid(mask) {
                valid_masks.push(mask);
                let preds: Vec<Predicate> = cand.iter().map(|i| predicates[*i].clone()).collect();
                found.push(DenialConstraint::new(
                    format!("M{}", found.len() + 1),
                    preds,
                ));
                continue;
            }
            // Extend with higher-indexed predicates on fresh attributes.
            let start = cand.last().map_or(0, |x| x + 1);
            for nxt in start..p {
                if cand.iter().any(|i| attr_of[*i] == attr_of[nxt]) {
                    continue;
                }
                let mut bigger = cand.clone();
                bigger.push(nxt);
                next.push(bigger);
            }
        }
        current = next;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::FunctionalDependency;
    use crate::parallel::find_all_violations_par;
    use trex_table::TableBuilder;

    fn clean_table() -> Table {
        // Teams repeat (think: several seasons), so no column is a key and
        // the FD-shaped DCs are the minimal valid ones.
        TableBuilder::new()
            .str_columns(["Team", "City", "Country"])
            .str_row(["Real Madrid", "Madrid", "Spain"])
            .str_row(["Real Madrid", "Madrid", "Spain"])
            .str_row(["Atletico", "Madrid", "Spain"])
            .str_row(["Barcelona", "Barcelona", "Spain"])
            .str_row(["Arsenal", "London", "England"])
            .str_row(["Chelsea", "London", "England"])
            .str_row(["Chelsea", "London", "England"])
            .build()
    }

    #[test]
    fn mined_dcs_hold_on_the_training_table() {
        let t = clean_table();
        let dcs = mine_dcs(&t, &MineConfig::default());
        assert!(!dcs.is_empty());
        assert!(find_all_violations_par(&dcs, &t, 1).is_empty());
    }

    #[test]
    fn finds_the_expected_fds_as_dcs() {
        let t = clean_table();
        let dcs = mine_dcs(&t, &MineConfig::default());
        let fds: Vec<FunctionalDependency> = crate::fd::fds_of(&dcs);
        assert!(fds.contains(&FunctionalDependency::new(["Team"], "City")));
        assert!(fds.contains(&FunctionalDependency::new(["City"], "Country")));
        // Country does NOT determine City (Spain has two cities): the FD
        // City ← Country must not be mined.
        assert!(!fds.contains(&FunctionalDependency::new(["Country"], "City")));
    }

    #[test]
    fn mined_dcs_are_minimal() {
        let t = clean_table();
        let dcs = mine_dcs(&t, &MineConfig::default());
        // No mined DC's predicate set is a superset of another's.
        for i in 0..dcs.len() {
            for j in 0..dcs.len() {
                if i == j {
                    continue;
                }
                let a = &dcs[i].predicates;
                let b = &dcs[j].predicates;
                let subset = a.iter().all(|p| b.contains(p));
                assert!(!subset || a.len() == b.len(), "{} ⊆ {}", dcs[i], dcs[j]);
            }
        }
    }

    #[test]
    fn key_attributes_yield_single_predicate_dcs_that_subsume_fds() {
        // With a unique Id column, ¬(t1.Id = t2.Id) is mined as a
        // single-predicate DC — and, being stronger, it *subsumes* every
        // Id → X FD, which therefore must not appear (minimality).
        let t = TableBuilder::new()
            .str_columns(["Id", "City"])
            .str_row(["1", "Madrid"])
            .str_row(["2", "Madrid"])
            .str_row(["3", "Barcelona"])
            .build();
        let dcs = mine_dcs(&t, &MineConfig::default());
        assert!(dcs.iter().any(|d| d.predicates.len() == 1
            && d.predicates[0].attrs().next().map(|(_, n)| n) == Some("Id")
            && d.predicates[0].op == CmpOp::Eq));
        let fds = crate::fd::fds_of(&dcs);
        assert!(!fds.iter().any(|f| f.lhs == vec!["Id".to_string()]));
    }

    #[test]
    fn no_contradictory_candidates() {
        let t = clean_table();
        let dcs = mine_dcs(&t, &MineConfig::default());
        for dc in &dcs {
            let mut attrs: Vec<&str> = dc.mentioned_attrs();
            let before = attrs.len();
            attrs.dedup();
            assert_eq!(before, attrs.len(), "{dc} repeats an attribute");
        }
    }

    #[test]
    fn order_predicates_are_mined_for_numeric_columns() {
        // Perfectly anti-correlated numeric columns: Year up, Rank down.
        let t = TableBuilder::new()
            .column("Year", trex_table::DType::Int)
            .column("Rank", trex_table::DType::Int)
            .row([trex_table::Value::int(2000), trex_table::Value::int(3)])
            .row([trex_table::Value::int(2001), trex_table::Value::int(2)])
            .row([trex_table::Value::int(2002), trex_table::Value::int(1)])
            .build();
        let dcs = mine_dcs(
            &t,
            &MineConfig {
                max_predicates: 2,
                order_predicates: true,
            },
        );
        // ¬(t1.Year < t2.Year ∧ t1.Rank < t2.Rank) must be among them.
        assert!(
            dcs.iter().any(|d| {
                d.predicates.len() == 2 && d.predicates.iter().all(|p| p.op == CmpOp::Lt)
            }),
            "mined: {}",
            dcs.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        assert!(find_all_violations_par(&dcs, &t, 1).is_empty());
    }

    #[test]
    fn mining_the_la_liga_clean_table_recovers_the_papers_shapes() {
        let t = trex_table::TableBuilder::new()
            .str_columns(["Team", "City", "Country", "League"])
            .str_row(["FC Barcelona", "Barcelona", "Spain", "La Liga"])
            .str_row(["Atletico Madrid", "Madrid", "Spain", "La Liga"])
            .str_row(["Real Madrid", "Madrid", "Spain", "La Liga"])
            .str_row(["Real Madrid", "Madrid", "Spain", "La Liga"])
            .str_row(["Manchester City", "Manchester", "England", "Premier League"])
            .str_row(["Arsenal", "London", "England", "Premier League"])
            .str_row(["Arsenal", "London", "England", "Premier League"])
            .build();
        let dcs = mine_dcs(&t, &MineConfig::default());
        let fds = crate::fd::fds_of(&dcs);
        // C1, C2, C3 of the paper, rediscovered from clean data.
        assert!(fds.contains(&FunctionalDependency::new(["Team"], "City")));
        assert!(fds.contains(&FunctionalDependency::new(["City"], "Country")));
        assert!(fds.contains(&FunctionalDependency::new(["League"], "Country")));
    }

    #[test]
    fn empty_and_single_row_tables_mine_everything_vacuously() {
        let t = TableBuilder::new().str_columns(["A", "B"]).build();
        let dcs = mine_dcs(&t, &MineConfig::default());
        // With no tuple pairs, every single predicate is vacuously valid
        // and minimality reduces the output to the size-1 DCs.
        assert!(dcs.iter().all(|d| d.predicates.len() == 1));
        assert!(find_all_violations_par(&dcs, &t, 1).is_empty());
    }
}
