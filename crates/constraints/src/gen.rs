//! Random denial-constraint generation for benchmarks.
//!
//! The Shapley-scaling experiments (E6/A1 in DESIGN.md) need constraint sets
//! of controllable size `n` so we can measure the exponential cost of exact
//! Shapley computation in the number of DCs. The generator emits FD-shaped
//! and order-shaped binary DCs over a given schema, deterministically per
//! seed.

use crate::ast::{CmpOp, DenialConstraint, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trex_table::Schema;

/// Configuration for [`generate_dcs`].
#[derive(Debug, Clone)]
pub struct DcGenConfig {
    /// Number of constraints to generate.
    pub count: usize,
    /// Maximum number of equality predicates in the body (≥ 1).
    pub max_lhs: usize,
    /// Probability that the final predicate is an order comparison (`<`)
    /// instead of `!=`.
    pub order_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of extra *redundant* DCs to append (`R1, R2, …`): each copies
    /// a base DC and weakens one predicate's operator, so the static
    /// analyzer flags it as subsumed. For exercising the analyzer and the
    /// dead-DC benchmarks.
    pub redundant: usize,
    /// Number of extra *statically unviolable* DCs to append (`X1, X2, …`):
    /// each has the shape `¬(t1.A < t2.A ∧ t1.A > t2.A)` — contradictory,
    /// with no equality join key, so a scan that did not skip dead DCs
    /// would pay the full nested-loop cost for provably zero witnesses.
    pub unsat: usize,
}

impl Default for DcGenConfig {
    fn default() -> Self {
        DcGenConfig {
            count: 4,
            max_lhs: 2,
            order_fraction: 0.0,
            seed: 0,
            redundant: 0,
            unsat: 0,
        }
    }
}

/// Generate `config.count` distinct binary DCs over `schema`.
///
/// Each DC has the shape `¬(⋀ t1.X = t2.X ∧ t1.Y op t2.Y)` with `X` a random
/// nonempty attribute subset, `Y ∉ X`, and `op ∈ {≠, <}`. Names are
/// `G1, G2, …`. Requires `schema.arity() ≥ 2`.
pub fn generate_dcs(schema: &Schema, config: &DcGenConfig) -> Vec<DenialConstraint> {
    assert!(schema.arity() >= 2, "need at least two attributes");
    let names: Vec<String> = schema.names().map(str::to_string).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out: Vec<DenialConstraint> = Vec::with_capacity(config.count);
    let mut attempts = 0usize;
    while out.len() < config.count {
        attempts += 1;
        assert!(
            attempts < config.count * 100 + 1000,
            "could not generate {} distinct DCs over {} attributes",
            config.count,
            names.len()
        );
        let lhs_size = rng.gen_range(1..=config.max_lhs.max(1).min(names.len() - 1));
        let mut idx: Vec<usize> = (0..names.len()).collect();
        // Fisher-Yates prefix shuffle for the lhs + rhs choice.
        for i in 0..=lhs_size {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        let mut lhs: Vec<usize> = idx[..lhs_size].to_vec();
        lhs.sort_unstable();
        let rhs = idx[lhs_size];
        let op = if rng.gen_bool(config.order_fraction) {
            CmpOp::Lt
        } else {
            CmpOp::Neq
        };
        let mut preds: Vec<Predicate> = lhs
            .iter()
            .map(|i| Predicate::pair(names[*i].clone(), CmpOp::Eq))
            .collect();
        preds.push(Predicate::pair(names[rhs].clone(), op));
        let candidate = DenialConstraint::new(format!("G{}", out.len() + 1), preds);
        // Distinctness up to name.
        if !out.iter().any(|d| d.predicates == candidate.predicates) {
            out.push(candidate);
        }
    }
    // Injected redundant DCs: a base DC plus a weakened copy of one of its
    // own predicates (`=`→`<=`, `<`→`<=`, `>`→`>=`). The extra predicate is
    // implied by the one it weakens, so the copy's conjunction is
    // equivalent to the base's: every violation it finds, the base already
    // finds, and the analyzer flags it as subsumed.
    for k in 0..config.redundant {
        let base = &out[rng.gen_range(0..config.count.max(1))];
        let mut preds = base.predicates.clone();
        let mut extra = preds[rng.gen_range(0..preds.len())].clone();
        extra.op = match extra.op {
            CmpOp::Eq | CmpOp::Lt => CmpOp::Leq,
            CmpOp::Gt => CmpOp::Geq,
            op => op,
        };
        preds.push(extra);
        out.push(DenialConstraint::new(format!("R{}", k + 1), preds));
    }
    // Injected unviolable DCs: contradictory order pair on one attribute,
    // deliberately without an equality join key.
    for k in 0..config.unsat {
        let a = &names[rng.gen_range(0..names.len())];
        out.push(DenialConstraint::new(
            format!("X{}", k + 1),
            vec![
                Predicate::pair(a.clone(), CmpOp::Lt),
                Predicate::pair(a.clone(), CmpOp::Gt),
            ],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_table::DType;

    fn schema() -> Schema {
        Schema::new([
            ("A", DType::Str),
            ("B", DType::Str),
            ("C", DType::Int),
            ("D", DType::Str),
        ])
    }

    #[test]
    fn generates_requested_count_distinct() {
        let dcs = generate_dcs(
            &schema(),
            &DcGenConfig {
                count: 10,
                max_lhs: 2,
                order_fraction: 0.3,
                seed: 42,
                redundant: 0,
                unsat: 0,
            },
        );
        assert_eq!(dcs.len(), 10);
        for i in 0..dcs.len() {
            for j in (i + 1)..dcs.len() {
                assert_ne!(dcs[i].predicates, dcs[j].predicates);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = DcGenConfig {
            count: 5,
            seed: 7,
            ..Default::default()
        };
        assert_eq!(generate_dcs(&schema(), &cfg), generate_dcs(&schema(), &cfg));
    }

    #[test]
    fn generated_dcs_resolve_and_are_binary() {
        let s = schema();
        for mut dc in generate_dcs(&s, &DcGenConfig::default()) {
            dc.resolve(&s).unwrap();
            assert!(dc.is_binary());
            assert!(!dc.equality_join_attrs().is_empty());
        }
    }

    #[test]
    fn injected_dcs_are_flagged_by_the_analyzer() {
        let s = schema();
        let dcs = generate_dcs(
            &s,
            &DcGenConfig {
                count: 3,
                redundant: 2,
                unsat: 2,
                seed: 9,
                ..Default::default()
            },
        );
        assert_eq!(dcs.len(), 7);
        let analysis = crate::analyze::analyze(&dcs, Some(&s));
        for dc in &dcs {
            let verdict = analysis
                .verdicts
                .iter()
                .find(|v| v.name == dc.name)
                .unwrap();
            if dc.name.starts_with('X') {
                assert!(
                    crate::analyze::statically_unviolable(dc).is_some(),
                    "{} should be unviolable",
                    dc.name
                );
                assert!(dc.equality_join_attrs().is_empty());
            } else if dc.name.starts_with('R') {
                assert!(
                    verdict.subsumed_by.is_some(),
                    "{} should be subsumed",
                    dc.name
                );
            } else {
                assert!(verdict.unviolable.is_none());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two attributes")]
    fn tiny_schema_rejected() {
        let s = Schema::of_strings(["Only"]);
        let _ = generate_dcs(&s, &DcGenConfig::default());
    }
}
