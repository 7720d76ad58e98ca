//! # trex-repair
//!
//! The repair algorithms of the T-REx reproduction — the *black boxes* whose
//! behaviour the explanation layer explains.
//!
//! * [`traits`] — the black-box interface: `Alg(C, T^d) → T^c` and the
//!   binary view `Alg|t[A] ∈ {0,1}` of §2.1, plus the memoizing
//!   [`ShardedOracle`] (ablation A1 turns its cache off with
//!   `--oracle-cap 0`).
//! * [`simple`] — the paper's **Algorithm 1**, generalized to rule lists
//!   (`constraint → most-common / conditional-most-probable fix`).
//! * [`holoclean`] — a from-scratch **HoloClean-style** probabilistic
//!   cleaner (error detection → domain pruning → featurization → optional
//!   perceptron calibration → ICM inference), substituting for the Python
//!   HoloClean system the demo runs on (DESIGN.md §2).
//! * [`chase`] — FD-chase baseline (Bohannon et al. style).
//! * [`holistic`] — conflict-hypergraph / vertex-cover baseline (Chu et al.
//!   style).
//! * [`metrics`] — precision/recall/F1 of repairs against injected-error
//!   ground truth (experiment A4).
//!
//! Every engine is deterministic, never adds or drops rows, and is consumed
//! by `trex` (core) only through [`RepairAlgorithm`] — swapping engines is a
//! one-line change, which is the paper's black-box claim.

#![warn(missing_docs)]

pub mod chase;
pub mod holistic;
pub mod holoclean;
pub mod metrics;
pub mod simple;
pub mod traits;

pub use chase::FdChaseRepair;
pub use holistic::HolisticRepair;
pub use holoclean::{HoloCleanConfig, HoloCleanStyle};
pub use metrics::{cell_accuracy, score_repair, score_tables, RepairQuality};
pub use simple::{FixAction, Rule, RuleParseError, RuleRepair};
pub use traits::{
    hash_dcs, hash_value, repairs_cell_to, NoOpRepair, OracleCache, OracleKey, OracleStats,
    PanicGuard, RepairAlgorithm, RepairResult, ShardedOracle,
};

// Property tests, gated behind the `proptest` feature to keep plain
// `cargo test` fast. They compile against the offline shim in
// `vendor/proptest` (or crates.io proptest — CI's weekly cron runs both):
// `cargo test --workspace --features proptest`.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use trex_constraints::{parse_dcs, DenialConstraint};
    use trex_table::{Schema, Table, Value};

    fn dcs() -> Vec<DenialConstraint> {
        parse_dcs(
            "C1: !(t1.A = t2.A & t1.B != t2.B)\n\
             C2: !(t1.B = t2.B & t1.C != t2.C)\n",
        )
        .unwrap()
    }

    fn algs() -> Vec<Box<dyn RepairAlgorithm>> {
        vec![
            Box::new(RuleRepair::new(vec![
                Rule::new(
                    "C1",
                    FixAction::MostCommon {
                        attr: "B".to_string(),
                    },
                ),
                Rule::new(
                    "C2",
                    FixAction::MostCommonGiven {
                        attr: "C".to_string(),
                        given: "B".to_string(),
                    },
                ),
            ])),
            Box::new(HoloCleanStyle::new()),
            Box::new(FdChaseRepair::new()),
            Box::new(HolisticRepair::new()),
            Box::new(NoOpRepair),
        ]
    }

    fn arb_table() -> impl Strategy<Value = Table> {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(Value::Null), (0i64..3).prop_map(Value::Int)],
                3,
            ),
            0..6,
        )
        .prop_map(|rows| {
            Table::from_rows(
                Schema::new([
                    ("A", trex_table::DType::Int),
                    ("B", trex_table::DType::Int),
                    ("C", trex_table::DType::Int),
                ]),
                rows,
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every engine preserves table shape and only rewrites cells.
        #[test]
        fn repairs_preserve_shape(t in arb_table()) {
            for alg in algs() {
                let r = alg.repair(&dcs(), &t);
                prop_assert_eq!(r.clean.num_rows(), t.num_rows());
                prop_assert_eq!(r.clean.arity(), t.arity());
                let diff = trex_table::diff(&t, &r.clean);
                prop_assert_eq!(diff.len(), r.changes.len());
            }
        }

        /// Every engine is deterministic.
        #[test]
        fn repairs_are_deterministic(t in arb_table()) {
            for alg in algs() {
                let a = alg.repair(&dcs(), &t);
                let b = alg.repair(&dcs(), &t);
                prop_assert_eq!(a.clean, b.clean, "{} not deterministic", alg.name());
            }
        }

        /// A table with no violations is a fixpoint for every engine.
        #[test]
        fn clean_tables_are_fixpoints(t in arb_table()) {
            let resolved: Vec<DenialConstraint> = dcs()
                .iter()
                .map(|d| d.resolved(t.schema()).unwrap())
                .collect();
            if trex_constraints::find_all_violations_par(&resolved, &t, 1).is_empty() {
                for alg in algs() {
                    let r = alg.repair(&dcs(), &t);
                    prop_assert!(r.changes.is_empty(),
                        "{} changed a clean table", alg.name());
                }
            }
        }

        /// The oracle's answer is stable under caching.
        #[test]
        fn sharded_oracle_matches_uncached(t in arb_table()) {
            if t.num_rows() == 0 { return Ok(()); }
            let alg = HolisticRepair::new();
            let oracle = ShardedOracle::new(&alg);
            let cell = t.cells().next().unwrap();
            let target = Value::Int(0);
            let plain = repairs_cell_to(&alg, &dcs(), &t, cell, &target);
            let cached1 = oracle.repairs_cell_to(&dcs(), &t, cell, &target);
            let cached2 = oracle.repairs_cell_to(&dcs(), &t, cell, &target);
            prop_assert_eq!(plain, cached1);
            prop_assert_eq!(cached1, cached2);
        }
    }
}
