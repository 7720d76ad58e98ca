//! # trex-repair
//!
//! The repair algorithms of the T-REx reproduction — the *black boxes* whose
//! behaviour the explanation layer explains.
//!
//! * [`traits`] — the black-box interface: `Alg(C, T^d) → T^c` and the
//!   binary view `Alg|t[A] ∈ {0,1}` of §2.1, plus the memoizing
//!   [`ShardedOracle`], whose entries are repairs keyed by (program,
//!   table) (ablation A1 turns its cache off with `--oracle-cap 0`).
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
    hash_dc, hash_dcs, hash_program, hash_value, repaired_value, repairs_cell_to, NoOpRepair,
    OracleCache, OracleStats, PanicGuard, Reach, RepairAlgorithm, RepairResult, ShardedOracle,
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
    use trex_table::{CellRef, Schema, Table, Value};

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

    /// Columns of the slice property's tables.
    const COLS: [&str; 4] = ["A", "B", "C", "D"];

    fn arb_constant() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0i64..3).prop_map(Value::Int),
            (0usize..2).prop_map(|i| Value::str(["x", "y"][i])),
        ]
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![Just(Value::Null), arb_constant()]
    }

    /// A constant as the DC and rule syntaxes write it.
    fn literal(v: &Value) -> String {
        match v {
            Value::Str(s) => format!("{s:?}"),
            other => other.to_string(),
        }
    }

    /// One DC `K{i}` of shape `kind` over columns `x`, `y`: an FD-like
    /// pair, an order pair, or a unary constant.
    fn dc_text(i: usize, (kind, x, y, c): &(usize, usize, usize, Value)) -> String {
        let (x, y) = (COLS[*x], COLS[*y]);
        match kind {
            0 => format!("K{i}: !(t1.{x} = t2.{x} & t1.{y} != t2.{y})\n"),
            1 => format!("K{i}: !(t1.{x} = t2.{x} & t1.{y} > t2.{y})\n"),
            _ => format!("K{i}: !(t1.{x} = {})\n", literal(c)),
        }
    }

    /// One rule for constraint `name` writing column `w`: `most_common`,
    /// `most_common_given(g)` or a constant.
    fn rule_text(name: &str, (kind, w, g, c): &(usize, usize, usize, Value)) -> String {
        let (w, g) = (COLS[*w], COLS[*g]);
        match kind {
            0 => format!("{name}: {w} <- most_common\n"),
            1 => format!("{name}: {w} <- most_common_given({g})\n"),
            _ => format!("{name}: {w} <- const({})\n", literal(c)),
        }
    }

    /// A random program of 1–4 DCs, three in four of them with a rule,
    /// plus an optional rule whose DC is not in the program; `given`
    /// chains and cycles come out of the random columns.
    #[allow(clippy::type_complexity)]
    fn arb_program() -> impl Strategy<Value = (String, String)> {
        let shape = || (0usize..3, 0usize..4, 0usize..4, arb_constant());
        (
            proptest::collection::vec((shape(), (0usize..4).prop_map(|k| k > 0), shape()), 1..5),
            proptest::bool::ANY,
            shape(),
        )
            .prop_map(|(dcs, orphan, orphan_rule)| {
                let mut dc_list = String::new();
                let mut rules = String::new();
                for (i, (dc, ruled, rule)) in dcs.iter().enumerate() {
                    dc_list.push_str(&dc_text(i, dc));
                    if *ruled {
                        rules.push_str(&rule_text(&format!("K{i}"), rule));
                    }
                }
                if orphan {
                    rules.push_str(&rule_text("K9", &orphan_rule));
                }
                (dc_list, rules)
            })
    }

    /// A 2–6-row table over [`COLS`] with nulls and mixed types, and a
    /// second table of the same shape to overwrite cells from.
    fn arb_table_pair() -> impl Strategy<Value = (Table, Table)> {
        (2usize..7).prop_flat_map(|rows| {
            let table = move || {
                proptest::collection::vec(proptest::collection::vec(arb_value(), 4), rows).prop_map(
                    |rows| Table::from_rows(Schema::of_strings(COLS.map(String::from)), rows),
                )
            };
            (table(), table())
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// `RuleRepair::reach` is sound: for every DC subset and every
        /// target column, the column's repaired values are the same
        /// whether the whole subset repairs the original table or the
        /// sliced subset repairs a copy whose out-of-slice cells were
        /// overwritten.
        #[test]
        fn rule_repair_slices_repair_the_target_like_the_whole_program(
            program in arb_program(),
            rounds in 1usize..4,
            tables in arb_table_pair(),
        ) {
            let ((dc_list, rules), (t, noise)) = (program, tables);
            let dcs = parse_dcs(&dc_list).unwrap();
            let alg = RuleRepair::parse_rules(&rules).unwrap().with_max_rounds(rounds);
            for mask in 0..1usize << dcs.len() {
                let subset: Vec<DenialConstraint> = (0..dcs.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| dcs[i].clone())
                    .collect();
                let full = alg.repair(&subset, &t);
                for (target, _) in t.schema().iter() {
                    let reach = alg
                        .reach(&subset, t.schema(), target)
                        .expect("every DC resolves");
                    let mut overwritten = t.clone();
                    for c in t.cells().filter(|c| !reach.reads(c.attr)) {
                        overwritten.set(c, noise.get(c).clone());
                    }
                    let sliced = alg.repair(&reach.program(&subset), &overwritten);
                    for row in 0..t.num_rows() {
                        let cell = CellRef::new(row, target);
                        prop_assert_eq!(
                            full.clean.get(cell),
                            sliced.clean.get(cell),
                            "{} after subset {:#b} of\n{}rules\n{}rounds {}",
                            cell, mask, dc_list, rules, rounds
                        );
                    }
                }
            }
        }
    }
}
