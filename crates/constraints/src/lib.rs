//! # trex-constraints
//!
//! Denial constraints (DCs) for the T-REx reproduction: the constraint
//! language the paper's repairs are driven by ([2] in its references).
//!
//! * [`ast`] — DC abstract syntax (`∀t1,t2.¬(p1 ∧ … ∧ pk)`), resolution
//!   against a schema.
//! * [`parser`] — textual syntax, `C1: !(t1.Team = t2.Team & t1.City !=
//!   t2.City)`, with `Display` round-tripping.
//! * [`parallel`] — the violation scan: [`find_all_violations_par`]
//!   partitions equality joins, splits each DC over worker threads with
//!   the same output at every thread count, and skips DCs the analyzer
//!   proves dead; [`find_violations_par_with`] is the per-DC scan the rule
//!   engine runs over its working codes.
//! * [`eval`] — violation witnesses (which rows/cells) and the nested-loop
//!   [`find_violations`], the reference the scan is tested against.
//! * [`fd`] — the functional-dependency subset: FD ↔ DC conversion and
//!   exact FD discovery.
//! * [`gen`] — random DC generation for scaling benchmarks.
//! * [`analyze`] / [`diagnostics`] — static analysis of DC programs:
//!   typechecking, unsatisfiability and tautology detection, subsumption,
//!   and scan-cost planning, reported as stable-coded [`Diagnostic`]s.

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub(crate) mod compiled;
pub mod diagnostics;
pub mod eval;
pub mod fd;
pub mod gen;
pub mod mine;
pub mod parallel;
pub mod parser;

pub use analyze::{
    analyze, analyze_with_table, statically_unviolable, typecheck, Analysis, DcPlan, DcVerdict,
    PlanStrategy,
};
pub use ast::{CmpOp, DenialConstraint, Operand, Predicate, ResolveError, Span, TupleVar};
pub use diagnostics::{Diagnostic, Severity};
pub use eval::{find_violations, violates_binding, Violation};
pub use fd::{discover_fds, discover_fds_approx, fds_of, FunctionalDependency};
pub use gen::{generate_dcs, DcGenConfig};
pub use mine::{mine_dcs, MineConfig};
pub use parallel::{find_all_violations_par, find_violations_par_with};
pub use parser::{parse_dc, parse_dc_named, parse_dcs, ParseError};

// Property tests, gated behind the `proptest` feature to keep plain
// `cargo test` fast. They compile against the offline shim in
// `vendor/proptest` (or crates.io proptest — CI's weekly cron runs both):
// `cargo test --workspace --features proptest`.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use trex_table::{Schema, Table, Value};

    /// Arbitrary DC whose predicates are same-attribute pairs over C0..C3.
    fn arb_dc() -> impl Strategy<Value = DenialConstraint> {
        let attr = 0usize..4;
        let op = prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Neq),
            Just(CmpOp::Lt),
            Just(CmpOp::Leq),
            Just(CmpOp::Gt),
            Just(CmpOp::Geq),
        ];
        proptest::collection::vec((attr, op), 1..4).prop_map(|preds| {
            DenialConstraint::new(
                "P",
                preds
                    .into_iter()
                    .map(|(a, o)| Predicate::pair(format!("C{a}"), o))
                    .collect(),
            )
        })
    }

    /// Small tables over an `Int` schema whose cells are nulls, integers,
    /// and their `Float` aliases (`Float(2.0)` SQL-equals `Int(2)` but has
    /// its own dictionary code), so equality joins meet both.
    fn arb_table() -> impl Strategy<Value = Table> {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    Just(Value::Null),
                    (0i64..4).prop_map(Value::Int),
                    (0i64..4).prop_map(|i| Value::Float(i as f64)),
                ],
                4,
            ),
            0..7,
        )
        .prop_map(|rows| {
            Table::from_rows(
                Schema::new((0..4).map(|i| (format!("C{i}"), trex_table::DType::Int))),
                rows,
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn parser_display_roundtrip(dc in arb_dc()) {
            let printed = dc.to_string();
            let parsed = parse_dc(&printed).unwrap();
            prop_assert_eq!(dc, parsed);
        }

        #[test]
        fn scan_equals_nested_loop(dc in arb_dc(), t in arb_table()) {
            let mut dc = dc;
            dc.resolve(t.schema()).unwrap();
            let mut a = find_violations(&dc, &t);
            let mut b = find_all_violations_par(std::slice::from_ref(&dc), &t, 1);
            a.sort_by_key(|v| (v.row1, v.row2));
            b.sort_by_key(|v| (v.row1, v.row2));
            prop_assert_eq!(a, b);
        }

        #[test]
        fn nulling_cells_never_creates_violations(dc in arb_dc(), t in arb_table()) {
            let mut dc = dc;
            dc.resolve(t.schema()).unwrap();
            let before = find_violations(&dc, &t).len();
            if t.num_cells() > 0 {
                let mut t2 = t.clone();
                let cell = t2.cells().next().unwrap();
                t2.set(cell, Value::Null);
                let after = find_violations(&dc, &t2).len();
                prop_assert!(after <= before,
                    "nulling a cell increased violations: {before} -> {after}");
            }
        }

        #[test]
        fn all_null_table_is_clean(dc in arb_dc(), t in arb_table()) {
            let mut dc = dc;
            dc.resolve(t.schema()).unwrap();
            let masked = t.masked_keep(&vec![false; t.num_cells()]);
            prop_assert!(find_all_violations_par(&[dc], &masked, 1).is_empty());
        }

        #[test]
        fn unviolable_verdicts_mean_zero_witnesses(dc in arb_dc(), t in arb_table()) {
            // The soundness contract dead-DC skipping rests on: a DC the
            // analyzer proves statically unviolable has an empty
            // brute-force witness list on every generated table.
            if statically_unviolable(&dc).is_some() {
                let mut dc = dc;
                dc.resolve(t.schema()).unwrap();
                prop_assert!(find_violations(&dc, &t).is_empty());
            }
        }

        #[test]
        fn program_scan_matches_the_nested_loop_at_any_thread_count(
            dcs in proptest::collection::vec(arb_dc(), 1..4),
            t in arb_table(),
        ) {
            let dcs: Vec<DenialConstraint> = dcs
                .into_iter()
                .enumerate()
                .map(|(i, mut dc)| {
                    dc.name = format!("P{i}");
                    dc.resolve(t.schema()).unwrap();
                    dc
                })
                .collect();
            // Compared per DC as a witness set (the DC names are
            // distinct), the scan — dead DCs skipped — is the nested loop;
            // every thread count returns the 1-thread output.
            let key = |v: &Violation| (v.constraint.clone(), v.row1, v.row2);
            let mut reference: Vec<Violation> =
                dcs.iter().flat_map(|dc| find_violations(dc, &t)).collect();
            reference.sort_by_key(key);
            let one = find_all_violations_par(&dcs, &t, 1);
            let mut sorted = one.clone();
            sorted.sort_by_key(key);
            prop_assert_eq!(&reference, &sorted);
            for threads in [2, 4, 8] {
                prop_assert_eq!(
                    &one,
                    &find_all_violations_par(&dcs, &t, threads),
                    "threads = {}", threads
                );
            }
        }

        #[test]
        fn subsumed_dcs_find_no_new_violation_pairs(
            dcs in proptest::collection::vec(arb_dc(), 2..4),
            t in arb_table(),
        ) {
            // A subsumption verdict claims every violation pair of the
            // subsumed DC is already found by its subsumer, so dropping the
            // subsumed DC loses no (row1, row2) pair — the surviving DCs'
            // own witness lists are per-DC and untouched by construction.
            let dcs: Vec<DenialConstraint> = dcs
                .into_iter()
                .enumerate()
                .map(|(i, mut dc)| {
                    dc.name = format!("P{i}");
                    dc.resolve(t.schema()).unwrap();
                    dc
                })
                .collect();
            let analysis = analyze(&dcs, Some(t.schema()));
            for (i, v) in analysis.verdicts.iter().enumerate() {
                let Some(by) = &v.subsumed_by else { continue };
                let subsumer = dcs.iter().find(|d| &d.name == by).unwrap();
                let wins: std::collections::HashSet<(usize, Option<usize>)> =
                    find_violations(subsumer, &t)
                        .into_iter()
                        .map(|w| {
                            let (a, b) = (w.row1, w.row2);
                            // Unordered pair: the t1↔t2 renaming mirrors
                            // ordered pairs.
                            if let Some(b) = b {
                                (a.min(b), Some(a.max(b)))
                            } else {
                                (a, None)
                            }
                        })
                        .collect();
                for w in find_violations(&dcs[i], &t) {
                    let key = if let Some(b) = w.row2 {
                        (w.row1.min(b), Some(w.row1.max(b)))
                    } else {
                        (w.row1, None)
                    };
                    prop_assert!(
                        wins.contains(&key),
                        "{} subsumed by {} but pair {:?} is not covered",
                        dcs[i].name, by, key
                    );
                }
            }
        }

        #[test]
        fn fd_dc_conversion_roundtrip(lhs in proptest::collection::hash_set(0usize..4, 1..3)) {
            let fd = FunctionalDependency::new(
                lhs.iter().map(|i| format!("C{i}")),
                "C9",
            );
            let dc = fd.to_dc("X");
            let back = FunctionalDependency::from_dc(&dc).unwrap();
            prop_assert_eq!(back.rhs, fd.rhs);
            let mut a = back.lhs.clone();
            let mut b = fd.lhs.clone();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
    }
}
