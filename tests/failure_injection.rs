//! Failure injection: the explanation machinery must survive brittle and
//! degenerate black boxes (DESIGN.md §6).

use trex::{Explainer, MaskMode};
use trex_constraints::{parse_dcs, DenialConstraint};
use trex_datagen::laliga;
use trex_repair::{NoOpRepair, PanicGuard, RepairAlgorithm, RepairResult};
use trex_shapley::SamplingConfig;
use trex_table::{CellRef, Table, Value};

/// A repairer that panics on any table containing a null cell — exactly the
/// inputs the masked cell game produces.
struct NullPhobic;

impl RepairAlgorithm for NullPhobic {
    fn name(&self) -> &str {
        "null-phobic"
    }
    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        assert!(
            dirty.cells_with_values().all(|(_, v)| !v.is_null()),
            "cannot handle nulls"
        );
        // Otherwise behave like Algorithm 1.
        laliga::algorithm1().repair(dcs, dirty)
    }
}

fn silence_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Without the guard the masked explanation would crash; with it, the
/// explanation completes and panicking coalitions count as "no repair".
#[test]
fn guarded_brittle_engine_survives_masked_explanation() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let guard = PanicGuard::new(NullPhobic);
    let ex = Explainer::new(&guard);
    let cell = laliga::cell_of_interest(&dirty);
    let out = silence_panics(|| {
        ex.explain_cells_masked(
            &dcs,
            &dirty,
            cell,
            MaskMode::Null,
            SamplingConfig {
                samples: 40,
                seed: 2,
            },
        )
    })
    .unwrap();
    // Every masked coalition with at least one null panicked; only the
    // full coalition evaluated normally. The explanation still exists and
    // panics were counted.
    assert_eq!(out.players.len(), 35);
    assert!(guard.panic_count() > 0);
}

/// A degenerate game (never repaired under any coalition) yields an
/// all-zero ranking rather than an error once the full run does repair.
#[test]
fn always_and_never_repairing_boxes() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();

    // Never repairs: refused upfront (cell not repaired by the full run).
    let ex = Explainer::new(&NoOpRepair);
    assert!(ex
        .explain_constraints(&dcs, &dirty, laliga::cell_of_interest(&dirty))
        .is_err());

    // Repairs regardless of the constraints: constraint Shapley mass is all
    // zero except... nothing — v(S) = 1 for every S including ∅, so every
    // marginal is 0 and the entire ranking is zeros. The explainer reports
    // that honestly (total = 0, every entry 0).
    struct Always;
    impl RepairAlgorithm for Always {
        fn name(&self) -> &str {
            "always"
        }
        fn repair(&self, _dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
            let mut clean = dirty.clone();
            let cell = laliga::cell_of_interest(dirty);
            clean.set(cell, Value::str("Spain"));
            RepairResult::from_tables(dirty, clean)
        }
    }
    let ex = Explainer::new(&Always);
    let out = ex
        .explain_constraints(&dcs, &dirty, laliga::cell_of_interest(&dirty))
        .unwrap();
    assert!(out.ranking.entries().iter().all(|e| e.value == 0.0));
    assert_eq!(out.ranking.total(), 0.0);
}

/// Constraints referring to attributes that do not exist: parse fine,
/// resolve with a precise error, and the rule engine panics loudly (a
/// caller bug, not a silent no-op) — while violation detection via the
/// public resolve path reports the attribute by name.
#[test]
fn unknown_attribute_constraints_fail_loudly_and_precisely() {
    let dirty = laliga::dirty_table();
    let dc = parse_dcs("X: !(t1.Nope = t2.Nope)").unwrap().remove(0);
    let err = dc.resolved(dirty.schema()).unwrap_err();
    assert_eq!(err.attr, "Nope");
    assert_eq!(err.constraint, "X");
}

/// Explaining over a program with a DC on an unknown column is an
/// explanation error naming the constraint and the column, on every entry
/// point (Algorithm 1 used to panic inside the repair).
#[test]
fn explanations_over_an_unresolvable_constraint_are_an_error_not_a_panic() {
    let mut dcs = laliga::constraints();
    dcs.extend(parse_dcs("C9: !(t1.Nope = t2.Nope & t1.City != t2.City)").unwrap());
    let session = trex::Session::new(Box::new(laliga::algorithm1()), laliga::dirty_table(), dcs);
    let cell = laliga::cell_of_interest(session.table());
    let expected = trex::ExplainError::UnresolvedConstraint(trex_constraints::ResolveError {
        constraint: "C9".into(),
        attr: "Nope".into(),
    });
    let config = SamplingConfig {
        samples: 10,
        seed: 0,
    };
    let constraints = session.explain_constraints(cell).unwrap_err();
    let cells = session
        .explain_cells_masked(cell, MaskMode::Null, config)
        .unwrap_err();
    assert_eq!(constraints, expected);
    assert_eq!(cells, expected);
    assert_eq!(
        expected.to_string(),
        "constraint C9: unknown attribute \"Nope\""
    );
}

/// Explaining a cell of a single-row table (no pairs, no violations).
#[test]
fn single_row_table_explains_nothing() {
    let t = trex_table::TableBuilder::new()
        .str_columns(["A", "B"])
        .str_row(["x", "y"])
        .build();
    let dcs = parse_dcs("C: !(t1.A = t2.A & t1.B != t2.B)").unwrap();
    let alg = laliga::algorithm1();
    let ex = Explainer::new(&alg);
    let err = ex
        .explain_constraints(&dcs, &t, CellRef::new(0, t.schema().id("B")))
        .unwrap_err();
    assert!(matches!(err, trex::ExplainError::CellNotRepaired { .. }));
}
