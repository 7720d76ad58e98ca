//! The value-level Algorithm 1 that the coded engine replaced, kept as a
//! test reference: a table snapshot per rule, `HashMap<&Value>` modes, and
//! a whole-table diff. The differential tests below hold
//! [`RuleRepair::repair`] to it.
//!
//! The reference breaks its last mode tie with `Value::cmp`, which calls
//! some distinct values equal (`Int(2)` and `Float(2.0)`, or
//! `Int(2^53 + 1)` and `Float(2^53)`); such ties then follow `HashMap`
//! order. The generated inputs keep those pairs out of every column a rule
//! writes, so the reference is deterministic on them.

use super::{FixAction, RuleRepair};
use crate::traits::RepairResult;
use std::collections::HashMap;
use trex_constraints::{find_all_violations_par, DenialConstraint};
use trex_table::{AttrId, CellRef, Table, Value};

/// Pick the argmax of `counts` with the repair tie-break: highest count;
/// ties prefer values *different* from `current`; remaining ties prefer
/// the smaller value.
fn pick_mode(counts: HashMap<&Value, usize>, current: &Value) -> Option<Value> {
    counts
        .into_iter()
        .max_by(|(va, ca), (vb, cb)| {
            ca.cmp(cb)
                .then_with(|| (*va != current).cmp(&(*vb != current)))
                .then_with(|| vb.cmp(va))
        })
        .map(|(v, _)| v.clone())
}

/// Mode of `attr` over all rows of `table`, with the repair tie-break
/// relative to `current` (the repaired row's present value).
fn mode(table: &Table, attr: AttrId, current: &Value) -> Option<Value> {
    let mut counts: HashMap<&Value, usize> = HashMap::new();
    for r in 0..table.num_rows() {
        let v = table.value(r, attr);
        if v.is_concrete() {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    pick_mode(counts, current)
}

/// Conditional mode of `attr` given `given = g` over all rows, with the
/// repair tie-break relative to `current`.
fn conditional_mode(
    table: &Table,
    attr: AttrId,
    given: AttrId,
    g: &Value,
    current: &Value,
) -> Option<Value> {
    if !g.is_concrete() {
        return None;
    }
    let mut counts: HashMap<&Value, usize> = HashMap::new();
    for r in 0..table.num_rows() {
        if !table.value(r, given).sql_eq(g) {
            continue;
        }
        let v = table.value(r, attr);
        if v.is_concrete() {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    pick_mode(counts, current)
}

/// Apply one rule to the violations of one constraint on `table`.
/// Returns the number of cells changed.
fn apply_rule(
    alg: &RuleRepair,
    dc: &DenialConstraint,
    action: &FixAction,
    table: &mut Table,
) -> usize {
    let snapshot = table.clone();
    let mut rows: Vec<usize> = Vec::new();
    for v in find_all_violations_par(std::slice::from_ref(dc), &snapshot, alg.threads) {
        for r in [Some(v.row1), v.row2].into_iter().flatten() {
            if !rows.contains(&r) {
                rows.push(r);
            }
        }
    }
    rows.sort_unstable();

    let Some(attr) = snapshot.schema().resolve(action.target_attr()) else {
        return 0;
    };
    let mut changed = 0;
    for r in rows {
        let current = snapshot.value(r, attr).clone();
        let new_value = match action {
            FixAction::MostCommon { .. } => mode(&snapshot, attr, &current),
            FixAction::MostCommonGiven { given, .. } => {
                let Some(given_id) = snapshot.schema().resolve(given) else {
                    continue;
                };
                let g = snapshot.value(r, given_id).clone();
                conditional_mode(&snapshot, attr, given_id, &g, &current)
            }
            FixAction::SetConstant { value, .. } => Some(value.clone()),
        };
        if let Some(v) = new_value {
            let cell = CellRef::new(r, attr);
            if table.get(cell) != &v {
                table.set(cell, v);
                changed += 1;
            }
        }
    }
    changed
}

/// [`RuleRepair::repair`], the value-level way.
pub(super) fn repair(alg: &RuleRepair, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
    let resolved: Vec<DenialConstraint> = dcs
        .iter()
        .map(|dc| {
            dc.resolved(dirty.schema())
                .expect("test constraints resolve")
        })
        .collect();
    let mut table = dirty.clone();
    for _ in 0..alg.max_rounds {
        let mut changed = 0;
        for dc in &resolved {
            if let Some(rule) = alg.rule_for(&dc.name) {
                changed += apply_rule(alg, dc, &rule.action, &mut table);
            }
        }
        if changed == 0 {
            break;
        }
    }
    RepairResult::from_tables(dirty, table)
}

mod tests {
    use super::*;
    use crate::simple::Rule;
    use crate::traits::RepairAlgorithm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trex_constraints::parse_dcs;
    use trex_shapley::ExecConfig;
    use trex_table::Schema;

    /// Columns: `A` and `B` hold strings (plus the odd int and bool), `N`
    /// mixes ints with the equal-valued integral floats, `M` mixes ints
    /// with non-integral floats. Every column sprinkles nulls and labeled
    /// nulls. `N` is only ever read (joins, `given`), never written, so no
    /// column a rule writes holds two values `Value::cmp` calls equal.
    const COLUMNS: [&str; 4] = ["A", "B", "N", "M"];
    const WRITABLE: [&str; 3] = ["A", "B", "M"];

    /// Constraint pool: equality joins on each column (one of them on the
    /// aliasing `N`), unary constant DCs, a join-free pair DC (nested-loop
    /// scan) and a cross-column DC.
    const DCS: &str = "\
        D1: !(t1.A = t2.A & t1.B != t2.B)\n\
        D2: !(t1.B = t2.B & t1.M != t2.M)\n\
        D3: !(t1.N = t2.N & t1.A != t2.A)\n\
        D4: !(t1.M = 1)\n\
        D5: !(t1.A = \"a1\")\n\
        D6: !(t1.M < t2.M & t1.N > t2.N)\n\
        D7: !(t1.A = t2.B & t1.M != t2.M)\n\
        D8: !(t1.A = t2.A & t1.N = t2.N & t1.M > t2.M)\n";

    fn null_or<R: Rng>(rng: &mut R, concrete: impl FnOnce(&mut R) -> Value) -> Value {
        match rng.gen_range(0..10) {
            0 => Value::Null,
            1 => Value::LabeledNull(rng.gen_range(0..3)),
            _ => concrete(rng),
        }
    }

    fn cell<R: Rng>(rng: &mut R, column: usize) -> Value {
        null_or(rng, |rng| match column {
            0 | 1 => match rng.gen_range(0..12) {
                0 => Value::int(rng.gen_range(0..2)),
                1 => Value::Bool(rng.gen_bool(0.5)),
                _ => Value::str(format!("{}{}", ["a", "b"][column], rng.gen_range(0..4))),
            },
            2 => {
                let k = rng.gen_range(0..3);
                if rng.gen_bool(0.5) {
                    Value::int(k)
                } else {
                    Value::Float(k as f64)
                }
            }
            _ => {
                let k = rng.gen_range(0..4);
                if rng.gen_bool(0.7) {
                    Value::int(k)
                } else {
                    Value::Float(k as f64 + 0.5)
                }
            }
        })
    }

    fn table<R: Rng>(rng: &mut R) -> Table {
        let rows = if rng.gen_bool(0.2) {
            rng.gen_range(12..40)
        } else {
            rng.gen_range(0..12)
        };
        let rows = (0..rows)
            .map(|_| (0..COLUMNS.len()).map(|c| cell(rng, c)).collect())
            .collect();
        Table::from_rows(Schema::of_strings(COLUMNS.map(String::from)), rows)
    }

    /// A `const` value for column `attr`: one the column may hold, or one
    /// it never does.
    fn constant<R: Rng>(rng: &mut R, attr: &str) -> Value {
        match (attr, rng.gen_range(0..3)) {
            ("M", 0) => Value::int(7),
            ("M", 1) => Value::Float(9.5),
            ("M", _) => Value::int(rng.gen_range(0..4)),
            (_, 0) => Value::str("fresh"),
            (_, _) => Value::str(format!("a{}", rng.gen_range(0..4))),
        }
    }

    fn rules<R: Rng>(rng: &mut R, dcs: &[DenialConstraint]) -> Vec<Rule> {
        let mut out = Vec::new();
        for dc in dcs {
            if rng.gen_bool(0.15) {
                continue; // a constraint without a fix rule
            }
            let attr = WRITABLE[rng.gen_range(0..WRITABLE.len())].to_string();
            let action = match rng.gen_range(0..3) {
                0 => FixAction::MostCommon { attr },
                1 => FixAction::MostCommonGiven {
                    attr,
                    given: COLUMNS[rng.gen_range(0..COLUMNS.len())].to_string(),
                },
                _ => {
                    let value = constant(rng, &attr);
                    FixAction::SetConstant { attr, value }
                }
            };
            out.push(Rule::new(dc.name.clone(), action));
        }
        out
    }

    /// A random subset of the pool, in random order.
    fn subset<R: Rng>(rng: &mut R, pool: &[DenialConstraint]) -> Vec<DenialConstraint> {
        let mut picked: Vec<DenialConstraint> =
            pool.iter().filter(|_| rng.gen_bool(0.5)).cloned().collect();
        for i in (1..picked.len()).rev() {
            picked.swap(i, rng.gen_range(0..=i));
        }
        picked
    }

    #[test]
    fn coded_engine_matches_the_value_level_reference() {
        let pool = parse_dcs(DCS).unwrap();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut changed = 0;
        for case in 0..600 {
            let t = table(&mut rng);
            let dcs = subset(&mut rng, &pool);
            let rules = rules(&mut rng, &dcs);
            let rounds = rng.gen_range(1..=3);
            for threads in [1, 4] {
                let exec = ExecConfig::new().with_threads(threads);
                let alg = RuleRepair::new(rules.clone())
                    .with_max_rounds(rounds)
                    .with_exec(&exec);
                let coded = alg.repair(&dcs, &t);
                let want = repair(&alg, &dcs, &t);
                let context = || {
                    format!("case {case}, {threads} thread(s), {rounds} round(s)\n{t}{dcs:?}\n{rules:?}")
                };
                assert_eq!(coded.clean, want.clean, "{}", context());
                assert_eq!(coded.changes, want.changes, "{}", context());
                changed += coded.changes.len();
            }
        }
        assert!(
            changed > 3000,
            "the cases must exercise repairs ({changed} changes)"
        );
    }
}
