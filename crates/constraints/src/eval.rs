//! Violation witnesses and the nested-loop reference scan.
//!
//! A binary DC `¬(p1 ∧ … ∧ pk)` is violated by an *ordered* pair of distinct
//! tuples `(t1, t2)` on which every predicate holds; a unary DC by a single
//! tuple. [`find_violations`] enumerates all violations of one DC against a
//! table by brute force, returning [`Violation`] *witnesses* (which rows,
//! which cells) — repair algorithms consume the cells to decide what to
//! change, and the HoloClean-style engine uses them to mark noisy cells.
//! Programs scan through [`crate::parallel::find_all_violations_par`];
//! this module's loop is the reference that scan is tested against.
//!
//! Ordered-pair semantics matter: `¬(t1.A = t2.A ∧ t1.B > t2.B)` is
//! asymmetric, so `(i, j)` violating does not imply `(j, i)` does. For
//! symmetric DCs each unordered conflict is reported twice (once per order);
//! [`Violation::canonical_rows`] lets callers deduplicate when needed.
//!
//! Null semantics: any predicate touching a null cell is false, so nulled
//! (masked-out) cells can never participate in a violation — the invariant
//! the cell-level Shapley game relies on.

use crate::ast::{DenialConstraint, Operand, Predicate, TupleVar};
use std::fmt;
use std::sync::Arc;
use trex_table::{CellRef, Table, Value};

/// A single violation witness of one DC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated constraint. Shared (`Arc<str>`) rather than
    /// copied: large tables report tens of thousands of witnesses per DC,
    /// and a per-witness heap allocation for the same few bytes dominated
    /// the scan profile.
    pub constraint: Arc<str>,
    /// Row bound to `t1`.
    pub row1: usize,
    /// Row bound to `t2` (`None` for unary DCs).
    pub row2: Option<usize>,
    /// The cells whose values the predicates read, i.e. the cells implicated
    /// in this violation.
    pub cells: Vec<CellRef>,
}

impl Violation {
    /// Rows sorted ascending, for deduplicating symmetric double-reports.
    pub fn canonical_rows(&self) -> (usize, Option<usize>) {
        match self.row2 {
            Some(r2) if r2 < self.row1 => (r2, Some(self.row1)),
            other => (self.row1, other),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.row2 {
            Some(r2) => write!(f, "{}: (t{}, t{})", self.constraint, self.row1 + 1, r2 + 1),
            None => write!(f, "{}: (t{})", self.constraint, self.row1 + 1),
        }
    }
}

pub(crate) fn operand_value<'t>(
    op: &'t Operand,
    table: &'t Table,
    r1: usize,
    r2: usize,
) -> (&'t Value, Option<CellRef>) {
    match op {
        Operand::Const(v) => (v, None),
        Operand::Attr {
            var, attr_id, name, ..
        } => {
            let attr = attr_id.unwrap_or_else(|| {
                panic!("unresolved attribute {name:?}: call DenialConstraint::resolve first")
            });
            let row = match var {
                TupleVar::T1 => r1,
                TupleVar::T2 => r2,
            };
            let cell = CellRef::new(row, attr);
            (table.get(cell), Some(cell))
        }
    }
}

/// Evaluate one predicate on a row binding; returns the cells read iff it
/// holds.
fn predicate_holds(
    p: &Predicate,
    table: &Table,
    r1: usize,
    r2: usize,
    cells: &mut Vec<CellRef>,
) -> bool {
    let (lv, lc) = operand_value(&p.left, table, r1, r2);
    let (rv, rc) = operand_value(&p.right, table, r1, r2);
    if p.op.eval(lv, rv) {
        if let Some(c) = lc {
            if !cells.contains(&c) {
                cells.push(c);
            }
        }
        if let Some(c) = rc {
            if !cells.contains(&c) {
                cells.push(c);
            }
        }
        true
    } else {
        false
    }
}

/// Does the (resolved) DC hold violated for the ordered binding
/// `(t1 = row1, t2 = row2)`? For unary DCs `row2` is ignored.
pub fn violates_binding(dc: &DenialConstraint, table: &Table, row1: usize, row2: usize) -> bool {
    let mut scratch = Vec::new();
    dc.predicates
        .iter()
        .all(|p| predicate_holds(p, table, row1, row2, &mut scratch))
}

/// The witness for the ordered binding `(t1 = r1, t2 = r2)` if it violates
/// `dc`. Shared with [`crate::parallel`], whose unary scans build their
/// witnesses here.
pub(crate) fn violation_for(
    dc: &DenialConstraint,
    table: &Table,
    r1: usize,
    r2: usize,
) -> Option<Violation> {
    let mut cells = Vec::new();
    for p in &dc.predicates {
        if !predicate_holds(p, table, r1, r2, &mut cells) {
            return None;
        }
    }
    Some(Violation {
        constraint: Arc::from(dc.name.as_str()),
        row1: r1,
        row2: if dc.is_binary() { Some(r2) } else { None },
        cells,
    })
}

/// Find all violations of a single resolved DC, by nested-loop evaluation.
///
/// Binary DCs scan all ordered pairs `(i, j)`, `i ≠ j`; unary DCs scan all
/// rows. This is the test reference of the program scan,
/// [`crate::parallel::find_all_violations_par`], which partitions equality
/// joins instead.
pub fn find_violations(dc: &DenialConstraint, table: &Table) -> Vec<Violation> {
    let n = table.num_rows();
    let mut out = Vec::new();
    if dc.is_binary() {
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                if let Some(v) = violation_for(dc, table, i, j) {
                    out.push(v);
                }
            }
        }
    } else {
        for i in 0..n {
            if let Some(v) = violation_for(dc, table, i, i) {
                out.push(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, Operand, Predicate};
    use crate::parser::parse_dc;
    use trex_table::{Schema, TableBuilder, Value};

    fn soccer() -> Table {
        TableBuilder::new()
            .str_columns(["Team", "City", "Country"])
            .str_row(["Real Madrid", "Madrid", "Spain"])
            .str_row(["Barcelona", "Barcelona", "Spain"])
            .str_row(["Real Madrid", "Capital", "España"])
            .build()
    }

    fn resolved(src: &str, schema: &Schema) -> DenialConstraint {
        let mut dc = parse_dc(src).unwrap();
        dc.resolve(schema).unwrap();
        dc
    }

    #[test]
    fn binary_violations_are_ordered_pairs() {
        let t = soccer();
        let dc = resolved("!(t1.Team = t2.Team & t1.City != t2.City)", t.schema());
        let vs = find_violations(&dc, &t);
        // rows 0 and 2 share Team but differ in City: both orders reported.
        assert_eq!(vs.len(), 2);
        let pairs: Vec<(usize, Option<usize>)> = vs.iter().map(|v| (v.row1, v.row2)).collect();
        assert!(pairs.contains(&(0, Some(2))));
        assert!(pairs.contains(&(2, Some(0))));
        assert_eq!(vs[0].canonical_rows(), (0, Some(2)));
        assert_eq!(vs[1].canonical_rows(), (0, Some(2)));
    }

    #[test]
    fn witness_cells_cover_read_cells() {
        let t = soccer();
        let dc = resolved("!(t1.Team = t2.Team & t1.City != t2.City)", t.schema());
        let v = &find_violations(&dc, &t)[0];
        let team = t.schema().id("Team");
        let city = t.schema().id("City");
        assert_eq!(v.cells.len(), 4);
        assert!(v.cells.contains(&CellRef::new(0, team)));
        assert!(v.cells.contains(&CellRef::new(2, team)));
        assert!(v.cells.contains(&CellRef::new(0, city)));
        assert!(v.cells.contains(&CellRef::new(2, city)));
    }

    #[test]
    fn nulls_suppress_violations() {
        let mut t = soccer();
        let city = t.schema().id("City");
        t.set(CellRef::new(2, city), Value::Null);
        let dc = resolved("!(t1.Team = t2.Team & t1.City != t2.City)", t.schema());
        assert!(find_violations(&dc, &t).is_empty());
    }

    #[test]
    fn unary_dc_with_constant() {
        let t = soccer();
        let dc = resolved("!(t1.City = \"Capital\")", t.schema());
        let vs = find_violations(&dc, &t);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].row1, 2);
        assert_eq!(vs[0].row2, None);
    }

    #[test]
    fn asymmetric_dc_reports_one_order() {
        let t = TableBuilder::new()
            .column("A", trex_table::DType::Str)
            .column("N", trex_table::DType::Int)
            .row([Value::str("x"), Value::int(1)])
            .row([Value::str("x"), Value::int(5)])
            .build();
        let dc = resolved("!(t1.A = t2.A & t1.N > t2.N)", t.schema());
        let vs = find_violations(&dc, &t);
        assert_eq!(vs.len(), 1);
        assert_eq!((vs[0].row1, vs[0].row2), (1, Some(0)));
    }

    #[test]
    #[should_panic(expected = "unresolved attribute")]
    fn unresolved_dc_panics_loudly() {
        let t = soccer();
        let dc = parse_dc("!(t1.Team = t2.Team)").unwrap();
        let _ = find_violations(&dc, &t);
    }

    #[test]
    fn empty_table_has_no_violations() {
        let t = Table::empty(Schema::of_strings(["A"]));
        let dc = resolved("!(t1.A = t2.A)", t.schema());
        assert!(find_violations(&dc, &t).is_empty());
    }

    #[test]
    fn single_tuple_cannot_violate_binary_dc() {
        // A reflexive predicate like t1.A = t2.A is trivially true for i=i,
        // but i == j pairs are excluded.
        let t = TableBuilder::new()
            .str_columns(["A"])
            .str_row(["x"])
            .build();
        let dc = resolved("!(t1.A = t2.A)", t.schema());
        assert!(find_violations(&dc, &t).is_empty());
    }

    #[test]
    fn cross_attribute_predicate() {
        let t = soccer();
        let mut dc = DenialConstraint::new(
            "X",
            vec![Predicate::new(
                Operand::attr(TupleVar::T1, "Team"),
                CmpOp::Eq,
                Operand::attr(TupleVar::T2, "City"),
            )],
        );
        dc.resolve(t.schema()).unwrap();
        // t1.Team = "Barcelona" matches t2.City = "Barcelona" (rows 1,1 excluded? no:
        // ordered pairs i≠j, t1=row1 Team=Barcelona, t2=row1 City=Barcelona is i=j — excluded;
        // but t1=row1 (Team Barcelona) with t2=row1 excluded, so no pair... Team "Real Madrid" vs City — none.
        // Actually row1.Team = "Barcelona" and row1.City = "Barcelona": only the i=j binding matches, excluded.
        let vs = find_violations(&dc, &t);
        assert!(vs.is_empty());
    }
}
