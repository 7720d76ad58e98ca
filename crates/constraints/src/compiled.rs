//! Code-level predicate evaluation over a dictionary-encoded table.
//!
//! [`CompiledDc`] splits a resolved DC's predicates once per scan into
//! *fast* predicates — both operands are attributes of the **same** column,
//! so they evaluate as two `u32` loads plus a code comparison through the
//! column's [`Dictionary`](trex_table::Dictionary) — and *slow* predicates
//! (constants or cross-column attribute pairs), which fall back to the
//! exact [`Value`](trex_table::Value)-level evaluation. The split is a pure
//! boolean pre-filter: when a binding passes, the caller builds the witness
//! with the existing value-level machinery, so the output of an encoded
//! scan is byte-identical to the unencoded one.

use crate::ast::{CmpOp, DenialConstraint, Operand, Predicate, TupleVar};
use crate::eval::{operand_value, Violation};
use std::cmp::Ordering;
use trex_table::{AttrId, CellRef, Dictionary, EncodedTable, Table};

/// A same-column attribute-vs-attribute predicate, evaluable on codes.
struct FastPred {
    attr: AttrId,
    op: CmpOp,
    lvar: TupleVar,
    rvar: TupleVar,
}

/// A resolved DC with its predicates pre-sorted into code-level and
/// value-level evaluation paths (see the module docs).
pub(crate) struct CompiledDc<'a> {
    dc: &'a DenialConstraint,
    /// The DC name as a shareable `Arc`, cloned (refcounted) into every
    /// witness instead of heap-copied.
    name: std::sync::Arc<str>,
    fast: Vec<FastPred>,
    slow: Vec<&'a Predicate>,
    /// The `(var, attr)` pairs the predicates read, deduplicated in
    /// discovery order — the witness-cell template of [`CompiledDc::witness`].
    cells: Vec<(TupleVar, AttrId)>,
}

fn row_of(var: TupleVar, r1: usize, r2: usize) -> usize {
    match var {
        TupleVar::T1 => r1,
        TupleVar::T2 => r2,
    }
}

impl<'a> CompiledDc<'a> {
    /// Split `dc`'s predicates into fast (same-column code compares) and
    /// slow (everything else). `dc` must be resolved; unresolved attribute
    /// predicates compile to the slow path, which panics exactly like the
    /// unencoded scan does.
    pub(crate) fn compile(dc: &'a DenialConstraint) -> CompiledDc<'a> {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        let mut cells: Vec<(TupleVar, AttrId)> = Vec::new();
        for p in &dc.predicates {
            for o in [&p.left, &p.right] {
                if let Operand::Attr {
                    var,
                    attr_id: Some(a),
                    ..
                } = o
                {
                    if !cells.contains(&(*var, *a)) {
                        cells.push((*var, *a));
                    }
                }
            }
            match (&p.left, &p.right) {
                (
                    Operand::Attr {
                        var: lv,
                        attr_id: Some(la),
                        ..
                    },
                    Operand::Attr {
                        var: rv,
                        attr_id: Some(ra),
                        ..
                    },
                ) if la == ra => fast.push(FastPred {
                    attr: *la,
                    op: p.op,
                    lvar: *lv,
                    rvar: *rv,
                }),
                _ => slow.push(p),
            }
        }
        CompiledDc {
            dc,
            name: std::sync::Arc::from(dc.name.as_str()),
            fast,
            slow,
            cells,
        }
    }

    /// The constraint this was compiled from.
    pub(crate) fn dc(&self) -> &'a DenialConstraint {
        self.dc
    }

    /// The witness for a known-violating ordered binding `(r1, r2)` with
    /// `r1 != r2`: the cells come from the precomputed `(var, attr)`
    /// template, which deduplicates exactly like a per-pair `CellRef` scan
    /// does as long as the two rows differ.
    pub(crate) fn witness(&self, r1: usize, r2: usize) -> Violation {
        debug_assert_ne!(r1, r2, "the cell template assumes distinct rows");
        Violation {
            constraint: self.name.clone(),
            row1: r1,
            row2: Some(r2),
            cells: self
                .cells
                .iter()
                .map(|&(var, attr)| CellRef::new(row_of(var, r1, r2), attr))
                .collect(),
        }
    }

    /// Resolve each fast predicate's column slice and dictionary against one
    /// encoding, so the per-pair loop runs on locals instead of re-indexing
    /// `enc` for every binding. Fast *equality-join* predicates on
    /// `skip_key` attributes are dropped: inside an equality group the
    /// rows' non-null codes on each key attribute share one SQL-equality
    /// class ([`Dictionary::eq_class`]), so those predicates hold
    /// tautologically.
    pub(crate) fn bind<'e>(
        &self,
        enc: &'e EncodedTable,
        skip_key: &[AttrId],
    ) -> BoundDc<'a, '_, 'e> {
        let fast = self
            .fast
            .iter()
            .filter(|f| !(f.op == CmpOp::Eq && f.lvar != f.rvar && skip_key.contains(&f.attr)))
            .map(|f| BoundFast {
                codes: enc.codes(f.attr),
                dict: enc.dict(f.attr),
                op: f.op,
                lvar: f.lvar,
                rvar: f.rvar,
            })
            .collect();
        BoundDc {
            fast,
            slow: &self.slow,
        }
    }

    /// Does the ordered binding `(t1 = r1, t2 = r2)` violate the DC (every
    /// predicate holds)? Exactly [`crate::eval::violates_binding`], with the
    /// same-column predicates answered from `enc`'s codes. One-shot
    /// convenience over [`CompiledDc::bind`] — scans bind once and reuse the
    /// bound value across the pair loop.
    #[cfg(test)]
    pub(crate) fn holds(&self, table: &Table, enc: &EncodedTable, r1: usize, r2: usize) -> bool {
        self.bind(enc, &[]).holds(table, r1, r2)
    }
}

/// A [`FastPred`] bound to one encoding: the column's code slice and
/// dictionary resolved once per scan.
struct BoundFast<'e> {
    codes: &'e [u32],
    dict: &'e Dictionary,
    op: CmpOp,
    lvar: TupleVar,
    rvar: TupleVar,
}

/// A [`CompiledDc`] bound to one [`EncodedTable`] (see [`CompiledDc::bind`]).
pub(crate) struct BoundDc<'a, 's, 'e> {
    fast: Vec<BoundFast<'e>>,
    slow: &'s [&'a Predicate],
}

impl BoundDc<'_, '_, '_> {
    /// Does the ordered binding `(t1 = r1, t2 = r2)` violate the DC? See
    /// [`CompiledDc::holds`]; any equality-join predicates skipped at bind
    /// time are treated as holding.
    #[inline]
    pub(crate) fn holds(&self, table: &Table, r1: usize, r2: usize) -> bool {
        for f in &self.fast {
            let (ca, cb) = (
                f.codes[row_of(f.lvar, r1, r2)],
                f.codes[row_of(f.rvar, r1, r2)],
            );
            let ok = match f.op {
                CmpOp::Eq => f.dict.sql_eq_codes(ca, cb),
                CmpOp::Neq => f.dict.sql_ne_codes(ca, cb),
                CmpOp::Lt => f.dict.sql_cmp_codes(ca, cb) == Some(Ordering::Less),
                CmpOp::Leq => matches!(
                    f.dict.sql_cmp_codes(ca, cb),
                    Some(Ordering::Less | Ordering::Equal)
                ),
                CmpOp::Gt => f.dict.sql_cmp_codes(ca, cb) == Some(Ordering::Greater),
                CmpOp::Geq => matches!(
                    f.dict.sql_cmp_codes(ca, cb),
                    Some(Ordering::Greater | Ordering::Equal)
                ),
            };
            if !ok {
                return false;
            }
        }
        for p in self.slow {
            let (lv, _) = operand_value(&p.left, table, r1, r2);
            let (rv, _) = operand_value(&p.right, table, r1, r2);
            if !p.op.eval(lv, rv) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::violates_binding;
    use crate::parser::parse_dc;
    use trex_table::{CellRef, TableBuilder, Value};

    fn table() -> Table {
        TableBuilder::new()
            .column("Team", trex_table::DType::Str)
            .column("City", trex_table::DType::Str)
            .column("N", trex_table::DType::Int)
            .row([Value::str("Real"), Value::str("Madrid"), Value::int(3)])
            .row([Value::str("Real"), Value::str("Capital"), Value::int(1)])
            .row([Value::str("Barca"), Value::str("Barcelona"), Value::int(3)])
            .row([Value::str("Real"), Value::Null, Value::int(2)])
            .build()
    }

    #[test]
    fn compiled_agrees_with_value_eval_on_every_binding() {
        let t = table();
        let enc = EncodedTable::encode(&t);
        for src in [
            "!(t1.Team = t2.Team & t1.City != t2.City)",
            "!(t1.Team = t2.Team & t1.N > t2.N)",
            "!(t1.N >= t2.N & t1.N <= t2.N & t1.Team != t2.Team)",
            "!(t1.City = \"Capital\")",
            "!(t1.N < t2.N)",
        ] {
            let mut dc = parse_dc(src).unwrap();
            dc.resolve(t.schema()).unwrap();
            let cdc = CompiledDc::compile(&dc);
            for i in 0..t.num_rows() {
                for j in 0..t.num_rows() {
                    assert_eq!(
                        cdc.holds(&t, &enc, i, j),
                        violates_binding(&dc, &t, i, j),
                        "{src} at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn cross_column_predicates_use_the_slow_path() {
        let mut t = table();
        t.set(CellRef::new(2, AttrId(0)), Value::str("Barcelona"));
        let mut dc = parse_dc("!(t1.Team = t2.City)").unwrap();
        dc.resolve(t.schema()).unwrap();
        let cdc = CompiledDc::compile(&dc);
        assert!(cdc.fast.is_empty(), "cross-column pair cannot use codes");
        let enc = EncodedTable::encode(&t);
        for i in 0..t.num_rows() {
            for j in 0..t.num_rows() {
                assert_eq!(cdc.holds(&t, &enc, i, j), violates_binding(&dc, &t, i, j));
            }
        }
    }

    #[test]
    fn null_and_labeled_null_bindings_never_hold() {
        let mut t = table();
        t.set(CellRef::new(0, AttrId(0)), Value::LabeledNull(9));
        let enc = EncodedTable::encode(&t);
        let mut dc = parse_dc("!(t1.Team = t2.Team & t1.City != t2.City)").unwrap();
        dc.resolve(t.schema()).unwrap();
        let cdc = CompiledDc::compile(&dc);
        for i in 0..t.num_rows() {
            for j in 0..t.num_rows() {
                assert_eq!(cdc.holds(&t, &enc, i, j), violates_binding(&dc, &t, i, j));
            }
        }
    }
}
