//! Hash-partitioned violation detection.
//!
//! Most useful DCs (and all four of the paper's) contain at least one
//! *equality join* predicate `t1.A = t2.A`. Rows can then be partitioned by
//! their key on the equality attributes; only pairs within a partition can
//! possibly violate, turning the `O(n²)` nested loop into `O(n + Σ b_i²)`
//! where `b_i` are bucket sizes. On realistic tables with selective keys this
//! is orders of magnitude faster (benchmarked in `trex-bench`:
//! `violation_detection`, ablation A2 of DESIGN.md).
//!
//! Rows with a null on any join attribute are excluded outright: a null never
//! satisfies `t1.A = t2.A`, so they cannot participate in a violation through
//! this DC — which keeps the fast path exactly equivalent to
//! [`crate::eval::find_violations`] (property-tested in `lib.rs`).

use crate::ast::DenialConstraint;
use crate::compiled::CompiledDc;
use crate::eval::{violation_for, Violation};
use std::collections::HashMap;
use trex_table::{EncodedTable, Table};

/// Build the partition key of `row` on `attrs` as dictionary codes; `None`
/// if any key cell is null. Code equality is exactly the representational
/// `Value` equality the old `Vec<Value>` keys used (the dictionary interns
/// by it), so the buckets are unchanged — only cheaper to build.
fn key_of(enc: &EncodedTable, row: usize, attrs: &[trex_table::AttrId]) -> Option<Vec<u32>> {
    let mut key = Vec::with_capacity(attrs.len());
    for a in attrs {
        let code = enc.code(row, *a);
        if enc.dict(*a).null_code() == Some(code) {
            return None;
        }
        key.push(code);
    }
    Some(key)
}

/// [`key_of`] for joins of at most two attributes, packed into one `u64`
/// (code equality on each attribute ⇔ equality of the packed word). Joins
/// on one or two columns are the overwhelmingly common shape, and the
/// oracle re-partitions a tiny masked table on every coalition repair — a
/// heap-allocated `Vec<u32>` key per row is measurable there.
fn packed_key_of(enc: &EncodedTable, row: usize, attrs: &[trex_table::AttrId]) -> Option<u64> {
    let mut key = 0u64;
    for a in attrs {
        let code = enc.code(row, *a);
        if enc.dict(*a).null_code() == Some(code) {
            return None;
        }
        key = (key << 32) | u64::from(code);
    }
    Some(key)
}

/// The equality-join partition of a binary DC: the resolved key attributes
/// and the row groups sharing a key on them, sorted by first member (the
/// deterministic scan order). `None` when the DC is unary, has no equality
/// join, or its join attributes do not resolve — callers fall back to the
/// nested loop.
///
/// Shared with [`crate::parallel`]: the serial and parallel indexed scans
/// must partition identically so their outputs match violation-for-
/// violation.
pub(crate) fn equality_groups(
    dc: &DenialConstraint,
    table: &Table,
    enc: &EncodedTable,
) -> Option<(Vec<trex_table::AttrId>, Vec<Vec<usize>>)> {
    if !dc.is_binary() {
        return None;
    }
    let join_names = dc.equality_join_attrs();
    if join_names.is_empty() {
        return None;
    }
    let attrs: Vec<trex_table::AttrId> = join_names
        .iter()
        .filter_map(|n| table.schema().resolve(n))
        .collect();
    if attrs.len() != join_names.len() {
        // Unresolvable name (shouldn't happen for a resolved DC) — fall back.
        return None;
    }

    // Same buckets either way — the packed key is just `Vec<u32>` equality
    // without the per-row allocation when the join is narrow enough.
    let mut groups: Vec<Vec<usize>> = if attrs.len() <= 2 {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for row in 0..table.num_rows() {
            if let Some(key) = packed_key_of(enc, row, &attrs) {
                buckets.entry(key).or_default().push(row);
            }
        }
        buckets.into_values().collect()
    } else {
        let mut buckets: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for row in 0..table.num_rows() {
            if let Some(key) = key_of(enc, row, &attrs) {
                buckets.entry(key).or_default().push(row);
            }
        }
        buckets.into_values().collect()
    };

    // Deterministic order: iterate buckets by their first row index.
    groups.sort_by_key(|g| g[0]);
    Some((attrs, groups))
}

/// Scan all ordered pairs within one equality group, appending witnesses in
/// scan order. `key` is the partition key of [`equality_groups`] — its
/// equality-join predicates are skipped, they hold by construction within a
/// group. Shared with [`crate::parallel`].
pub(crate) fn scan_group(
    cdc: &CompiledDc<'_>,
    table: &Table,
    enc: &EncodedTable,
    key: &[trex_table::AttrId],
    rows: &[usize],
    out: &mut Vec<Violation>,
) {
    scan_group_block(cdc, table, enc, key, rows, 0..rows.len(), out);
}

/// Scan one *block* of an equality group's pair matrix: the outer rows
/// `rows[outer]` against every row of the group, in scan order. With
/// `outer = 0..rows.len()` this is exactly [`scan_group`]; smaller blocks
/// let [`crate::parallel`] split a single giant bucket across workers
/// while keeping the concatenated output identical to the serial scan
/// (blocks tile the outer loop in order, and each block's inner loop is
/// the serial inner loop verbatim).
pub(crate) fn scan_group_block(
    cdc: &CompiledDc<'_>,
    table: &Table,
    enc: &EncodedTable,
    key: &[trex_table::AttrId],
    rows: &[usize],
    outer: std::ops::Range<usize>,
    out: &mut Vec<Violation>,
) {
    let bound = cdc.bind(enc, key);
    for &i in &rows[outer] {
        for &j in rows {
            if i == j {
                continue;
            }
            if bound.holds(table, i, j) {
                out.push(cdc.witness(i, j));
            }
        }
    }
}

/// Nested-loop scan with the compiled pre-filter: exactly
/// [`crate::eval::find_violations`] — same witnesses, same order — for DCs
/// the equality partition cannot help (no join, or unary).
pub(crate) fn nested_loop_compiled(
    cdc: &CompiledDc<'_>,
    table: &Table,
    enc: &EncodedTable,
) -> Vec<Violation> {
    let dc = cdc.dc();
    let bound = cdc.bind(enc, &[]);
    let n = table.num_rows();
    let mut out = Vec::new();
    if dc.is_binary() {
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                if bound.holds(table, i, j) {
                    out.push(violation_for(dc, table, i, j).expect("pre-filter agreed"));
                }
            }
        }
    } else {
        for i in 0..n {
            if bound.holds(table, i, i) {
                out.push(violation_for(dc, table, i, i).expect("pre-filter agreed"));
            }
        }
    }
    out
}

/// Find all violations of a resolved DC using equality-key partitioning when
/// possible; falls back to the nested loop for DCs without an equality join
/// or for unary DCs. Reads the table's own encoding ([`Table::encoded`]),
/// so repeated scans of one table contents encode it once.
///
/// Output is exactly the violation set of
/// [`crate::eval::find_violations`], though the order may differ (callers
/// needing a canonical order should sort).
pub fn find_violations_indexed(dc: &DenialConstraint, table: &Table) -> Vec<Violation> {
    find_violations_indexed_with(dc, table, table.encoded())
}

/// [`find_violations_indexed`] against a pre-built encoding of `table`.
pub(crate) fn find_violations_indexed_with(
    dc: &DenialConstraint,
    table: &Table,
    enc: &EncodedTable,
) -> Vec<Violation> {
    let cdc = CompiledDc::compile(dc);
    let Some((key, groups)) = equality_groups(dc, table, enc) else {
        return nested_loop_compiled(&cdc, table, enc);
    };
    let mut out = Vec::new();
    for rows in groups {
        scan_group(&cdc, table, enc, &key, &rows, &mut out);
    }
    out
}

/// Indexed variant of [`crate::eval::find_all_violations`]. Every DC scan
/// shares the table's own encoding.
pub fn find_all_violations_indexed(dcs: &[DenialConstraint], table: &Table) -> Vec<Violation> {
    let enc = table.encoded();
    dcs.iter()
        .flat_map(|dc| find_violations_indexed_with(dc, table, enc))
        .collect()
}

/// [`find_all_violations_indexed`] minus the scans of DCs that
/// [`crate::analyze::statically_unviolable`] proves can never be violated.
/// Serial counterpart of
/// [`crate::parallel::find_all_violations_par_pruned`]; output is
/// byte-identical to the unpruned scan.
pub fn find_all_violations_indexed_pruned(
    dcs: &[DenialConstraint],
    table: &Table,
) -> Vec<Violation> {
    let enc = table.encoded();
    dcs.iter()
        .filter(|dc| crate::analyze::statically_unviolable(dc).is_none())
        .flat_map(|dc| find_violations_indexed_with(dc, table, enc))
        .collect()
}

/// Indexed variant of [`crate::eval::is_clean`]: short-circuits on the first
/// violation.
pub fn is_clean_indexed(dcs: &[DenialConstraint], table: &Table) -> bool {
    let enc = table.encoded();
    dcs.iter()
        .all(|dc| find_violations_indexed_with(dc, table, enc).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::find_violations;
    use crate::parser::parse_dc;
    use trex_table::TableBuilder;

    fn sorted(mut vs: Vec<Violation>) -> Vec<(usize, Option<usize>)> {
        let mut keys: Vec<(usize, Option<usize>)> =
            vs.drain(..).map(|v| (v.row1, v.row2)).collect();
        keys.sort();
        keys
    }

    fn table() -> Table {
        TableBuilder::new()
            .str_columns(["Team", "City", "Country"])
            .str_row(["Real Madrid", "Madrid", "Spain"])
            .str_row(["Real Madrid", "Capital", "Spain"])
            .str_row(["Barcelona", "Barcelona", "Spain"])
            .str_row(["Real Madrid", "Madrid", "España"])
            .build()
    }

    #[test]
    fn indexed_matches_nested_loop() {
        let t = table();
        for src in [
            "!(t1.Team = t2.Team & t1.City != t2.City)",
            "!(t1.City = t2.City & t1.Country != t2.Country)",
            "!(t1.Team = t2.Team & t1.Country != t2.Country)",
        ] {
            let mut dc = parse_dc(src).unwrap();
            dc.resolve(t.schema()).unwrap();
            assert_eq!(
                sorted(find_violations(&dc, &t)),
                sorted(find_violations_indexed(&dc, &t)),
                "{src}"
            );
        }
    }

    #[test]
    fn witnesses_match_too() {
        let t = table();
        let mut dc = parse_dc("!(t1.Team = t2.Team & t1.City != t2.City)").unwrap();
        dc.resolve(t.schema()).unwrap();
        let mut a = find_violations(&dc, &t);
        let mut b = find_violations_indexed(&dc, &t);
        let key = |v: &Violation| (v.row1, v.row2);
        a.sort_by_key(key);
        b.sort_by_key(key);
        for (x, y) in a.iter().zip(&b) {
            let mut cx = x.cells.clone();
            let mut cy = y.cells.clone();
            cx.sort();
            cy.sort();
            assert_eq!(cx, cy);
        }
    }

    #[test]
    fn falls_back_without_equality_join() {
        let t = table();
        let mut dc = parse_dc("!(t1.City != t2.City & t1.Country != t2.Country)").unwrap();
        dc.resolve(t.schema()).unwrap();
        assert_eq!(
            sorted(find_violations(&dc, &t)),
            sorted(find_violations_indexed(&dc, &t))
        );
    }

    #[test]
    fn null_join_keys_never_violate() {
        let mut t = table();
        let team = t.schema().id("Team");
        t.set(trex_table::CellRef::new(1, team), trex_table::Value::Null);
        let mut dc = parse_dc("!(t1.Team = t2.Team & t1.City != t2.City)").unwrap();
        dc.resolve(t.schema()).unwrap();
        let a = sorted(find_violations(&dc, &t));
        let b = sorted(find_violations_indexed(&dc, &t));
        assert_eq!(a, b);
        assert!(!a.iter().any(|(r1, r2)| *r1 == 1 || *r2 == Some(1)));
    }

    #[test]
    fn is_clean_indexed_agrees() {
        let t = table();
        let mut dc = parse_dc("!(t1.Team = t2.Team & t1.City != t2.City)").unwrap();
        dc.resolve(t.schema()).unwrap();
        assert!(!is_clean_indexed(&[dc.clone()], &t));
        assert_eq!(
            is_clean_indexed(&[dc.clone()], &t),
            crate::eval::is_clean(&[dc], &t)
        );
    }

    #[test]
    fn unary_dc_uses_fallback() {
        let t = table();
        let mut dc = parse_dc("!(t1.City = \"Capital\")").unwrap();
        dc.resolve(t.schema()).unwrap();
        let vs = find_violations_indexed(&dc, &t);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].row2, None);
    }
}
