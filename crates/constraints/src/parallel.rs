//! The violation scan.
//!
//! [`find_all_violations_par`] is the one program scan: the input screen
//! (`Session::violations`, `GET /violations`, `trex violations`), the
//! repair engines, and the benches all read its witness list.
//! [`find_violations_par_with`] is the per-DC scan Algorithm 1 runs over
//! its working codes. The nested-loop [`crate::eval::find_violations`] is
//! the reference both are tested against.
//!
//! **Equality partition.** Most useful DCs (and all four of the paper's)
//! contain at least one *equality join* predicate `t1.A = t2.A`. Rows are
//! grouped by the SQL-equality class of their join values
//! ([`Dictionary::eq_class`]: `Int(2)` and `Float(2.0)` land in one
//! group); only pairs within a group can violate, which turns the `O(n²)`
//! nested loop into `O(n + Σ b_i²)` for bucket sizes `b_i`. Rows with a
//! null join value are left out, since a null never satisfies `=`. A join
//! column that mixes floats with integers beyond `f64` precision
//! ([`Dictionary::num_fallback`]) has no exact partition, because SQL
//! equality is not transitive there, so its DC runs the nested loop.
//!
//! **Dead DCs.** [`find_all_violations_par`] skips every DC that
//! [`crate::analyze::statically_unviolable`] proves can never be violated
//! (lint code `TREX-W101`). Such a DC's witness list is empty on every
//! table, so skipping it changes no output.
//!
//! **Threads.** Output is identical at every thread count: same
//! witnesses, same order. A thread count changes wall time only. Work is
//! split into contiguous ranges whose results are concatenated in order:
//!
//! * equality-join DCs cut each group's ordered-pair matrix into outer-row
//!   *blocks* (`pair_blocks`) — small groups are one block, giant
//!   buckets are cut along the outer-row axis — and cut the block list
//!   into ranges balanced by pair count (`b·(b−1)` per group of size `b`),
//!   so a single degenerate all-rows bucket still spreads across workers;
//! * other binary DCs chunk the outer row of the `(i, j)` nested loop, and
//!   unary DCs chunk the row range.
//!
//! `threads = 1` runs inline on the caller's thread, with no spawn, and so
//! does any scan too small to pay for a second worker: a scan gets one
//! worker per `PROBES_PER_WORKER` predicate probes it measures, up to
//! its thread count. The repair engines scan a small working table for
//! every rule of every coalition repair, so those scans stay inline while
//! a large table still splits.

use crate::ast::DenialConstraint;
use crate::compiled::{BoundDc, CompiledDc};
use crate::eval::{violation_for, Violation};
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use trex_table::{AttrId, Dictionary, EncodedTable, Table};

/// The work, in predicate probes, that pays for one scan worker: one probe
/// per row of a unary DC, per ordered row pair of a binary one. A scoped
/// spawn and join cost tens of microseconds, about what this many probes
/// take, so a smaller share would spend more on the worker than it saves.
const PROBES_PER_WORKER: usize = 1 << 15;

/// The workers a scan of `probes` probes gets: one per
/// [`PROBES_PER_WORKER`], at least one, at most `threads`.
fn workers_for(probes: usize, threads: usize) -> usize {
    (probes / PROBES_PER_WORKER).clamp(1, threads)
}

/// Find every violation of the resolved DCs `dcs` on `threads` workers:
/// DCs in order, each DC's witnesses in scan order. Dead DCs (see the
/// module docs) are skipped. Every DC scan shares the table's own
/// encoding ([`Table::encoded`]).
///
/// Compared per DC as a set, the output is exactly
/// [`crate::eval::find_violations`]'s; the order within a DC follows the
/// equality partition. It is identical at every thread count.
///
/// # Panics
/// Panics if `threads == 0`, or if a DC is not resolved.
pub fn find_all_violations_par(
    dcs: &[DenialConstraint],
    table: &Table,
    threads: usize,
) -> Vec<Violation> {
    assert!(threads >= 1, "threads must be >= 1 (resolve 0 first)");
    let enc = table.encoded();
    let mut out = Vec::new();
    for dc in dcs {
        if crate::analyze::statically_unviolable(dc).is_none() {
            scan_dc(
                dc,
                table,
                enc,
                |probes| workers_for(probes, threads),
                &mut out,
            );
        }
    }
    out
}

/// The violations of one resolved DC against a caller-held encoding of
/// `table`'s contents — the repair engine's working codes, which it
/// updates in place as it writes. `enc` must decode cell-for-cell to
/// `table`; its dictionaries may hold extra entries (see
/// [`EncodedTable::try_set`]). Same witnesses and order as this DC's part
/// of [`find_all_violations_par`], at any thread count.
///
/// # Panics
/// Panics if `threads == 0`, or if `dc` is not resolved.
pub fn find_violations_par_with(
    dc: &DenialConstraint,
    table: &Table,
    enc: &EncodedTable,
    threads: usize,
) -> Vec<Violation> {
    assert!(threads >= 1, "threads must be >= 1 (resolve 0 first)");
    let mut out = Vec::new();
    scan_dc(
        dc,
        table,
        enc,
        |probes| workers_for(probes, threads),
        &mut out,
    );
    out
}

/// Append the witnesses of one DC to `out`, on `workers(probes)` workers
/// for the scan's measured probe count. Every worker count gives the same
/// output.
fn scan_dc(
    dc: &DenialConstraint,
    table: &Table,
    enc: &EncodedTable,
    workers: impl Fn(usize) -> usize,
    out: &mut Vec<Violation>,
) {
    let cdc = CompiledDc::compile(dc);
    let Some((key, groups)) = equality_groups(dc, table, enc) else {
        let n = table.num_rows();
        let probes = if dc.is_binary() {
            n * n.saturating_sub(1)
        } else {
            n
        };
        // More workers than rows (the finest unit of the row split) only
        // burns spawn/join cycles.
        let threads = workers(probes).min(n).max(1);
        nested_loop(&cdc, table, enc, threads, out);
        return;
    };
    let bound = cdc.bind(enc, &key);
    let pairs = groups.iter().map(|g| g.len() * (g.len() - 1)).sum();
    let threads = workers(pairs).max(1);
    if threads == 1 {
        for rows in &groups {
            scan_block(&cdc, &bound, table, rows, 0..rows.len(), out);
        }
        return;
    }
    let blocks = pair_blocks(&groups, threads);
    let costs: Vec<usize> = blocks
        .iter()
        .map(|blk| blk.outer.len() * (groups[blk.group].len() - 1))
        .collect();
    let ranges = partition_by_cost(&costs, threads.min(blocks.len()).max(1));
    scan_on_workers(ranges, out, |range, out| {
        for blk in &blocks[range] {
            let rows = &groups[blk.group];
            scan_block(&cdc, &bound, table, rows, blk.outer.clone(), out);
        }
    });
}

/// The equality-join partition of a binary DC: the resolved key
/// attributes and the groups of at least two rows whose key values are
/// pairwise SQL-equal, sorted by first member (the scan order). Rows with
/// a null key value belong to no group. `None` when the DC is unary, has
/// no equality join, a join attribute does not resolve, or a join column
/// has no exact partition ([`Dictionary::num_fallback`]): the caller runs
/// the nested loop.
fn equality_groups(
    dc: &DenialConstraint,
    table: &Table,
    enc: &EncodedTable,
) -> Option<(Vec<AttrId>, Vec<Vec<usize>>)> {
    if !dc.is_binary() {
        return None;
    }
    let join_names = dc.equality_join_attrs();
    if join_names.is_empty() {
        return None;
    }
    let attrs: Vec<AttrId> = join_names
        .iter()
        .filter_map(|n| table.schema().resolve(n))
        .collect();
    if attrs.len() != join_names.len() {
        return None;
    }
    let cols: Vec<(&[u32], &Dictionary)> =
        attrs.iter().map(|&a| (enc.codes(a), enc.dict(a))).collect();
    if cols.iter().any(|(_, dict)| dict.num_fallback()) {
        return None;
    }
    let class_of = |row: usize, (codes, dict): &(&[u32], &Dictionary)| {
        let code = codes[row];
        (dict.null_code() != Some(code)).then(|| dict.eq_class(code))
    };
    let n = table.num_rows();
    // Joins on one or two columns pack their key into one `u64`: the
    // oracle re-partitions a tiny masked table on every coalition repair,
    // and a heap-allocated key per row is measurable there.
    let groups = if cols.len() <= 2 {
        group_rows(n, |row| {
            cols.iter().try_fold(0u64, |k, col| {
                Some((k << 32) | u64::from(class_of(row, col)?))
            })
        })
    } else {
        group_rows(n, |row| {
            cols.iter()
                .map(|col| class_of(row, col))
                .collect::<Option<Vec<u32>>>()
        })
    };
    Some((attrs, groups))
}

/// Group `0..n` by `key` (rows without a key are dropped), keep the groups
/// of at least two rows, and order them by first row.
fn group_rows<K: Hash + Eq>(n: usize, key: impl Fn(usize) -> Option<K>) -> Vec<Vec<usize>> {
    let mut buckets: HashMap<K, Vec<usize>> = HashMap::new();
    for row in 0..n {
        if let Some(k) = key(row) {
            buckets.entry(k).or_default().push(row);
        }
    }
    let mut groups: Vec<Vec<usize>> = buckets.into_values().filter(|g| g.len() > 1).collect();
    groups.sort_unstable_by_key(|g| g[0]);
    groups
}

/// Scan one block of an equality group's pair matrix: the outer rows
/// `rows[outer]` against every row of the group, appending witnesses in
/// scan order. Blocks tile each group's outer loop in order, so
/// concatenating block outputs reproduces the whole group's scan.
fn scan_block(
    cdc: &CompiledDc<'_>,
    bound: &BoundDc<'_, '_, '_>,
    table: &Table,
    rows: &[usize],
    outer: Range<usize>,
    out: &mut Vec<Violation>,
) {
    for &i in &rows[outer] {
        for &j in rows {
            if i != j && bound.holds(table, i, j) {
                out.push(cdc.witness(i, j));
            }
        }
    }
}

/// The scan of a DC the equality partition cannot help (no join, unary,
/// or a join column without an exact partition): the outer row range is
/// chunked over the workers, and each scans its rows `i` against every
/// `j` (binary) or alone (unary).
fn nested_loop(
    cdc: &CompiledDc<'_>,
    table: &Table,
    enc: &EncodedTable,
    threads: usize,
    out: &mut Vec<Violation>,
) {
    let dc = cdc.dc();
    let binary = dc.is_binary();
    let n = table.num_rows();
    let bound = cdc.bind(enc, &[]);
    scan_on_workers(even_ranges(n, threads), out, |rows, out| {
        for i in rows {
            if !binary {
                if bound.holds(table, i, i) {
                    out.push(violation_for(dc, table, i, i).expect("pre-filter agreed"));
                }
                continue;
            }
            for j in 0..n {
                if i != j && bound.holds(table, i, j) {
                    out.push(cdc.witness(i, j));
                }
            }
        }
    });
}

/// Run `work` over each non-empty range and append the results to `out`
/// in range order. The first range runs on the caller's thread and the
/// rest on scoped threads, so a single range spawns nothing — `--threads`
/// defaults to all hardware threads, and tiny tables must not pay thread
/// overhead for scans that take microseconds.
fn scan_on_workers<F>(mut ranges: Vec<Range<usize>>, out: &mut Vec<Violation>, work: F)
where
    F: Fn(Range<usize>, &mut Vec<Violation>) + Sync,
{
    ranges.retain(|r| !r.is_empty());
    let Some(first) = ranges.first().cloned() else {
        return;
    };
    if ranges.len() == 1 {
        return work(first, out);
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges[1..]
            .iter()
            .cloned()
            .map(|range| {
                scope.spawn(move || {
                    let mut part = Vec::new();
                    work(range, &mut part);
                    part
                })
            })
            .collect();
        work(first, out);
        for h in handles {
            out.extend(h.join().expect("violation-scan worker panicked"));
        }
    });
}

/// Split `0..items` into `threads` contiguous ranges whose sizes differ by
/// at most one (front-loaded remainder).
fn even_ranges(items: usize, threads: usize) -> Vec<Range<usize>> {
    let base = items / threads;
    let extra = items % threads;
    let mut start = 0;
    (0..threads)
        .map(|w| {
            let len = base + usize::from(w < extra);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

/// Split `0..costs.len()` into `threads` contiguous ranges with roughly
/// equal cumulative cost (deterministic: cut points are the prefix-sum
/// thresholds `total·(w+1)/threads`). The last range absorbs the tail.
fn partition_by_cost(costs: &[usize], threads: usize) -> Vec<Range<usize>> {
    let total: usize = costs.iter().sum();
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut cum = 0usize;
    for w in 0..threads {
        if w + 1 == threads {
            ranges.push(start..costs.len());
            break;
        }
        let target = total * (w + 1) / threads;
        let mut end = start;
        while end < costs.len() && cum < target {
            cum += costs[end];
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// One block of within-bucket pair work: the rows `outer` of group
/// `group`, to be scanned against the whole group.
struct PairBlock {
    group: usize,
    outer: Range<usize>,
}

/// Decompose the equality groups' pair matrices into scan blocks: a group
/// whose ordered-pair count fits the per-worker cost share stays one block;
/// a *giant* bucket is cut along its outer-row axis into blocks of roughly
/// the share, so it spreads across workers instead of landing on one.
/// Every outer row of a size-`b` group costs the same `b − 1` inner
/// probes, so equal row counts are equal costs and the split stays
/// balanced whatever the bucket shape. Blocks tile each group's outer loop
/// in order and groups stay in order, so concatenating block outputs
/// reproduces the 1-thread scan exactly.
fn pair_blocks(groups: &[Vec<usize>], threads: usize) -> Vec<PairBlock> {
    let total: usize = groups.iter().map(|g| g.len() * (g.len() - 1)).sum();
    let share = (total / threads).max(1);
    let mut blocks = Vec::new();
    for (group, rows) in groups.iter().enumerate() {
        let b = rows.len();
        if b * (b - 1) <= share {
            blocks.push(PairBlock { group, outer: 0..b });
            continue;
        }
        let rows_per_block = (share / (b - 1)).max(1);
        let mut start = 0;
        while start < b {
            let end = (start + rows_per_block).min(b);
            blocks.push(PairBlock {
                group,
                outer: start..end,
            });
            start = end;
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::find_violations;
    use crate::parser::parse_dc;
    use trex_table::{CellRef, TableBuilder, Value};

    /// The thread counts every sweep exercises: 1, 2, 3, 4, 8 and 16, plus
    /// the CI thread-matrix count from `TREX_TEST_THREADS` when set.
    fn thread_counts() -> Vec<usize> {
        let mut counts = vec![1, 2, 3, 4, 8, 16];
        if let Ok(raw) = std::env::var("TREX_TEST_THREADS") {
            let extra: usize = raw
                .parse()
                .expect("TREX_TEST_THREADS must be a thread count");
            assert!(extra >= 1, "TREX_TEST_THREADS must be >= 1");
            if !counts.contains(&extra) {
                counts.push(extra);
            }
        }
        counts
    }

    /// Several bucket sizes, a null join key in row 4, and both satisfied
    /// and violated DCs.
    fn table(rows: usize) -> Table {
        let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
        for i in 0..rows {
            let team = format!("T{}", i % 5);
            let city = format!("C{}", i % 3);
            let country = if i % 7 == 0 { "X" } else { "Y" }.to_string();
            b = b.str_row([team.as_str(), city.as_str(), country.as_str()]);
        }
        let mut t = b.build();
        if rows > 4 {
            let team = t.schema().id("Team");
            t.set(CellRef::new(4, team), Value::Null);
        }
        t
    }

    /// Every row shares one equality key: the shape the block split of
    /// [`pair_blocks`] exists for.
    fn giant_bucket_table(rows: usize) -> Table {
        let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
        for i in 0..rows {
            let city = format!("C{}", i % 4);
            b = b.str_row(["SameTeam", city.as_str(), "Y"]);
        }
        b.build()
    }

    /// Every row its own bucket: no pairs, no blocks.
    fn singleton_table(rows: usize) -> Table {
        let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
        for i in 0..rows {
            let team = format!("T{i}");
            b = b.str_row([team.as_str(), "C", "Y"]);
        }
        b.build()
    }

    fn resolved(src: &str, t: &Table) -> DenialConstraint {
        let mut dc = parse_dc(src).unwrap();
        dc.resolve(t.schema()).unwrap();
        dc
    }

    const EQ_JOIN: &str = "!(t1.Team = t2.Team & t1.City != t2.City)";
    const NO_JOIN: &str = "!(t1.Country != t2.Country & t1.City != t2.City)";
    const UNARY: &str = "!(t1.Country = \"X\")";
    const DCS: [&str; 4] = [
        EQ_JOIN,
        "!(t1.City = t2.City & t1.Country != t2.Country)",
        NO_JOIN,
        UNARY,
    ];

    /// Witnesses in canonical `(row1, row2)` order: one DC's witness list
    /// compared as a set.
    fn sorted(mut vs: Vec<Violation>) -> Vec<Violation> {
        vs.sort_by_key(|v| (v.row1, v.row2));
        vs
    }

    /// The scan contract for one DC on one table: the 1-thread output is
    /// the nested-loop reference as a set (cells included), and every
    /// thread count returns the 1-thread output.
    fn assert_contract(src: &str, t: &Table) -> Vec<Violation> {
        let dc = resolved(src, t);
        let one = find_all_violations_par(std::slice::from_ref(&dc), t, 1);
        assert_eq!(
            sorted(one.clone()),
            sorted(find_violations(&dc, t)),
            "{src}"
        );
        for threads in thread_counts() {
            let par = find_all_violations_par(std::slice::from_ref(&dc), t, threads);
            assert_eq!(one, par, "{src} at {threads} threads");
            assert_eq!(
                one,
                find_violations_par_with(&dc, t, t.encoded(), threads),
                "{src} at {threads} threads, per-DC entry point"
            );
            // Tables this small scan inline; split them anyway.
            let mut forced = Vec::new();
            scan_dc(&dc, t, t.encoded(), |_| threads, &mut forced);
            assert_eq!(one, forced, "{src} forced onto {threads} workers");
        }
        one
    }

    #[test]
    fn scans_take_one_worker_per_share_of_measured_work() {
        assert_eq!(workers_for(0, 8), 1);
        assert_eq!(workers_for(PROBES_PER_WORKER - 1, 8), 1);
        assert_eq!(workers_for(3 * PROBES_PER_WORKER, 8), 3);
        assert_eq!(workers_for(usize::MAX, 2), 2);
        assert_eq!(workers_for(usize::MAX, 1), 1);
    }

    #[test]
    fn every_dc_shape_keeps_the_scan_contract() {
        // Equality join (with a null key), a second join, no join, unary.
        for rows in [0, 1, 3, 17, 23] {
            let t = table(rows);
            for src in DCS {
                assert_contract(src, &t);
            }
        }
    }

    #[test]
    fn null_join_keys_never_violate() {
        let t = table(23);
        let team = t.schema().id("Team");
        assert!(t.get(CellRef::new(4, team)).is_null());
        let vs = assert_contract(EQ_JOIN, &t);
        assert!(!vs.is_empty());
        assert!(!vs.iter().any(|v| v.row1 == 4 || v.row2 == Some(4)));
    }

    #[test]
    fn giant_bucket_keeps_the_scan_contract() {
        for rows in [2, 61] {
            let t = giant_bucket_table(rows);
            assert!(!assert_contract(EQ_JOIN, &t).is_empty());
        }
    }

    #[test]
    fn giant_bucket_splits_into_multiple_blocks() {
        // One 61-row bucket at 4 threads must not be a single work unit.
        let t = giant_bucket_table(61);
        let dc = resolved(EQ_JOIN, &t);
        let (_, groups) = equality_groups(&dc, &t, t.encoded()).unwrap();
        assert_eq!(groups.len(), 1, "all rows share the Team key");
        let blocks = pair_blocks(&groups, 4);
        assert!(blocks.len() >= 4, "got {} block(s)", blocks.len());
        // Blocks tile the group's outer rows in order.
        let mut next = 0;
        for blk in &blocks {
            assert_eq!(blk.group, 0);
            assert_eq!(blk.outer.start, next);
            next = blk.outer.end;
        }
        assert_eq!(next, 61);
    }

    #[test]
    fn all_singleton_buckets_yield_no_groups_and_no_violations() {
        let t = singleton_table(9);
        let dc = resolved(EQ_JOIN, &t);
        let (_, groups) = equality_groups(&dc, &t, t.encoded()).unwrap();
        assert!(groups.is_empty(), "singleton buckets hold no pairs");
        assert!(assert_contract(EQ_JOIN, &t).is_empty());
    }

    #[test]
    fn a_program_scan_concatenates_its_dcs_in_order() {
        let t = table(19);
        let dcs: Vec<DenialConstraint> = DCS.iter().map(|s| resolved(s, &t)).collect();
        let concat: Vec<Violation> = dcs
            .iter()
            .flat_map(|dc| find_all_violations_par(std::slice::from_ref(dc), &t, 1))
            .collect();
        for threads in thread_counts() {
            assert_eq!(concat, find_all_violations_par(&dcs, &t, threads));
        }
    }

    #[test]
    fn dead_dcs_change_no_witnesses() {
        // Dead DCs interleaved with live ones: the scan skips them, and
        // the output equals the program without them.
        let t = table(19);
        let live: Vec<DenialConstraint> = DCS.iter().map(|s| resolved(s, &t)).collect();
        let dead = [
            "!(t1.Team = t2.Team & t1.Team != t2.Team)",
            "!(t1.City < t2.City & t1.City > t2.City)",
            "!(t1.Country < t1.Country)",
        ];
        let mut program = Vec::new();
        for (dc, src) in live.iter().zip(dead.iter().cycle()) {
            let dead = resolved(src, &t);
            assert!(crate::analyze::statically_unviolable(&dead).is_some());
            assert!(find_violations(&dead, &t).is_empty());
            program.push(dead);
            program.push(dc.clone());
        }
        let expected = find_all_violations_par(&live, &t, 1);
        assert!(!expected.is_empty());
        for threads in thread_counts() {
            assert_eq!(expected, find_all_violations_par(&program, &t, threads));
        }
    }

    /// An Int column `A` with rows `(2, x)`, `(3, y)`, `(2, x)` whose row 1
    /// then becomes `Float(2.0)`: `t1.A = t2.A` is SQL equality, so the
    /// float joins the two integer rows' bucket.
    fn int_float_alias_table() -> Table {
        let mut t = TableBuilder::new()
            .column("A", trex_table::DType::Int)
            .column("B", trex_table::DType::Str)
            .row([Value::int(2), Value::str("x")])
            .row([Value::int(3), Value::str("y")])
            .row([Value::int(2), Value::str("x")])
            .build();
        t.set(CellRef::new(1, AttrId(0)), Value::float(2.0));
        t
    }

    const A_JOIN: &str = "!(t1.A = t2.A & t1.B != t2.B)";

    #[test]
    fn equality_join_groups_sql_equal_int_and_float_values() {
        // The float conflicts with both integer rows, in both orders.
        assert_eq!(assert_contract(A_JOIN, &int_float_alias_table()).len(), 4);
        // Two rows: just the aliased pair.
        let pair = TableBuilder::new()
            .column("A", trex_table::DType::Int)
            .column("B", trex_table::DType::Str)
            .row([Value::int(2), Value::str("x")])
            .row([Value::float(2.0), Value::str("y")])
            .build();
        assert_eq!(assert_contract(A_JOIN, &pair).len(), 2);
    }

    #[test]
    fn non_transitive_join_columns_use_the_nested_loop() {
        // 2^53 + 1 rounds to 2^53 as f64: Int(2^53) and Int(2^53 + 1) both
        // SQL-equal Float(2^53) but not each other, so no partition of A is
        // exact.
        let big = 1i64 << 53;
        let t = TableBuilder::new()
            .column("A", trex_table::DType::Int)
            .column("B", trex_table::DType::Str)
            .row([Value::int(big), Value::str("x")])
            .row([Value::int(big + 1), Value::str("y")])
            .row([Value::float(big as f64), Value::str("z")])
            .build();
        assert!(t.encoded().dict(AttrId(0)).num_fallback());
        let dc = resolved(A_JOIN, &t);
        assert!(equality_groups(&dc, &t, t.encoded()).is_none());
        // Rows 0 and 1 each conflict with row 2, in both orders.
        assert_eq!(assert_contract(A_JOIN, &t).len(), 4);
    }

    #[test]
    fn partition_by_cost_tiles_and_balances() {
        let costs = [6usize, 0, 2, 12, 2, 0, 6, 2];
        for threads in [1usize, 2, 3, 4, 8, 12] {
            let ranges = partition_by_cost(&costs, threads);
            assert_eq!(ranges.len(), threads);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, costs.len());
        }
        // The big group lands alone-ish: no worker gets everything when the
        // cost spread allows better.
        let ranges = partition_by_cost(&costs, 2);
        let first: usize = costs[ranges[0].clone()].iter().sum();
        let second: usize = costs[ranges[1].clone()].iter().sum();
        assert!(first > 0 && second > 0, "{ranges:?}");
    }

    #[test]
    fn pair_blocks_keep_small_groups_whole() {
        let groups: Vec<Vec<usize>> = vec![vec![1, 2], vec![4, 5, 6]];
        let spans = |threads: usize| -> Vec<(usize, Range<usize>)> {
            pair_blocks(&groups, threads)
                .iter()
                .map(|b| (b.group, b.outer.clone()))
                .collect()
        };
        // One worker: every group fits the share.
        assert_eq!(spans(1), vec![(0, 0..2), (1, 0..3)]);
        // Two workers: the 3-row group's cost (6) exceeds the share (4),
        // so it splits along its outer rows; the 2-row group stays whole.
        assert_eq!(spans(2), vec![(0, 0..2), (1, 0..2), (1, 2..3)]);
    }

    #[test]
    #[should_panic(expected = "threads must be >= 1")]
    fn zero_threads_panics() {
        let t = table(3);
        let dc = resolved(EQ_JOIN, &t);
        let _ = find_all_violations_par(&[dc], &t, 0);
    }
}
