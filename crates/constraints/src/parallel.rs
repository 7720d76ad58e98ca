//! Multi-threaded violation detection.
//!
//! Violation detection is the inner loop of every repair engine
//! (detect → fix → re-detect) and of the CLI's `violations` screen, and the
//! ordered row-pair scan dominates on real tables — which makes it the
//! natural data-parallel companion to the Shapley engine's parallel
//! samplers (`trex_shapley::parallel`). The functions here split the scan
//! across a fixed worker count with [`std::thread::scope`], but with a
//! *stronger* guarantee than the samplers' `(seed, threads)` contract:
//! detection is a deterministic enumeration, so the output is **identical
//! to the serial functions at any thread count** — same witnesses, same
//! order. A thread count changes wall time only.
//!
//! Work split (always contiguous, results concatenated in worker order):
//!
//! * DCs with an equality join reuse the hash partition of
//!   [`crate::index`]: each group's ordered-pair matrix is decomposed into
//!   outer-row *blocks* ([`pair_blocks`]) — small groups are one block,
//!   giant buckets are cut along the outer-row axis — and the block list
//!   is cut into contiguous ranges balanced by pair count (`b·(b−1)` per
//!   group of size `b`). A single degenerate all-rows bucket therefore
//!   spreads across the workers instead of landing on one.
//! * DCs without an equality join chunk the outer row of the `(i, j)`
//!   nested loop; unary DCs chunk the row range.
//!
//! `threads = 1` dispatches straight to the serial code (no spawn).

use crate::ast::DenialConstraint;
use crate::compiled::CompiledDc;
use crate::eval::{collect_noisy_cells, violation_for, Violation};
use crate::index::{equality_groups, find_violations_indexed_with, scan_group_block};
use std::ops::Range;
use trex_table::{CellRef, EncodedTable, Table};

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

/// Run `work` over each range on its own scoped thread and concatenate the
/// results in range (= worker) order. Empty ranges contribute nothing and
/// are not spawned; a single non-empty range runs inline (no scope, no
/// spawn) — `--threads` defaults to all hardware threads, so tiny tables
/// must not pay thread overhead for scans that take microseconds.
fn scan_on_workers<F>(mut ranges: Vec<Range<usize>>, work: F) -> Vec<Violation>
where
    F: Fn(Range<usize>) -> Vec<Violation> + Sync,
{
    ranges.retain(|r| !r.is_empty());
    match ranges.len() {
        0 => return Vec::new(),
        1 => return work(ranges.pop().expect("checked len")),
        _ => {}
    }
    let per_worker = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(move || work(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("violation-scan worker panicked"))
            .collect::<Vec<_>>()
    });
    per_worker.into_iter().flatten().collect()
}

/// Parallel nested-loop scan (the fallback for DCs without an equality
/// join): chunk the outer row range; each worker scans its rows `i` against
/// every `j`.
fn nested_loop_par(
    cdc: &CompiledDc<'_>,
    table: &Table,
    enc: &EncodedTable,
    threads: usize,
) -> Vec<Violation> {
    let dc = cdc.dc();
    let n = table.num_rows();
    let ranges = even_ranges(n, threads);
    if dc.is_binary() {
        scan_on_workers(ranges, |rows| {
            let bound = cdc.bind(enc, &[]);
            let mut out = Vec::new();
            for i in rows {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    if bound.holds(table, i, j) {
                        out.push(violation_for(dc, table, i, j).expect("pre-filter agreed"));
                    }
                }
            }
            out
        })
    } else {
        scan_on_workers(ranges, |rows| {
            let bound = cdc.bind(enc, &[]);
            let mut out = Vec::new();
            for i in rows {
                if bound.holds(table, i, i) {
                    out.push(violation_for(dc, table, i, i).expect("pre-filter agreed"));
                }
            }
            out
        })
    }
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
/// reproduces the serial scan exactly.
fn pair_blocks(groups: &[Vec<usize>], threads: usize) -> Vec<PairBlock> {
    let total: usize = groups.iter().map(|g| g.len() * (g.len() - 1)).sum();
    let share = (total / threads).max(1);
    let mut blocks = Vec::new();
    for (group, rows) in groups.iter().enumerate() {
        let b = rows.len();
        if b < 2 {
            continue; // no ordered pairs — nothing a scan could emit
        }
        let cost = b * (b - 1);
        if cost <= share {
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

/// Find all violations of a single resolved DC on `threads` workers.
///
/// Exactly [`find_violations_indexed`] — same witnesses, same order — for
/// every thread count; `threads = 1` *is* the serial call. The
/// equality-join path splits *within* buckets too ([`pair_blocks`]), so a
/// degenerate table whose rows all share one key still parallelizes.
pub fn find_violations_par(dc: &DenialConstraint, table: &Table, threads: usize) -> Vec<Violation> {
    find_violations_par_with(dc, table, table.encoded(), threads)
}

/// [`find_violations_par`] against a caller-held encoding of `table`'s
/// contents — the repair engine's working codes, which it updates in place
/// as it writes. `enc` must decode cell-for-cell to `table`; its
/// dictionaries may hold extra entries (see [`EncodedTable::try_set`]).
pub fn find_violations_par_with(
    dc: &DenialConstraint,
    table: &Table,
    enc: &EncodedTable,
    threads: usize,
) -> Vec<Violation> {
    assert!(threads >= 1, "threads must be >= 1 (resolve 0 first)");
    // Clamp to the available work: spawning more workers than rows (the
    // finest work unit either path has) only burns spawn/join cycles.
    let threads = threads.min(table.num_rows()).max(1);
    if threads == 1 {
        return find_violations_indexed_with(dc, table, enc);
    }
    let cdc = CompiledDc::compile(dc);
    let Some((key, groups)) = equality_groups(dc, table, enc) else {
        return nested_loop_par(&cdc, table, enc, threads);
    };
    let blocks = pair_blocks(&groups, threads);
    let threads = threads.min(blocks.len()).max(1);
    let costs: Vec<usize> = blocks
        .iter()
        .map(|blk| blk.outer.len() * (groups[blk.group].len() - 1))
        .collect();
    let ranges = partition_by_cost(&costs, threads);
    scan_on_workers(ranges, |range| {
        let mut out = Vec::new();
        for blk in &blocks[range] {
            scan_group_block(
                &cdc,
                table,
                enc,
                &key,
                &groups[blk.group],
                blk.outer.clone(),
                &mut out,
            );
        }
        out
    })
}

/// Parallel variant of [`crate::index::find_all_violations_indexed`]: every
/// DC's scan is split over `threads` workers, DCs are processed in order.
/// Every DC scan shares the table's own encoding.
pub fn find_all_violations_par(
    dcs: &[DenialConstraint],
    table: &Table,
    threads: usize,
) -> Vec<Violation> {
    let enc = table.encoded();
    dcs.iter()
        .flat_map(|dc| find_violations_par_with(dc, table, enc, threads))
        .collect()
}

/// [`find_all_violations_par`] minus the scans of DCs that
/// [`crate::analyze::statically_unviolable`] proves can never be violated.
/// A pruned DC's witness list is provably empty on *every* table, so the
/// output is byte-identical to the unpruned scan at any thread count —
/// only the wasted work is skipped. This is the scan behind
/// `ExecConfig::prune_redundant`.
pub fn find_all_violations_par_pruned(
    dcs: &[DenialConstraint],
    table: &Table,
    threads: usize,
) -> Vec<Violation> {
    let enc = table.encoded();
    dcs.iter()
        .filter(|dc| crate::analyze::statically_unviolable(dc).is_none())
        .flat_map(|dc| find_violations_par_with(dc, table, enc, threads))
        .collect()
}

/// Parallel variant of [`crate::eval::noisy_cells`]: the distinct cells
/// implicated in any violation, sorted. Identical output at any thread
/// count (same reduction, shared with the serial path).
pub fn noisy_cells_par(dcs: &[DenialConstraint], table: &Table, threads: usize) -> Vec<CellRef> {
    collect_noisy_cells(find_all_violations_par(dcs, table, threads))
}

/// Parallel variant of [`crate::index::is_clean_indexed`].
pub fn is_clean_par(dcs: &[DenialConstraint], table: &Table, threads: usize) -> bool {
    let enc = table.encoded();
    dcs.iter()
        .all(|dc| find_violations_par_with(dc, table, enc, threads).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{find_violations, noisy_cells};
    use crate::index::find_violations_indexed;
    use crate::parser::parse_dc;
    use trex_table::{TableBuilder, Value};

    /// A table with several bucket sizes, null keys, and both satisfied and
    /// violated DCs.
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
            t.set(trex_table::CellRef::new(4, team), Value::Null);
        }
        t
    }

    fn resolved(src: &str, t: &Table) -> DenialConstraint {
        let mut dc = parse_dc(src).unwrap();
        dc.resolve(t.schema()).unwrap();
        dc
    }

    const DCS: [&str; 4] = [
        "!(t1.Team = t2.Team & t1.City != t2.City)",
        "!(t1.City = t2.City & t1.Country != t2.Country)",
        // No equality join: exercises the nested-loop path.
        "!(t1.Country != t2.Country & t1.City != t2.City)",
        // Unary.
        "!(t1.Country = \"X\")",
    ];

    #[test]
    fn parallel_output_is_identical_to_serial_at_every_thread_count() {
        let t = table(23);
        for src in DCS {
            let dc = resolved(src, &t);
            let serial = find_violations_indexed(&dc, &t);
            for threads in [1usize, 2, 3, 4, 8, 16] {
                let par = find_violations_par(&dc, &t, threads);
                assert_eq!(serial, par, "{src} at {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_matches_nested_loop_set() {
        // Order may differ between indexed and nested-loop scans, but the
        // violation *sets* agree; the parallel scan inherits that.
        let t = table(17);
        for src in DCS {
            let dc = resolved(src, &t);
            let mut a: Vec<(usize, Option<usize>)> = find_violations(&dc, &t)
                .into_iter()
                .map(|v| (v.row1, v.row2))
                .collect();
            let mut b: Vec<(usize, Option<usize>)> = find_violations_par(&dc, &t, 4)
                .into_iter()
                .map(|v| (v.row1, v.row2))
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{src}");
        }
    }

    #[test]
    fn all_violations_and_noisy_cells_match_serial() {
        let t = table(19);
        let dcs: Vec<DenialConstraint> = DCS.iter().map(|s| resolved(s, &t)).collect();
        let serial = crate::index::find_all_violations_indexed(&dcs, &t);
        for threads in [2usize, 5] {
            assert_eq!(serial, find_all_violations_par(&dcs, &t, threads));
            assert_eq!(noisy_cells(&dcs, &t), noisy_cells_par(&dcs, &t, threads));
        }
    }

    #[test]
    fn is_clean_par_agrees() {
        let t = table(11);
        let hot = resolved(DCS[0], &t);
        let cold = resolved("!(t1.Team = t2.Team & t1.Team != t2.Team)", &t);
        assert!(!is_clean_par(&[hot], &t, 3));
        assert!(is_clean_par(&[cold], &t, 3));
    }

    #[test]
    fn empty_and_tiny_tables() {
        let t = table(0);
        let dc = resolved(DCS[0], &t);
        assert!(find_violations_par(&dc, &t, 4).is_empty());
        let t1 = table(1);
        let dc1 = resolved(DCS[0], &t1);
        assert!(find_violations_par(&dc1, &t1, 4).is_empty());
    }

    #[test]
    fn more_threads_than_rows_or_groups() {
        let t = table(3);
        for src in DCS {
            let dc = resolved(src, &t);
            assert_eq!(
                find_violations_indexed(&dc, &t),
                find_violations_par(&dc, &t, 64),
                "{src}"
            );
        }
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
    #[should_panic(expected = "threads must be >= 1")]
    fn zero_threads_panics() {
        let t = table(3);
        let dc = resolved(DCS[0], &t);
        let _ = find_violations_par(&dc, &t, 0);
    }

    /// The pathological shape the block split exists for: every row shares
    /// one equality-bucket key, so pre-split scheduling put the entire
    /// `n·(n−1)` pair scan on a single worker.
    fn giant_bucket_table(rows: usize) -> Table {
        let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
        for i in 0..rows {
            let city = format!("C{}", i % 4);
            b = b.str_row(["SameTeam", city.as_str(), "Y"]);
        }
        b.build()
    }

    #[test]
    fn giant_bucket_is_serial_identical_at_every_thread_count() {
        let t = giant_bucket_table(61);
        let dc = resolved(DCS[0], &t);
        let serial = find_violations_indexed(&dc, &t);
        assert!(!serial.is_empty(), "the bucket must actually conflict");
        for threads in [1usize, 2, 3, 4, 8, 16, 61, 64] {
            let par = find_violations_par(&dc, &t, threads);
            assert_eq!(serial, par, "{threads} threads");
        }
    }

    #[test]
    fn giant_bucket_splits_into_multiple_blocks() {
        // One 61-row bucket at 4 threads must not be a single work unit.
        let t = giant_bucket_table(61);
        let dc = resolved(DCS[0], &t);
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
    fn pair_blocks_keep_small_groups_whole_and_skip_singletons() {
        let groups: Vec<Vec<usize>> = vec![vec![0], vec![1, 2], vec![3], vec![4, 5, 6]];
        // One worker: every group fits the share, singletons vanish.
        let spans = |threads: usize| -> Vec<(usize, Range<usize>)> {
            pair_blocks(&groups, threads)
                .iter()
                .map(|b| (b.group, b.outer.clone()))
                .collect()
        };
        assert_eq!(spans(1), vec![(1, 0..2), (3, 0..3)]);
        // Two workers: the 3-row group's cost (6) exceeds the share (4),
        // so it splits along its outer rows; the 2-row group stays whole.
        assert_eq!(spans(2), vec![(1, 0..2), (3, 0..2), (3, 2..3)]);
    }

    #[test]
    fn all_singleton_buckets_yield_no_violations() {
        // Every row its own bucket: no pairs, no blocks, empty output at
        // any thread count (and no spawns).
        let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
        for i in 0..9 {
            let team = format!("T{i}");
            b = b.str_row([team.as_str(), "C", "Y"]);
        }
        let t = b.build();
        let dc = resolved(DCS[0], &t);
        for threads in [1usize, 4] {
            assert!(find_violations_par(&dc, &t, threads).is_empty());
        }
    }
}
