//! Error injection with ground truth.
//!
//! The demo "manually adds errors into the table" (§4); this module does it
//! reproducibly. Given a clean table, the injector dirties a configurable
//! fraction of cells with a mix of realistic error kinds and returns the
//! dirty table together with the ground-truth diff, which the repair-quality
//! harness (experiment A4) scores against.
//!
//! Two accounting modes:
//!
//! * the legacy `rate` + `kind_weights` mode dirties `⌊eligible × rate⌋`
//!   cells with kinds drawn from the weights (degenerate corruptions are
//!   skipped, so the realized count can fall slightly short);
//! * the [`ErrorRates`] mode gives each kind its own rate with **exact
//!   integer accounting**: the realized count is exactly
//!   `⌊eligible × Σrates⌋` (largest-remainder apportionment across kinds),
//!   and a degenerate corruption falls back to a fresh out-of-domain token
//!   instead of being skipped, so every ground-truth cell differs from the
//!   clean table *and* the count never drifts.
//!
//! The [`ErrorKind::Duplicate`] kind copies a same-column value from a
//! Zipf-chosen donor row ([`ErrorConfig::duplicate_skew`]): hot donors get
//! copied over and over, deliberately growing one equality bucket — the
//! skewed-key workload the giant-bucket splitter in `find_all_violations_par`
//! has to handle.

use crate::skew::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trex_table::{CellChange, CellRef, ColumnStats, Table, Value};

/// Kinds of injected errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Replace the value with another value drawn from the same column
    /// (a plausible-but-wrong entry, like `"Madrid" → "Barcelona"`).
    SwapInColumn,
    /// Mangle a string value's characters (a typo, like `"Spain" →
    /// `"Spian"`); integers are perturbed by ±1..3.
    Typo,
    /// Replace with a fresh out-of-domain token (like `"Capital"` or
    /// `"España"` in the paper's table: values appearing nowhere else).
    OutOfDomain,
    /// Null the cell out (a missing value).
    Null,
    /// Copy the same-column value of a Zipf-chosen donor row (a
    /// copy-paste/merge error). Hot donors are copied repeatedly, growing
    /// their equality bucket.
    Duplicate,
}

/// All kinds, in `kind_weights` / [`ErrorRates`] order.
const KIND_ORDER: [ErrorKind; 5] = [
    ErrorKind::SwapInColumn,
    ErrorKind::Typo,
    ErrorKind::OutOfDomain,
    ErrorKind::Null,
    ErrorKind::Duplicate,
];

/// Per-kind error rates (fractions of the eligible cells), the
/// exact-accounting alternative to `rate` + `kind_weights`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorRates {
    /// Fraction of eligible cells to hit with [`ErrorKind::SwapInColumn`].
    pub swap: f64,
    /// Fraction of eligible cells to hit with [`ErrorKind::Typo`].
    pub typo: f64,
    /// Fraction of eligible cells to hit with [`ErrorKind::OutOfDomain`].
    pub out_of_domain: f64,
    /// Fraction of eligible cells to hit with [`ErrorKind::Null`].
    pub null: f64,
    /// Fraction of eligible cells to hit with [`ErrorKind::Duplicate`].
    pub duplicate: f64,
}

impl ErrorRates {
    /// Split one total rate across the kinds in a realistic default mix:
    /// 30% swaps, 30% typos, 10% out-of-domain, 20% nulls, 10% duplicates.
    pub fn split(total: f64) -> Self {
        ErrorRates {
            swap: total * 0.3,
            typo: total * 0.3,
            out_of_domain: total * 0.1,
            null: total * 0.2,
            duplicate: total * 0.1,
        }
    }

    /// The rates in [`KIND_ORDER`].
    fn as_array(&self) -> [f64; 5] {
        [
            self.swap,
            self.typo,
            self.out_of_domain,
            self.null,
            self.duplicate,
        ]
    }

    /// The summed rate.
    pub fn total(&self) -> f64 {
        self.as_array().iter().sum()
    }

    /// Exact integer accounting: per-kind injection counts for `eligible`
    /// cells. The counts sum to exactly `⌊eligible × total⌋` (capped at
    /// `eligible`); each kind gets `⌊eligible × rate⌋` plus at most one
    /// largest-remainder top-up (ties broken in [`KIND_ORDER`]).
    ///
    /// # Panics
    /// If any rate is negative/non-finite or the total exceeds 1.
    pub fn counts(&self, eligible: usize) -> [usize; 5] {
        let rates = self.as_array();
        for r in rates {
            assert!(
                r >= 0.0 && r.is_finite(),
                "error rate must be finite and >= 0, got {r}"
            );
        }
        let total = self.total();
        assert!(total <= 1.0 + 1e-9, "error rates sum to {total} > 1");
        let want = ((eligible as f64 * total).floor() as usize).min(eligible);
        let mut counts = [0usize; 5];
        let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(5);
        let mut assigned = 0usize;
        for (i, r) in rates.iter().enumerate() {
            let quota = eligible as f64 * r;
            counts[i] = quota.floor() as usize;
            assigned += counts[i];
            remainders.push((quota - quota.floor(), i));
        }
        // Σ⌊q_i⌋ ≤ ⌊Σq_i⌋ = want, so the gap is non-negative; hand the
        // leftovers to the largest fractional remainders.
        let mut leftover = want - assigned;
        remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        for (_, i) in remainders {
            if leftover == 0 {
                break;
            }
            counts[i] += 1;
            leftover -= 1;
        }
        counts
    }
}

/// Injection configuration.
#[derive(Debug, Clone)]
pub struct ErrorConfig {
    /// Fraction of cells to dirty (rounded down to a count, but at least 1
    /// if the table is non-empty and the rate is positive). Ignored when
    /// [`ErrorConfig::rates`] is set.
    pub rate: f64,
    /// Relative frequency of each error kind, in
    /// `[SwapInColumn, Typo, OutOfDomain, Null, Duplicate]` order. Ignored
    /// when [`ErrorConfig::rates`] is set.
    pub kind_weights: [u32; 5],
    /// Per-kind rates with exact integer accounting; `Some` switches the
    /// injector from the weighted mode to the exact mode (see the module
    /// docs).
    pub rates: Option<ErrorRates>,
    /// Zipf exponent of the donor-row draw for [`ErrorKind::Duplicate`]
    /// (`0` = uniform donors; larger values copy a few hot donor rows over
    /// and over).
    pub duplicate_skew: f64,
    /// Restrict injection to these columns (names); empty = all columns.
    pub columns: Vec<String>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ErrorConfig {
    fn default() -> Self {
        ErrorConfig {
            rate: 0.05,
            kind_weights: [3, 1, 1, 1, 0],
            rates: None,
            duplicate_skew: 1.0,
            columns: Vec::new(),
            seed: 0,
        }
    }
}

/// The output of an injection run.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionResult {
    /// The dirtied table.
    pub dirty: Table,
    /// Ground truth: for every injected cell, `from` is the dirty value and
    /// `to` is the original clean value — i.e. the diff `dirty → clean`,
    /// directly comparable with a repair's changes.
    pub truth: Vec<CellChange>,
}

fn pick_kind(weights: &[u32; 5], rng: &mut StdRng) -> ErrorKind {
    let total: u32 = weights.iter().sum();
    assert!(total > 0, "all error-kind weights are zero");
    let mut x = rng.gen_range(0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return KIND_ORDER[i];
        }
        x -= w;
    }
    ErrorKind::Null
}

fn typo(v: &Value, rng: &mut StdRng) -> Value {
    match v {
        Value::Str(s) if s.chars().count() >= 2 => {
            let chars: Vec<char> = s.chars().collect();
            let mut out = chars.clone();
            let i = rng.gen_range(0..chars.len() - 1);
            out.swap(i, i + 1);
            if out == chars {
                out.push('x');
            }
            Value::Str(out.into_iter().collect())
        }
        Value::Str(s) => Value::Str(format!("{s}x")),
        Value::Int(i) => {
            let delta = rng.gen_range(1..=3i64);
            Value::Int(if rng.gen_bool(0.5) {
                i + delta
            } else {
                i - delta
            })
        }
        Value::Float(x) => Value::Float(x + 1.0),
        Value::Bool(b) => Value::Bool(!b),
        Value::Null | Value::LabeledNull(_) => v.clone(),
    }
}

fn swap_in_column(table: &Table, cell: CellRef, rng: &mut StdRng) -> Option<Value> {
    let stats = ColumnStats::from_column(table, cell.attr);
    let current = table.get(cell);
    let mut others: Vec<&Value> = stats.ranked().iter().map(|(v, _)| *v).collect();
    others.retain(|v| *v != current);
    if others.is_empty() {
        None
    } else {
        Some(others[rng.gen_range(0..others.len())].clone())
    }
}

fn out_of_domain(v: &Value, serial: usize) -> Value {
    match v {
        Value::Int(_) => Value::Int(-9_000_000 - serial as i64),
        Value::Float(_) => Value::Float(-9e9 - serial as f64),
        _ => Value::Str(format!("__ERR_{serial}__")),
    }
}

/// Copy the same-column value of a Zipf-chosen donor row: draw a donor
/// rank (= row index; rank 0 is the hottest donor), then scan forward,
/// wrapping, to the first row whose value actually differs from the
/// victim's.
fn duplicate_value(
    table: &Table,
    cell: CellRef,
    zipf: &ZipfSampler,
    rng: &mut StdRng,
) -> Option<Value> {
    let n = table.num_rows();
    let start = zipf.sample(rng);
    let current = table.get(cell);
    for off in 0..n {
        let row = (start + off) % n;
        let v = table.value(row, cell.attr);
        if !v.is_null() && v != current {
            return Some(v.clone());
        }
    }
    None
}

/// Inject errors into a copy of `clean`.
///
/// Cells are chosen uniformly without replacement among the non-null cells
/// of the allowed columns. Deterministic per seed. See the module docs for
/// the two accounting modes; in both, every reported ground-truth cell
/// differs from the clean table (`apply(dirty, truth)` restores `clean`).
pub fn inject_errors(clean: &Table, config: &ErrorConfig) -> InjectionResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let allowed: Vec<usize> = if config.columns.is_empty() {
        (0..clean.arity()).collect()
    } else {
        config
            .columns
            .iter()
            .filter_map(|n| clean.schema().resolve(n).map(|a| a.0))
            .collect()
    };
    let mut eligible: Vec<CellRef> = clean
        .cells()
        .filter(|c| allowed.contains(&c.attr.0) && !clean.get(*c).is_null())
        .collect();

    // The per-cell kind plan. Exact mode lays the kinds out up front (the
    // cells they land on are random because the picks below are); weighted
    // mode draws a kind per cell, as before.
    let exact_plan: Option<Vec<ErrorKind>> = config.rates.map(|rates| {
        let counts = rates.counts(eligible.len());
        let mut plan = Vec::with_capacity(counts.iter().sum());
        for (i, &c) in counts.iter().enumerate() {
            plan.extend(std::iter::repeat_n(KIND_ORDER[i], c));
        }
        plan
    });
    let want = match &exact_plan {
        Some(plan) => plan.len(),
        None if config.rate <= 0.0 || eligible.is_empty() => 0,
        None => ((eligible.len() as f64 * config.rate) as usize).max(1),
    };
    // Partial Fisher–Yates to pick `want` distinct cells.
    let picks = want.min(eligible.len());
    for i in 0..picks {
        let j = rng.gen_range(i..eligible.len());
        eligible.swap(i, j);
    }
    let zipf = if clean.num_rows() > 0 {
        Some(ZipfSampler::new(clean.num_rows(), config.duplicate_skew))
    } else {
        None
    };
    let mut dirty = clean.clone();
    let mut truth = Vec::with_capacity(picks);
    for (serial, &cell) in eligible[..picks].iter().enumerate() {
        let original = clean.get(cell).clone();
        let kind = match &exact_plan {
            Some(plan) => plan[serial],
            None => pick_kind(&config.kind_weights, &mut rng),
        };
        let corrupted = match kind {
            ErrorKind::SwapInColumn => match swap_in_column(clean, cell, &mut rng) {
                Some(v) => v,
                None => out_of_domain(&original, serial),
            },
            ErrorKind::Typo => typo(&original, &mut rng),
            ErrorKind::OutOfDomain => out_of_domain(&original, serial),
            ErrorKind::Null => Value::Null,
            ErrorKind::Duplicate => {
                match duplicate_value(
                    clean,
                    cell,
                    zipf.as_ref().expect("non-empty table"),
                    &mut rng,
                ) {
                    Some(v) => v,
                    None => out_of_domain(&original, serial),
                }
            }
        };
        let corrupted = if corrupted == original {
            if exact_plan.is_some() {
                // Exact accounting: never skip — substitute a fresh token,
                // which by construction differs from every clean value.
                out_of_domain(&original, serial)
            } else {
                continue; // degenerate corruption; skip rather than lie
            }
        } else {
            corrupted
        };
        dirty.set(cell, corrupted.clone());
        truth.push(CellChange {
            cell,
            from: corrupted,
            to: original,
        });
    }
    InjectionResult { dirty, truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soccer::{generate_clean, SoccerConfig};

    fn clean() -> Table {
        generate_clean(&SoccerConfig {
            countries: 3,
            cities_per_country: 2,
            teams_per_city: 2,
            years: 2,
            seed: 1,
        })
    }

    #[test]
    fn injects_about_the_requested_rate() {
        let c = clean();
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rate: 0.1,
                ..Default::default()
            },
        );
        let expected = (c.num_cells() as f64 * 0.1) as usize;
        assert!(res.truth.len() <= expected);
        assert!(res.truth.len() >= expected.saturating_sub(3));
    }

    #[test]
    fn truth_diff_restores_the_clean_table() {
        let c = clean();
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rate: 0.2,
                seed: 7,
                ..Default::default()
            },
        );
        let restored = trex_table::apply(&res.dirty, &res.truth);
        assert_eq!(restored, c);
        // And the reported truth matches the actual diff.
        let diff = trex_table::diff(&res.dirty, &c);
        assert_eq!(diff.len(), res.truth.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let c = clean();
        let cfg = ErrorConfig {
            rate: 0.15,
            seed: 99,
            ..Default::default()
        };
        let a = inject_errors(&c, &cfg);
        let b = inject_errors(&c, &cfg);
        assert_eq!(a.dirty, b.dirty);
    }

    #[test]
    fn column_restriction_respected() {
        let c = clean();
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rate: 0.3,
                columns: vec!["Country".to_string()],
                seed: 5,
                ..Default::default()
            },
        );
        let country = c.schema().id("Country");
        assert!(!res.truth.is_empty());
        assert!(res.truth.iter().all(|ch| ch.cell.attr == country));
    }

    #[test]
    fn null_kind_produces_nulls() {
        let c = clean();
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rate: 0.1,
                kind_weights: [0, 0, 0, 1, 0],
                seed: 3,
                ..Default::default()
            },
        );
        assert!(!res.truth.is_empty());
        assert!(res.truth.iter().all(|ch| ch.from.is_null()));
    }

    #[test]
    fn out_of_domain_values_are_fresh() {
        let c = clean();
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rate: 0.1,
                kind_weights: [0, 0, 1, 0, 0],
                seed: 3,
                ..Default::default()
            },
        );
        for ch in &res.truth {
            // The corrupted value must not appear anywhere in the clean table.
            assert!(c.cells_with_values().all(|(_, v)| v != &ch.from));
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let c = clean();
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rate: 0.0,
                ..Default::default()
            },
        );
        assert!(res.truth.is_empty());
        assert_eq!(res.dirty, c);
    }

    #[test]
    fn typos_change_values() {
        let c = clean();
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rate: 0.1,
                kind_weights: [0, 1, 0, 0, 0],
                seed: 11,
                ..Default::default()
            },
        );
        for ch in &res.truth {
            assert_ne!(ch.from, ch.to);
        }
    }

    #[test]
    fn duplicate_kind_copies_existing_column_values() {
        let c = clean();
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rate: 0.1,
                kind_weights: [0, 0, 0, 0, 1],
                duplicate_skew: 1.2,
                seed: 13,
                ..Default::default()
            },
        );
        assert!(!res.truth.is_empty());
        for ch in &res.truth {
            assert_ne!(ch.from, ch.to);
            // The corrupted value is some other value of the same column.
            let col = ch.cell.attr;
            let in_column = (0..c.num_rows()).any(|r| c.value(r, col) == &ch.from);
            assert!(in_column, "{} is not a column value", ch.from);
        }
    }

    #[test]
    fn exact_rates_hit_the_floor_count_exactly() {
        let c = clean();
        let rates = ErrorRates {
            swap: 0.031,
            typo: 0.017,
            out_of_domain: 0.011,
            null: 0.023,
            duplicate: 0.013,
        };
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rates: Some(rates),
                seed: 5,
                ..Default::default()
            },
        );
        let eligible = c.num_cells(); // no nulls in the clean table
        let want = (eligible as f64 * rates.total()).floor() as usize;
        assert_eq!(res.truth.len(), want, "exact accounting must not drift");
        // Every ground-truth cell really differs from the clean table.
        assert_eq!(trex_table::diff(&res.dirty, &c).len(), want);
    }

    #[test]
    fn exact_counts_apportion_by_largest_remainder() {
        let rates = ErrorRates {
            swap: 0.015,
            typo: 0.015,
            out_of_domain: 0.0,
            null: 0.0,
            duplicate: 0.0,
        };
        // 100 eligible: quotas 1.5/1.5, total 3.0 → counts must sum to 3.
        let counts = rates.counts(100);
        assert_eq!(counts.iter().sum::<usize>(), 3);
        assert_eq!(counts[0], 2, "first tie in kind order gets the top-up");
        assert_eq!(counts[1], 1);
    }

    #[test]
    fn zero_exact_rates_are_a_no_op() {
        let c = clean();
        let res = inject_errors(
            &c,
            &ErrorConfig {
                rate: 0.9, // must be ignored in exact mode
                rates: Some(ErrorRates::default()),
                seed: 2,
                ..Default::default()
            },
        );
        assert!(res.truth.is_empty());
        assert_eq!(res.dirty, c);
    }
}
