//! Streaming statistics and convergence diagnostics for the sampling
//! estimators.
//!
//! [`RunningStats`] is a numerically stable (Welford) accumulator of mean
//! and variance; [`ConvergenceTrace`] records estimate-vs-reference error as
//! sample counts grow, producing the series behind experiment E5
//! ("sampling error ∝ 1/√m").

use crate::sampling::Estimate;

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: usize,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sample mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            // Degenerate counts have no spread to report. Returning 0.0
            // (not NaN from a 0/0) keeps every downstream consumer —
            // std_dev, std_error, confidence intervals, and the anytime
            // checkpoint JSON — finite and serializable.
            0.0
        } else {
            // Welford's m2 is mathematically non-negative, but catastrophic
            // cancellation on near-constant large-magnitude streams (and
            // merges of such accumulators) can leave it a hair below zero;
            // sqrt would then turn the epsilon into NaN. Clamp at 0.
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// The [`Estimate`] these observations give: mean, sample standard
    /// deviation, and count.
    pub(crate) fn estimate(&self) -> Estimate {
        Estimate {
            value: self.mean(),
            std_dev: self.std_dev(),
            samples: self.count(),
        }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// One point of a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Sample count at this checkpoint.
    pub samples: usize,
    /// Current estimate.
    pub estimate: f64,
    /// Absolute error against the reference value.
    pub abs_error: f64,
}

/// Records how an estimate approaches a known reference as samples accrue.
#[derive(Debug, Clone)]
pub struct ConvergenceTrace {
    reference: f64,
    points: Vec<TracePoint>,
}

impl ConvergenceTrace {
    /// Start a trace against a reference (e.g. exact Shapley) value.
    pub fn new(reference: f64) -> Self {
        ConvergenceTrace {
            reference,
            points: Vec::new(),
        }
    }

    /// Record a checkpoint.
    pub fn record(&mut self, samples: usize, estimate: f64) {
        self.points.push(TracePoint {
            samples,
            estimate,
            abs_error: (estimate - self.reference).abs(),
        });
    }

    /// The recorded checkpoints, in record order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// The reference value the trace compares against.
    pub fn reference(&self) -> f64 {
        self.reference
    }

    /// Least-squares slope of `log(error)` against `log(samples)` — for an
    /// unbiased Monte-Carlo estimator this should be about `−1/2`.
    /// Checkpoints with zero error are skipped; returns `None` with fewer
    /// than two usable points.
    pub fn loglog_slope(&self) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.abs_error > 0.0 && p.samples > 0)
            .map(|p| ((p.samples as f64).ln(), p.abs_error.ln()))
            .collect();
        if pts.len() < 2 {
            return None;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|(x, _)| x).sum();
        let sy: f64 = pts.iter().map(|(_, y)| y).sum();
        let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            None
        } else {
            Some((n * sxy - sx * sy) / denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut s = RunningStats::new();
        for x in xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn empty_and_single_observation_edge_cases() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(5.0);
        assert_eq!(s1.mean(), 5.0);
        assert_eq!(s1.variance(), 0.0);
    }

    #[test]
    fn spread_is_finite_and_non_negative_on_adversarial_streams() {
        // Degenerate counts, constant streams, huge magnitudes, and merges
        // of all of those: variance/std_dev/std_error must come back finite
        // and ≥ 0 (never the NaN a sqrt of a rounding-negative m2 or a 0/0
        // would produce). These values flow straight into serialized anytime
        // checkpoint payloads, where NaN would be invalid JSON.
        let streams: Vec<Vec<f64>> = vec![
            vec![],
            vec![2.5],
            vec![1e15 + 0.1; 100],
            vec![3.14e18; 7],
            vec![f64::MIN_POSITIVE; 9],
            vec![1e300, 1e300, 1e300],
        ];
        let mut accs: Vec<RunningStats> = Vec::new();
        for xs in &streams {
            let mut s = RunningStats::new();
            for &x in xs {
                s.push(x);
            }
            assert!(s.variance().is_finite() && s.variance() >= 0.0, "{xs:?}");
            assert!(s.std_dev().is_finite() && s.std_dev() >= 0.0, "{xs:?}");
            assert!(s.std_error().is_finite() && s.std_error() >= 0.0, "{xs:?}");
            accs.push(s);
        }
        let mut merged = RunningStats::new();
        for s in &accs[..4] {
            // The huge-magnitude streams stay un-merged: their *means*
            // genuinely overflow when combined, which is the caller's
            // problem, not the accumulator's.
            merged.merge(s);
        }
        assert!(merged.variance().is_finite() && merged.variance() >= 0.0);
        assert!(merged.std_dev().is_finite() && merged.std_dev() >= 0.0);
        assert!(merged.std_error().is_finite() && merged.std_error() >= 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 3.0).collect();
        let mut all = RunningStats::new();
        for x in &xs {
            all.push(*x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for (i, x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.push(*x);
            } else {
                b.push(*x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&RunningStats::new());
        assert_eq!((a.count(), a.mean(), a.variance()), before);

        let mut e = RunningStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trace_records_errors() {
        let mut t = ConvergenceTrace::new(0.5);
        t.record(10, 0.8);
        t.record(100, 0.55);
        assert_eq!(t.points().len(), 2);
        assert!((t.points()[0].abs_error - 0.3).abs() < 1e-12);
        assert!((t.points()[1].abs_error - 0.05).abs() < 1e-12);
        assert_eq!(t.reference(), 0.5);
    }

    #[test]
    fn loglog_slope_of_perfect_sqrt_decay() {
        let mut t = ConvergenceTrace::new(0.0);
        for m in [10usize, 100, 1000, 10_000] {
            // error = 1/sqrt(m)
            t.record(m, 1.0 / (m as f64).sqrt());
        }
        let slope = t.loglog_slope().unwrap();
        assert!((slope + 0.5).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn loglog_slope_none_for_degenerate_traces() {
        let mut t = ConvergenceTrace::new(1.0);
        t.record(10, 1.0); // zero error — skipped
        assert_eq!(t.loglog_slope(), None);
    }
}
