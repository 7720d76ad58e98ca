//! Zipfian (power-law) rank sampling for skewed key distributions.
//!
//! Real scraped tables are not uniform: a handful of hot keys (popular
//! teams, chatty sensors) own a disproportionate share of the rows, which
//! is exactly what stresses the equality-bucket splitter behind
//! `find_all_violations_par` — one giant bucket instead of many small ones.
//! [`ZipfSampler`] draws ranks `0..n` with `P(rank = k) ∝ 1/(k+1)^s`,
//! deterministically per RNG stream, via a precomputed CDF and binary
//! search (`O(n)` setup, `O(log n)` per draw).

use rand::RngCore;

/// A deterministic sampler over ranks `0..n` with Zipfian weights
/// `(k+1)^{-s}`. `s = 0` degenerates to the uniform distribution; larger
/// `s` concentrates mass on the low ranks (rank 0 is always the hottest).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// If `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and >= 0, got {s}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // Guard against floating-point rounding leaving the last entry a
        // hair under 1.0, which would make a draw of u ≈ 1.0 fall off the
        // end of the binary search.
        *cdf.last_mut().expect("n > 0") = 1.0;
        ZipfSampler { cdf }
    }

    /// The number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.cdf.len()
    }

    /// The probability mass of `rank`.
    pub fn share(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Draw one rank. Deterministic per RNG stream (one `next_u64` call
    /// per draw).
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        // 53 uniform mantissa bits in [0, 1), the same construction the
        // rand shim's `gen_bool` uses.
        let u = ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        // First rank whose CDF reaches u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(sampler: &ZipfSampler, draws: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; sampler.num_ranks()];
        for _ in 0..draws {
            counts[sampler.sample(&mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn deterministic_per_seed() {
        let z = ZipfSampler::new(100, 1.1);
        assert_eq!(histogram(&z, 1000, 7), histogram(&z, 1000, 7));
        assert_ne!(histogram(&z, 1000, 7), histogram(&z, 1000, 8));
    }

    #[test]
    fn shares_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(50, 1.5);
        let total: f64 = (0..50).map(|k| z.share(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..50 {
            assert!(z.share(k) <= z.share(k - 1), "share must decay with rank");
        }
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for k in 0..10 {
            assert!((z.share(k) - 0.1).abs() < 1e-9);
        }
        // Empirically roughly flat too.
        let counts = histogram(&z, 20_000, 3);
        for &c in &counts {
            assert!(
                (1500..=2500).contains(&c),
                "uniform draw count {c} out of band"
            );
        }
    }

    #[test]
    fn high_exponent_concentrates_on_rank_zero() {
        let z = ZipfSampler::new(1000, 1.2);
        let counts = histogram(&z, 10_000, 11);
        // Rank 0's analytic share dominates; the empirical count must too.
        assert!(z.share(0) > 0.15);
        assert!(counts[0] > counts[999] * 10);
        assert!(counts[0] as f64 > 10_000.0 * z.share(0) * 0.7);
    }

    #[test]
    fn every_rank_is_reachable() {
        let z = ZipfSampler::new(4, 1.0);
        let counts = histogram(&z, 5000, 5);
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }
}
