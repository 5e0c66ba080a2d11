//! The failure-count law of the Monte-Carlo campaigns.
//!
//! The paper's evaluation (§4, §5.2) injects random bit-flips according to
//! fault maps drawn for each failure count `N = 1..N_max`, each weighted by
//! `Pr(N = n)` (Eq. (4)). [`FailureCountDistribution`] is that binomial law
//! of the number of failures in a memory of `M` cells with failure
//! probability `P_cell`. The fault maps themselves come from a
//! [`Backend`](crate::backend::Backend): a whole die is
//! `backend.sample_with_count(rng, n)` at a count `n` drawn from
//! `backend.failure_distribution()?.sample(rng)`.

use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::stats::{binomial_pmf, sample_binomial};
use rand::Rng;

/// Binomial distribution of the failure count `N` of a memory sample
/// (Eq. (4): `Pr(N = n) = C(M, n) · P_cell^n · (1 − P_cell)^(M−n)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureCountDistribution {
    total_cells: u64,
    p_cell: f64,
}

impl FailureCountDistribution {
    /// Creates the distribution for a memory with `total_cells` bit-cells and
    /// per-cell failure probability `p_cell`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn new(total_cells: usize, p_cell: f64) -> Result<Self, MemError> {
        if !(0.0..=1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(MemError::InvalidProbability { value: p_cell });
        }
        Ok(Self {
            total_cells: total_cells as u64,
            p_cell,
        })
    }

    /// Convenience constructor from a memory configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn for_memory(config: MemoryConfig, p_cell: f64) -> Result<Self, MemError> {
        Self::new(config.total_cells(), p_cell)
    }

    /// Number of bit-cells `M`.
    #[must_use]
    pub fn total_cells(&self) -> u64 {
        self.total_cells
    }

    /// Per-cell failure probability `P_cell`.
    #[must_use]
    pub fn p_cell(&self) -> f64 {
        self.p_cell
    }

    /// `Pr(N = n)`.
    #[must_use]
    pub fn pmf(&self, n: u64) -> f64 {
        binomial_pmf(self.total_cells, n, self.p_cell)
    }

    /// `Pr(N ≤ n)`.
    #[must_use]
    pub fn cdf(&self, n: u64) -> f64 {
        (0..=n.min(self.total_cells))
            .map(|k| self.pmf(k))
            .sum::<f64>()
            .min(1.0)
    }

    /// Expected failure count `M · P_cell`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.total_cells as f64 * self.p_cell
    }

    /// Smallest `n` such that `Pr(N ≤ n) ≥ coverage`.
    ///
    /// The paper chooses `N_max` such that 99 % of memories have no more than
    /// `N_max` failures; that is `n_max(0.99)`.
    #[must_use]
    pub fn n_max(&self, coverage: f64) -> u64 {
        let coverage = coverage.clamp(0.0, 1.0);
        let mut cumulative = 0.0;
        let mut n = 0u64;
        loop {
            cumulative += self.pmf(n);
            if cumulative >= coverage || n >= self.total_cells {
                return n;
            }
            n += 1;
        }
    }

    /// Draws a failure count `N ~ Bin(M, P_cell)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        sample_binomial(rng, self.total_cells, self.p_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(64, 32).unwrap()
    }

    #[test]
    fn failure_distribution_pmf_normalises() {
        let dist = FailureCountDistribution::new(2048, 0.002).unwrap();
        let total: f64 = (0..=64).map(|n| dist.pmf(n)).sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!((dist.mean() - 4.096).abs() < 1e-9);
    }

    #[test]
    fn failure_distribution_rejects_bad_probability() {
        assert!(FailureCountDistribution::new(100, -0.1).is_err());
        assert!(FailureCountDistribution::new(100, 1.1).is_err());
        assert!(FailureCountDistribution::new(100, f64::NAN).is_err());
    }

    #[test]
    fn n_max_covers_requested_probability_mass() {
        let dist = FailureCountDistribution::for_memory(MemoryConfig::paper_16kb(), 1e-3).unwrap();
        let n99 = dist.n_max(0.99);
        // Mean is ~131; the 99th percentile must be somewhat above the mean.
        assert!(n99 > 131 && n99 < 170, "n_max(0.99) = {n99}");
        assert!(dist.cdf(n99) >= 0.99);
        assert!(dist.cdf(n99.saturating_sub(1)) < 0.99);
    }

    #[test]
    fn sampled_failure_counts_track_the_binomial_mean() {
        let dist = FailureCountDistribution::for_memory(config(), 0.01).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mean = (0..400).map(|_| dist.sample(&mut rng) as f64).sum::<f64>() / 400.0;
        let expected = dist.mean();
        assert!(
            (mean - expected).abs() < expected * 0.2 + 1.0,
            "mean = {mean}, expected = {expected}"
        );
        // A fault-free law only ever draws fault-free dies.
        let zero = FailureCountDistribution::for_memory(config(), 0.0).unwrap();
        assert_eq!(zero.sample(&mut rng), 0);
    }
}
