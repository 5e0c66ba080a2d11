//! Weighted empirical cumulative distribution functions.
//!
//! Fig. 5 and Fig. 7 of the paper plot CDFs of a quality metric over
//! Monte-Carlo memory samples, where each sample's weight is the probability
//! of its failure count (`Pr(N = n)`, Eq. (4)).
//!
//! An [`EmpiricalCdf`] stores its `(value, weight)` observations in
//! insertion order. The parallel pipeline builds one per chunk and
//! [`EmpiricalCdf::absorb`]s them in chunk order, so the observation
//! sequence and the order-sensitive floating-point total weight are
//! bit-identical to a serial accumulation at any worker count.

use crate::error::AnalysisError;

/// A weighted empirical CDF.
///
/// # Example
///
/// ```
/// use faultmit_analysis::EmpiricalCdf;
///
/// # fn main() -> Result<(), faultmit_analysis::AnalysisError> {
/// let mut cdf = EmpiricalCdf::new();
/// cdf.add(1.0, 0.25);
/// cdf.add(10.0, 0.5);
/// cdf.add(100.0, 0.25);
/// assert!((cdf.probability_at_or_below(10.0) - 0.75).abs() < 1e-12);
/// assert_eq!(cdf.quantile(0.5), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmpiricalCdf {
    samples: Vec<(f64, f64)>,
    total_weight: f64,
}

impl EmpiricalCdf {
    /// Creates an empty CDF.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a CDF from equally weighted samples.
    #[must_use]
    pub fn from_samples<I>(values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let mut cdf = Self::new();
        for value in values {
            cdf.add(value, 1.0);
        }
        cdf
    }

    /// Rebuilds a CDF from `(value, weight)` observations in order — the
    /// deserialisation path of the shard-state files.
    ///
    /// Each observation is re-[`add`](EmpiricalCdf::add)ed, so the running
    /// (order-sensitive) total weight is re-accumulated exactly as a serial
    /// accumulation would: a CDF serialised as its observation list and
    /// rebuilt through this constructor is bit-identical to the original.
    #[must_use]
    pub fn from_observations<I>(observations: I) -> Self
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        let mut cdf = Self::new();
        cdf.extend(observations);
        cdf
    }

    /// Adds one observation with the given non-negative weight.
    ///
    /// Observations with zero weight or non-finite values are ignored.
    pub fn add(&mut self, value: f64, weight: f64) {
        if !admits(value, weight) {
            return;
        }
        self.samples.push((value, weight));
        self.total_weight += weight;
    }

    /// Consumes `other`, appending its observations in order — the cheap
    /// parallel-reduction path.
    pub fn absorb(&mut self, other: EmpiricalCdf) {
        for (value, weight) in other.samples {
            // Re-accumulate the weight so the running sum matches a serial
            // accumulation exactly.
            self.total_weight += weight;
            self.samples.push((value, weight));
        }
    }

    /// Number of stored observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no observation has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total accumulated weight.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The stored `(value, weight)` observations in insertion order.
    #[must_use]
    pub fn observations(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Iterates over the stored `(value, weight)` observations in insertion
    /// order.
    pub fn samples(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.samples.iter().copied()
    }

    fn sorted_observations(&self) -> Vec<(f64, f64)> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("values are finite"));
        sorted
    }

    /// `P(X ≤ x)` — the fraction of (weighted) observations at or below `x`.
    ///
    /// Returns 0 for an empty CDF.
    #[must_use]
    pub fn probability_at_or_below(&self, x: f64) -> f64 {
        if self.is_empty() || self.total_weight <= 0.0 {
            return 0.0;
        }
        let mass: f64 = self
            .samples
            .iter()
            .filter(|(value, _)| *value <= x)
            .map(|(_, weight)| weight)
            .sum();
        mass / self.total_weight
    }

    /// The smallest observed value `x` such that `P(X ≤ x) ≥ p`.
    ///
    /// For `p ≤ 0` this is the minimum observation and for `p ≥ 1` the
    /// maximum.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty; use [`EmpiricalCdf::try_quantile`] for a
    /// fallible variant.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        self.try_quantile(p).expect("quantile of an empty CDF")
    }

    /// Fallible variant of [`EmpiricalCdf::quantile`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyDistribution`] when no sample was added.
    pub fn try_quantile(&self, p: f64) -> Result<f64, AnalysisError> {
        if self.is_empty() {
            return Err(AnalysisError::EmptyDistribution);
        }
        let sorted = self.sorted_observations();
        let target = p.clamp(0.0, 1.0) * self.total_weight;
        let mut cumulative = 0.0;
        for &(value, weight) in &sorted {
            cumulative += weight;
            if cumulative >= target {
                return Ok(value);
            }
        }
        Ok(sorted.last().expect("non-empty").0)
    }

    /// Minimum observed value.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyDistribution`] when no sample was added.
    pub fn min(&self) -> Result<f64, AnalysisError> {
        self.samples
            .iter()
            .map(|&(v, _)| v)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            .ok_or(AnalysisError::EmptyDistribution)
    }

    /// Maximum observed value.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyDistribution`] when no sample was added.
    pub fn max(&self) -> Result<f64, AnalysisError> {
        self.samples
            .iter()
            .map(|&(v, _)| v)
            .max_by(|a, b| a.partial_cmp(b).expect("finite"))
            .ok_or(AnalysisError::EmptyDistribution)
    }

    /// Weighted mean of the observations.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyDistribution`] when no sample was added.
    pub fn mean(&self) -> Result<f64, AnalysisError> {
        if self.is_empty() || self.total_weight <= 0.0 {
            return Err(AnalysisError::EmptyDistribution);
        }
        Ok(self.samples.iter().map(|&(v, w)| v * w).sum::<f64>() / self.total_weight)
    }

    /// Evaluates the CDF at a grid of points, returning `(x, P(X ≤ x))`
    /// pairs — the series plotted in Fig. 5 / Fig. 7.
    #[must_use]
    pub fn evaluate_at(&self, grid: &[f64]) -> Vec<(f64, f64)> {
        grid.iter()
            .map(|&x| (x, self.probability_at_or_below(x)))
            .collect()
    }

    /// A logarithmically spaced grid spanning the observed support, padded by
    /// one decade on each side. Useful for plotting MSE CDFs whose support
    /// spans many orders of magnitude.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyDistribution`] when no sample was added,
    /// or [`AnalysisError::InvalidParameter`] when fewer than two points are
    /// requested.
    pub fn log_grid(&self, points: usize) -> Result<Vec<f64>, AnalysisError> {
        if points < 2 {
            return Err(AnalysisError::InvalidParameter {
                reason: format!("a grid needs at least 2 points, got {points}"),
            });
        }
        let min = self.min()?.max(1e-12);
        let max = self.max()?.max(min * 10.0);
        let lo = min.log10() - 1.0;
        let hi = max.log10() + 1.0;
        Ok((0..points)
            .map(|i| 10f64.powf(lo + (hi - lo) * i as f64 / (points - 1) as f64))
            .collect())
    }
}

/// Whether [`EmpiricalCdf::add`] keeps an observation: a finite value with
/// a finite, positive weight.
pub(crate) fn admits(value: f64, weight: f64) -> bool {
    value.is_finite() && weight.is_finite() && weight > 0.0
}

impl FromIterator<f64> for EmpiricalCdf {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self::from_samples(iter)
    }
}

impl Extend<(f64, f64)> for EmpiricalCdf {
    fn extend<T: IntoIterator<Item = (f64, f64)>>(&mut self, iter: T) {
        for (value, weight) in iter {
            self.add(value, weight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = EmpiricalCdf::new();
        assert!(cdf.is_empty());
        assert_eq!(cdf.probability_at_or_below(10.0), 0.0);
        assert_eq!(cdf.try_quantile(0.5), Err(AnalysisError::EmptyDistribution));
        assert!(cdf.min().is_err());
        assert!(cdf.max().is_err());
        assert!(cdf.mean().is_err());
        assert!(cdf.log_grid(10).is_err());
    }

    #[test]
    fn unweighted_cdf_matches_rank_statistics() {
        let cdf = EmpiricalCdf::from_samples([5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(cdf.len(), 5);
        assert!((cdf.probability_at_or_below(3.0) - 0.6).abs() < 1e-12);
        assert!((cdf.probability_at_or_below(0.5) - 0.0).abs() < 1e-12);
        assert!((cdf.probability_at_or_below(5.0) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.quantile(0.2), 1.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
        assert_eq!(cdf.min().unwrap(), 1.0);
        assert_eq!(cdf.max().unwrap(), 5.0);
        assert!((cdf.mean().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weights_shift_the_distribution() {
        let mut cdf = EmpiricalCdf::new();
        cdf.add(0.0, 9.0);
        cdf.add(100.0, 1.0);
        assert!((cdf.probability_at_or_below(0.0) - 0.9).abs() < 1e-12);
        assert_eq!(cdf.quantile(0.89), 0.0);
        assert_eq!(cdf.quantile(0.95), 100.0);
        assert!((cdf.mean().unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_observations_are_ignored() {
        let mut cdf = EmpiricalCdf::new();
        cdf.add(f64::NAN, 1.0);
        cdf.add(f64::INFINITY, 1.0);
        cdf.add(1.0, 0.0);
        cdf.add(1.0, -2.0);
        assert!(cdf.is_empty());
        cdf.add(1.0, 1.0);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn absorb_and_extend_accumulate() {
        let mut a = EmpiricalCdf::from_samples([1.0, 2.0]);
        let b = EmpiricalCdf::from_samples([3.0, 4.0]);
        a.absorb(b);
        assert_eq!(a.len(), 4);
        a.extend([(5.0, 2.0)]);
        assert_eq!(a.len(), 5);
        assert!((a.total_weight() - 6.0).abs() < 1e-12);
        let collected: EmpiricalCdf = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn absorb_matches_serial_accumulation() {
        // Weights whose sum is order-sensitive in floating point.
        let weights = [1e-3, 1e16, 1.0, 1e-7, 3.5, 1e12];
        let mut serial = EmpiricalCdf::new();
        for (i, &w) in weights.iter().enumerate() {
            serial.add(i as f64, w);
        }
        let mut left = EmpiricalCdf::new();
        left.add(0.0, weights[0]);
        left.add(1.0, weights[1]);
        let mut mid = EmpiricalCdf::new();
        mid.add(2.0, weights[2]);
        mid.add(3.0, weights[3]);
        let mut right = EmpiricalCdf::new();
        right.add(4.0, weights[4]);
        right.add(5.0, weights[5]);
        left.absorb(mid);
        left.absorb(right);
        assert_eq!(left, serial);
        assert_eq!(
            left.total_weight().to_bits(),
            serial.total_weight().to_bits()
        );
    }

    #[test]
    fn absorb_is_a_cheap_merge() {
        let mut a = EmpiricalCdf::from_samples([1.0, 2.0]);
        a.absorb(EmpiricalCdf::from_samples([3.0]));
        a.absorb(EmpiricalCdf::new());
        assert_eq!(a.len(), 3);
        let values: Vec<f64> = a.samples().map(|(v, _)| v).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_observations_round_trips() {
        let mut cdf = EmpiricalCdf::new();
        for (value, weight) in [(2.0, 0.1), (4.0, 3.0), (1.0, 1e16), (8.0, 0.2)] {
            cdf.add(value, weight);
        }
        let rebuilt = EmpiricalCdf::from_observations(cdf.observations().to_vec());
        assert_eq!(rebuilt, cdf);
        assert_eq!(
            rebuilt.total_weight().to_bits(),
            cdf.total_weight().to_bits()
        );
    }

    #[test]
    fn evaluate_at_produces_monotone_series() {
        let cdf = EmpiricalCdf::from_samples([1.0, 10.0, 100.0, 1000.0]);
        let grid = [0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0];
        let series = cdf.evaluate_at(&grid);
        assert_eq!(series.len(), grid.len());
        for window in series.windows(2) {
            assert!(window[1].1 >= window[0].1);
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn log_grid_spans_support() {
        let cdf = EmpiricalCdf::from_samples([1.0, 1e6]);
        let grid = cdf.log_grid(13).unwrap();
        assert_eq!(grid.len(), 13);
        assert!(grid[0] <= 1.0);
        assert!(*grid.last().unwrap() >= 1e6);
        for window in grid.windows(2) {
            assert!(window[1] > window[0]);
        }
        assert!(cdf.log_grid(1).is_err());
    }

    #[test]
    fn quantile_is_monotone_in_p() {
        let cdf = EmpiricalCdf::from_samples((1..=100).map(f64::from));
        let mut previous = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = cdf.quantile(i as f64 / 10.0);
            assert!(q >= previous);
            previous = q;
        }
    }
}
