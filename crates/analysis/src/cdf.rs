//! Weighted empirical cumulative distribution functions.
//!
//! Fig. 5 and Fig. 7 of the paper plot CDFs of a quality metric over
//! Monte-Carlo memory samples, where each sample's weight is the probability
//! of its failure count (`Pr(N = n)`, Eq. (4)).
//!
//! An [`EmpiricalCdf`] stores its observations as two columns: the values
//! in insertion order, and their weights as maximal runs of bit-equal
//! weights. Every die of a campaign stratum carries the same weight, so a
//! stratum is one run next to its value column, the shape the shard files
//! write. The order-sensitive floating-point total weight is folded one
//! observation at a time in insertion order, whichever way the CDF is
//! built ([`EmpiricalCdf::add`], [`EmpiricalCdf::absorb`] of a later part,
//! [`EmpiricalCdf::from_columns`]), so a CDF assembled from shards in
//! shard order is bit-identical to a serial accumulation.

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
/// assert_eq!(cdf.values(), [1.0, 10.0, 100.0]);
/// assert_eq!(cdf.weight_runs(), [(0.25, 1), (0.5, 1), (0.25, 1)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmpiricalCdf {
    /// The observation values, in insertion order.
    values: Vec<f64>,
    /// The observations' weights as `(weight, count)` runs covering
    /// `values` in order; adjacent runs never hold bit-equal weights.
    runs: Vec<(f64, usize)>,
    total_weight: f64,
}

impl EmpiricalCdf {
    /// Creates an empty CDF.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty CDF with room for `observations` values.
    pub(crate) fn with_capacity(observations: usize) -> Self {
        Self {
            values: Vec::with_capacity(observations),
            ..Self::default()
        }
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

    /// Rebuilds a CDF from its two columns — the values in insertion order
    /// and `(weight, count)` runs covering them in order — the
    /// deserialisation path of the shard-state files.
    ///
    /// The runs need not be maximal: adjacent runs of bit-equal weights are
    /// joined, and empty runs dropped. The total weight is folded one
    /// observation at a time, so the result is bit-identical to
    /// [`add`](EmpiricalCdf::add)ing the observations in order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when the run counts do
    /// not sum to the number of values, or when `add` would not keep an
    /// observation: a non-finite value, or a weight of a non-empty run that
    /// is not finite and positive.
    pub fn from_columns<I>(values: Vec<f64>, weight_runs: I) -> Result<Self, AnalysisError>
    where
        I: IntoIterator<Item = (f64, usize)>,
    {
        let invalid = |reason: String| Err(AnalysisError::InvalidParameter { reason });
        if let Some(value) = values.iter().find(|value| !value.is_finite()) {
            return invalid(format!("CDF values must be finite, found {value}"));
        }
        let mut cdf = Self {
            values,
            ..Self::default()
        };
        let mut covered = 0usize;
        for (weight, count) in weight_runs {
            if count == 0 {
                continue;
            }
            if !admits_weight(weight) {
                return invalid(format!(
                    "CDF weights must be finite and positive, found {weight}"
                ));
            }
            covered = covered.saturating_add(count);
            if covered <= cdf.values.len() {
                cdf.push_run(weight, count);
            }
        }
        if covered != cdf.values.len() {
            return invalid(format!(
                "weight runs cover {covered} observations, not the {} values",
                cdf.values.len()
            ));
        }
        Ok(cdf)
    }

    /// Adds one observation with the given non-negative weight.
    ///
    /// Observations with zero weight or non-finite values are ignored.
    pub fn add(&mut self, value: f64, weight: f64) {
        if !admits(value, weight) {
            return;
        }
        self.values.push(value);
        self.push_run(weight, 1);
    }

    /// Appends the values [`add`](EmpiricalCdf::add) would keep, in order,
    /// all of weight `weight`, as one run — the campaign fold's path, with
    /// the bits of `add`ing them one at a time.
    pub(crate) fn extend_run(&mut self, values: impl Iterator<Item = f64>, weight: f64) {
        if !admits_weight(weight) {
            return;
        }
        let before = self.values.len();
        self.values.extend(values.filter(|value| value.is_finite()));
        let count = self.values.len() - before;
        if count > 0 {
            self.push_run(weight, count);
        }
    }

    /// Consumes `other`, appending its observations in order — the cheap
    /// shard-merge path.
    pub fn absorb(&mut self, other: EmpiricalCdf) {
        if self.is_empty() {
            // `other` folded its total from the same empty sum.
            *self = other;
            return;
        }
        self.values.extend_from_slice(&other.values);
        for (weight, count) in other.runs {
            self.push_run(weight, count);
        }
    }

    /// Appends `count` weights of `weight` behind the stored ones, folding
    /// each into the total weight in turn, so the running sum matches a
    /// serial accumulation exactly.
    fn push_run(&mut self, weight: f64, count: usize) {
        for _ in 0..count {
            self.total_weight += weight;
        }
        match self.runs.last_mut() {
            Some((last, stored)) if last.to_bits() == weight.to_bits() => *stored += count,
            _ => self.runs.push((weight, count)),
        }
    }

    /// Number of stored observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no observation has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total accumulated weight.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The stored observation values, in insertion order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The stored weights as maximal `(weight, count)` runs of bit-equal
    /// weights, covering [`EmpiricalCdf::values`] in order.
    #[must_use]
    pub fn weight_runs(&self) -> &[(f64, usize)] {
        &self.runs
    }

    /// Each weight run with the values it weighs, in insertion order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (f64, &[f64])> + '_ {
        let mut rest = self.values.as_slice();
        self.runs.iter().map(move |&(weight, count)| {
            let (run, tail) = rest.split_at(count);
            rest = tail;
            (weight, run)
        })
    }

    /// Iterates over the stored `(value, weight)` observations in insertion
    /// order.
    pub fn samples(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.runs()
            .flat_map(|(weight, run)| run.iter().map(move |&value| (value, weight)))
    }

    fn sorted_observations(&self) -> Vec<(f64, f64)> {
        let mut sorted: Vec<(f64, f64)> = self.samples().collect();
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
            .samples()
            .filter(|&(value, _)| value <= x)
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
        self.values
            .iter()
            .copied()
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            .ok_or(AnalysisError::EmptyDistribution)
    }

    /// Maximum observed value.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyDistribution`] when no sample was added.
    pub fn max(&self) -> Result<f64, AnalysisError> {
        self.values
            .iter()
            .copied()
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
        Ok(self.samples().map(|(v, w)| v * w).sum::<f64>() / self.total_weight)
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
        log_grid_over(self.min().ok().zip(self.max().ok()), points)
    }
}

/// [`EmpiricalCdf::log_grid`] over the `(min, max)` of a distribution's
/// values, `None` when it has none.
///
/// Only the clamped bounds shape the grid: `min.max(1e-12)` and
/// `max.max(min * 10)` are the same whichever sign a zero bound carries.
pub(crate) fn log_grid_over(
    support: Option<(f64, f64)>,
    points: usize,
) -> Result<Vec<f64>, AnalysisError> {
    if points < 2 {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("a grid needs at least 2 points, got {points}"),
        });
    }
    let (min, max) = support.ok_or(AnalysisError::EmptyDistribution)?;
    let min = min.max(1e-12);
    let max = max.max(min * 10.0);
    let lo = min.log10() - 1.0;
    let hi = max.log10() + 1.0;
    Ok((0..points)
        .map(|i| 10f64.powf(lo + (hi - lo) * i as f64 / (points - 1) as f64))
        .collect())
}

/// Whether [`EmpiricalCdf::add`] keeps an observation: a finite value with
/// a finite, positive weight.
pub(crate) fn admits(value: f64, weight: f64) -> bool {
    value.is_finite() && admits_weight(weight)
}

/// Whether a weight is finite and positive.
pub(crate) fn admits_weight(weight: f64) -> bool {
    weight.is_finite() && weight > 0.0
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

    /// Asserts that `built` holds exactly `serial`'s observations: the same
    /// value bits, the same maximal weight runs (no two adjacent runs of
    /// bit-equal weights) and the same total-weight bits.
    fn assert_same_columns(built: &EmpiricalCdf, serial: &EmpiricalCdf, what: &str) {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let runs = |cdf: &EmpiricalCdf| {
            cdf.weight_runs()
                .iter()
                .map(|&(weight, count)| (weight.to_bits(), count))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(built.values()),
            bits(serial.values()),
            "{what}: values"
        );
        assert_eq!(runs(built), runs(serial), "{what}: weight runs");
        assert!(
            built
                .weight_runs()
                .windows(2)
                .all(|pair| pair[0].0.to_bits() != pair[1].0.to_bits() && pair[1].1 > 0),
            "{what}: runs are not maximal: {:?}",
            built.weight_runs()
        );
        assert_eq!(
            built.total_weight().to_bits(),
            serial.total_weight().to_bits(),
            "{what}: total weight"
        );
        assert_eq!(built, serial, "{what}");
    }

    /// Observations whose weights repeat in runs of one to three, chosen
    /// so the total weight's bits show how it was folded: adding a run as
    /// `count × weight`, or summing two parts apart and then adding the
    /// sums, gives other bits than adding one weight at a time. Values
    /// include zeros of both signs.
    fn run_observations() -> Vec<(f64, f64)> {
        let weights = [
            1.0, 0.1, 0.1, 0.1, 3.5, 3.5, 1e-3, 1e-3, 1e-3, 0.7, 1e-7, 1e-7, 0.3,
        ];
        weights
            .iter()
            .enumerate()
            .map(|(i, &weight)| {
                let value = match i % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => i as f64 * 1.5,
                };
                (value, weight)
            })
            .collect()
    }

    fn serial(observations: &[(f64, f64)]) -> EmpiricalCdf {
        let mut cdf = EmpiricalCdf::new();
        for &(value, weight) in observations {
            cdf.add(value, weight);
        }
        cdf
    }

    #[test]
    fn absorb_and_extend_accumulate() {
        let mut a = EmpiricalCdf::from_samples([1.0, 2.0]);
        let b = EmpiricalCdf::from_samples([3.0, 4.0]);
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.weight_runs(), [(1.0, 4)]);
        a.extend([(5.0, 2.0)]);
        assert_eq!(a.len(), 5);
        assert_eq!(a.weight_runs(), [(1.0, 4), (2.0, 1)]);
        assert!((a.total_weight() - 6.0).abs() < 1e-12);
        let collected: EmpiricalCdf = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(collected.len(), 3);

        // `extend` is the serial `add` sequence, skipped observations
        // included.
        let observations = run_observations();
        let reference = serial(&observations);
        let mut extended = EmpiricalCdf::new();
        extended.extend(
            observations
                .iter()
                .copied()
                .chain([(f64::NAN, 1.0), (1.0, 0.0)]),
        );
        assert_same_columns(&extended, &reference, "extend");
    }

    #[test]
    fn absorb_matches_serial_accumulation() {
        // Every split into two and into three parts: the boundaries fall
        // inside runs (the parts' boundary weights are bit-equal and their
        // runs must join) and between them.
        let observations = run_observations();
        let reference = serial(&observations);
        assert!(reference.weight_runs().len() < observations.len());
        let len = observations.len();
        for first in 0..=len {
            for second in first..=len {
                let mut left = serial(&observations[..first]);
                left.absorb(serial(&observations[first..second]));
                left.absorb(serial(&observations[second..]));
                assert_same_columns(&left, &reference, &format!("split {first}/{second}"));
            }
        }
        // Absorbing into an empty CDF adopts the other side.
        let mut empty = EmpiricalCdf::new();
        empty.absorb(reference.clone());
        assert_same_columns(&empty, &reference, "into empty");
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
    fn from_columns_round_trips() {
        let observations = run_observations();
        let reference = serial(&observations);
        let values: Vec<f64> = reference.values().to_vec();
        // The maximal runs themselves…
        let rebuilt = EmpiricalCdf::from_columns(values.clone(), reference.weight_runs().to_vec());
        assert_same_columns(&rebuilt.unwrap(), &reference, "maximal runs");
        // …one run per observation…
        let singles = observations.iter().map(|&(_, weight)| (weight, 1));
        let rebuilt = EmpiricalCdf::from_columns(values.clone(), singles);
        assert_same_columns(&rebuilt.unwrap(), &reference, "one run each");
        // …and every run split in two, with empty runs in between.
        let split = reference.weight_runs().iter().flat_map(|&(weight, count)| {
            [
                (weight, count / 2),
                (weight, 0),
                (weight, count - count / 2),
            ]
        });
        let rebuilt = EmpiricalCdf::from_columns(values, split);
        assert_same_columns(&rebuilt.unwrap(), &reference, "split runs");
        let empty = EmpiricalCdf::from_columns(Vec::new(), []).unwrap();
        assert_same_columns(&empty, &EmpiricalCdf::new(), "empty");
    }

    #[test]
    fn from_columns_refuses_what_add_would_not_keep() {
        for (values, runs, reason) in [
            (vec![1.0, 2.0], vec![(0.5, 1)], "cover 1 observations"),
            (vec![1.0, 2.0], vec![(0.5, 3)], "cover 3 observations"),
            (vec![1.0], vec![(0.5, 1), (0.5, usize::MAX)], "cover"),
            (vec![1.0], vec![(0.0, 1)], "finite and positive"),
            (vec![1.0], vec![(-0.5, 1)], "finite and positive"),
            (vec![1.0], vec![(f64::INFINITY, 1)], "finite and positive"),
            (vec![f64::NAN], vec![(0.5, 1)], "finite"),
            (vec![1.0, f64::NEG_INFINITY], vec![(0.5, 2)], "finite"),
        ] {
            let error = EmpiricalCdf::from_columns(values.clone(), runs.clone())
                .expect_err(&format!("accepted {values:?} {runs:?}"));
            assert!(error.to_string().contains(reason), "{error}");
        }
        // An empty run's weight is never read.
        let cdf = EmpiricalCdf::from_columns(vec![1.0], [(f64::NAN, 0), (0.5, 1)]).unwrap();
        assert_eq!(cdf.weight_runs(), [(0.5, 1)]);
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
