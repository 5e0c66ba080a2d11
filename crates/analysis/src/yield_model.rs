//! The quality-aware yield criterion of §4 (Eq. (3)–(5)).
//!
//! The traditional yield criterion rejects every die with one or more
//! failures. The paper relaxes it: a die passes as long as its quality
//! (here: the local MSE of Eq. (6)) stays below an application-specific
//! threshold. The yield is then
//!
//! ```text
//!   Pr(Q ≤ q_max) = Σ_n Pr(N = n) · Pr(Q ≤ q_max | N = n)
//! ```
//!
//! [`YieldModel`] combines the binomial failure-count distribution
//! (Eq. (4)) with per-failure-count quality distributions estimated by
//! Monte-Carlo fault injection, and answers both directions of the question:
//! the yield at a given quality constraint, and the quality constraint that
//! must be tolerated to reach a given yield target.

use crate::cdf::{admits, admits_weight, log_grid_over, EmpiricalCdf};
use crate::error::AnalysisError;
use faultmit_memsim::FailureCountDistribution;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A `(target yield, tolerated quality)` pair, e.g. "99.9999 % of dies have
/// MSE below 10⁶".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityBand {
    /// The yield target in `[0, 1]`.
    pub target_yield: f64,
    /// The smallest quality threshold (lower quality value = better, e.g.
    /// MSE) that achieves the target yield.
    pub max_quality: f64,
}

/// Joint failure-count / quality model implementing Eq. (3)–(5).
///
/// Quality values are "lower is better" (the paper uses MSE). Dies with zero
/// failures are assumed to have perfect quality (value 0).
///
/// The model is immutable: its constructor evaluates `Pr(N = n)` once for
/// `n = 0` and every sampled failure count, sorts each stratum's values,
/// and sorts all of them into the candidate thresholds of
/// [`YieldModel::quality_for_yield`].
///
/// Every campaign stratum weighs its samples equally (`Pr(N = n)` over the
/// samples per count), and a stratum's mass at or below `q` is then a
/// function of how many of its values lie there: the insertion-order sum
/// of `c` equal weights is the same `c`-fold sum whichever `c` values pass.
/// Such a stratum answers from a prefix table of those sums, found by
/// bisecting its sorted values, in O(log m) instead of a scan of its `m`
/// observations, with the scan's bits. A stratum whose weights are not
/// all bit-equal keeps the scan. The table depends only on the weight and
/// `m`, so the models of one campaign's schemes share theirs, and their
/// `Pr(N = n)` ([`crate::CatalogueAccumulator::into_yield_models`]).
#[derive(Debug, Clone)]
pub struct YieldModel {
    distribution: FailureCountDistribution,
    per_count: BTreeMap<u64, EmpiricalCdf>,
    /// `Pr(N = 0)`.
    zero_pmf: f64,
    /// The non-empty strata, in `n` order.
    strata: Vec<Stratum>,
    /// Each stratum's values sorted ascending, stratum after stratum.
    sorted: Vec<f64>,
    /// Every recorded sample value, sorted ascending and deduplicated.
    thresholds: Vec<f64>,
}

/// One non-empty stratum of a [`YieldModel`].
#[derive(Debug, Clone)]
struct Stratum {
    /// The failure count `n`.
    failures: u64,
    /// `Pr(N = n)`.
    pmf: f64,
    /// The stratum's total weight, as its CDF accumulated it (positive:
    /// every stored weight is).
    total_weight: f64,
    /// `Some` when every observation carries the same weight, `None` when
    /// the stratum is scanned.
    count_path: Option<CountPath>,
    /// The stratum's values are `sorted[start..end]`.
    start: usize,
    end: usize,
}

/// What a stratum of bit-equal weights answers from.
#[derive(Debug, Clone)]
struct CountPath {
    /// The weight of every observation.
    weight: f64,
    /// `prefix[c]` is the stratum's mass over any `c` of its values: `c`
    /// copies of the weight folded from the empty sum, as the scan folds
    /// them.
    prefix: Arc<[f64]>,
}

/// What the models of one campaign's schemes share, stratum by stratum
/// position: every scheme saw the same dies, so its `k`-th stratum has the
/// same `n`, hence `Pr(N = n)`, and the same weight and size, hence the
/// same prefix table. Models that share one must share their
/// distribution.
#[derive(Debug, Default)]
pub(crate) struct SharedStrata(Vec<SharedStratum>);

#[derive(Debug)]
struct SharedStratum {
    failures: u64,
    pmf: f64,
    /// The prefix table, with the weight bits and size it was folded for.
    table: Option<(u64, usize, Arc<[f64]>)>,
}

impl SharedStrata {
    /// The shared values of the `position`-th stratum, which counts
    /// `failures` failures; positions are asked for in order.
    fn at(
        &mut self,
        position: usize,
        failures: u64,
        distribution: &FailureCountDistribution,
    ) -> &mut SharedStratum {
        if self
            .0
            .get(position)
            .is_none_or(|shared| shared.failures != failures)
        {
            let fresh = SharedStratum {
                failures,
                pmf: distribution.pmf(failures),
                table: None,
            };
            if position == self.0.len() {
                self.0.push(fresh);
            } else {
                self.0[position] = fresh;
            }
        }
        &mut self.0[position]
    }
}

impl SharedStratum {
    /// `c` copies of `weight` folded from the empty sum, for `c` in
    /// `0..=len`.
    fn prefix(&mut self, weight: f64, len: usize) -> Arc<[f64]> {
        match &self.table {
            Some((bits, size, table)) if *bits == weight.to_bits() && *size == len => {
                Arc::clone(table)
            }
            _ => {
                let mut mass = empty_sum();
                let mut table = Vec::with_capacity(len + 1);
                table.push(mass);
                for _ in 0..len {
                    mass += weight;
                    table.push(mass);
                }
                let table: Arc<[f64]> = table.into();
                self.table = Some((weight.to_bits(), len, Arc::clone(&table)));
                table
            }
        }
    }
}

impl Stratum {
    /// How many of the stratum's values lie at or below `q`.
    fn count_at_or_below(&self, sorted: &[f64], q: f64) -> usize {
        sorted[self.start..self.end].partition_point(|&value| value <= q)
    }
}

/// The value an empty `sum()` of weights returns, where every filtered sum
/// of [`EmpiricalCdf::probability_at_or_below`] starts.
fn empty_sum() -> f64 {
    std::iter::empty::<&f64>().sum()
}

impl YieldModel {
    /// The underlying failure-count distribution.
    #[must_use]
    pub fn distribution(&self) -> &FailureCountDistribution {
        &self.distribution
    }

    /// Builds a model from per-failure-count quality CDFs — the parallel
    /// pipeline's reduction output.
    #[must_use]
    pub fn from_per_count(
        distribution: FailureCountDistribution,
        per_count: BTreeMap<u64, EmpiricalCdf>,
    ) -> Self {
        Self::sharing(distribution, per_count, &mut SharedStrata::default())
    }

    /// [`YieldModel::from_per_count`], taking each stratum's `Pr(N = n)`
    /// and prefix table from `shared` where they match, and leaving its own
    /// there.
    pub(crate) fn sharing(
        distribution: FailureCountDistribution,
        per_count: BTreeMap<u64, EmpiricalCdf>,
        shared: &mut SharedStrata,
    ) -> Self {
        let observations: usize = per_count.values().map(EmpiricalCdf::len).sum();
        let mut strata = Vec::with_capacity(per_count.len());
        // Each stratum's values as order keys, one sorted run per stratum.
        let mut keys = Vec::with_capacity(observations);
        for (&failures, cdf) in &per_count {
            if cdf.is_empty() {
                continue;
            }
            let start = keys.len();
            keys.extend(cdf.values().iter().map(|&value| order_key(value)));
            keys[start..].sort_unstable();
            let stratum = shared.at(strata.len(), failures, &distribution);
            let count_path = match *cdf.weight_runs() {
                [(weight, _)] => Some(CountPath {
                    weight,
                    prefix: stratum.prefix(weight, cdf.len()),
                }),
                _ => None,
            };
            strata.push(Stratum {
                failures,
                pmf: stratum.pmf,
                total_weight: cdf.total_weight(),
                count_path,
                start,
                end: keys.len(),
            });
        }
        let sorted = keys.iter().map(|&key| from_order_key(key)).collect();
        Self {
            zero_pmf: distribution.pmf(0),
            thresholds: distinct_values(keys),
            strata,
            sorted,
            distribution,
            per_count,
        }
    }

    /// The per-failure-count quality CDFs (pipeline accumulation output).
    #[must_use]
    pub fn per_count_cdfs(&self) -> &BTreeMap<u64, EmpiricalCdf> {
        &self.per_count
    }

    /// `Pr(Q ≤ q_max | N = n)` from the recorded samples (1 for `n = 0`,
    /// 0 for counts that were never sampled — a conservative assumption).
    #[must_use]
    pub fn conditional_pass_probability(&self, failures: u64, q_max: f64) -> f64 {
        if failures == 0 {
            return if q_max >= 0.0 { 1.0 } else { 0.0 };
        }
        match self.per_count.get(&failures) {
            Some(cdf) if !cdf.is_empty() => cdf.probability_at_or_below(q_max),
            _ => 0.0,
        }
    }

    /// `stratum`'s `Pr(Q ≤ q_max | N = n)`, bit for bit
    /// [`EmpiricalCdf::probability_at_or_below`] of its CDF.
    fn stratum_pass_probability(&self, stratum: &Stratum, q_max: f64) -> f64 {
        match &stratum.count_path {
            Some(count_path) => {
                let count = stratum.count_at_or_below(&self.sorted, q_max);
                count_path.prefix[count] / stratum.total_weight
            }
            None => self.per_count[&stratum.failures].probability_at_or_below(q_max),
        }
    }

    /// The yield at quality constraint `q_max`: `Σ_n Pr(N = n) · Pr(Q ≤ q_max | N = n)`
    /// over `n = 0` and every sampled failure count (Eq. (5)).
    #[must_use]
    pub fn yield_at_quality(&self, q_max: f64) -> f64 {
        let mut total = self.zero_pmf * self.conditional_pass_probability(0, q_max);
        for stratum in &self.strata {
            total += stratum.pmf * self.stratum_pass_probability(stratum, q_max);
        }
        total.min(1.0)
    }

    /// The traditional zero-failure yield `Pr(N = 0)` for reference.
    #[must_use]
    pub fn zero_failure_yield(&self) -> f64 {
        self.zero_pmf
    }

    /// The smallest quality threshold that achieves `target_yield`, searched
    /// over the union of all recorded sample values.
    ///
    /// The search bisects the sorted thresholds, so it evaluates
    /// [`YieldModel::yield_at_quality`] O(log N) times instead of once per
    /// threshold. It returns the threshold a linear scan would because the
    /// yield is monotone non-decreasing in `q_max`, in floating point too.
    /// Each stratum's mass only grows with `q_max`: on the count path it is
    /// the prefix table entry at the number of values at or below `q_max`,
    /// a count that never falls, in a table of running sums of a positive
    /// weight, which never fall either; on the scan it is an insertion-order
    /// sum of non-negative weights over a set that only grows. Dividing by
    /// the stratum's fixed total, scaling by `Pr(N = n)`, the sum over
    /// strata and `.min(1.0)` all round monotonically. Any change to
    /// `yield_at_quality` must keep that property.
    ///
    /// Returns `None` when the target cannot be reached even when tolerating
    /// the worst observed quality (e.g. because unsampled failure counts
    /// carry too much probability mass), and for a NaN target.
    #[must_use]
    pub fn quality_for_yield(&self, target_yield: f64) -> Option<QualityBand> {
        let reaches = |q: f64| self.yield_at_quality(q) >= target_yield;
        let max_quality = if reaches(0.0) {
            0.0
        } else {
            // `!reaches` rather than `yield < target`: a NaN target then
            // fails at every threshold instead of passing at the first.
            let first = self.thresholds.partition_point(|&q| !reaches(q));
            *self.thresholds.get(first)?
        };
        Some(QualityBand {
            target_yield,
            max_quality,
        })
    }

    /// The combined, weighted quality CDF over all dies (the Fig. 5 and
    /// Fig. 7 series): each sample of failure count `n` enters with weight
    /// `Pr(N = n) / (#samples at n)`, and the zero-failure mass enters as
    /// one sample of perfect quality `zero_failure_quality` — 0 in the MSE
    /// convention, the normalised optimum 1 for application quality.
    #[must_use]
    pub fn combined_cdf(&self, zero_failure_quality: f64) -> EmpiricalCdf {
        let mut combined = EmpiricalCdf::new();
        combined.add(zero_failure_quality, self.zero_pmf);
        for stratum in &self.strata {
            let cdf = &self.per_count[&stratum.failures];
            let scale = stratum.pmf / stratum.total_weight;
            combined.extend(cdf.samples().map(|(value, weight)| (value, weight * scale)));
        }
        combined
    }

    /// `self.combined_cdf(zero_failure_quality).evaluate_at(grid)`, bit for
    /// bit, from the per-stratum counts instead of a scan of every
    /// observation per grid point.
    ///
    /// The combined CDF's mass at or below `x` is one insertion-order sum:
    /// the zero-failure sample, then each stratum's scaled weights. On the
    /// count path a stratum adds its one scaled weight once per value at or
    /// below `x`, in sequence, and stops early once an add leaves the sum
    /// unchanged, since every further add of that weight would too.
    #[must_use]
    pub fn combined_cdf_at(&self, zero_failure_quality: f64, grid: &[f64]) -> Vec<(f64, f64)> {
        // Each stratum's factor from stored to combined weights, and on the
        // count path its one combined weight: one weight and finite values,
        // so the combined CDF admitted all of its samples or none.
        let scaled: Vec<(f64, Option<f64>)> = self
            .strata
            .iter()
            .map(|stratum| {
                let scale = stratum.pmf / stratum.total_weight;
                let weight = stratum.count_path.as_ref().map(|path| path.weight * scale);
                (
                    scale,
                    weight.filter(|&w| admits(self.sorted[stratum.start], w)),
                )
            })
            .collect();
        // Every stored value is finite, so at +∞ the mass is the combined
        // CDF's total weight; it is positive unless nothing was admitted.
        let total = self.combined_mass(zero_failure_quality, &scaled, f64::INFINITY);
        grid.iter()
            .map(|&x| {
                let p = if total > 0.0 {
                    self.combined_mass(zero_failure_quality, &scaled, x) / total
                } else {
                    0.0
                };
                (x, p)
            })
            .collect()
    }

    /// `self.combined_cdf(zero_failure_quality).mean()`, bit for bit,
    /// without materialising the combined CDF: the weighted sum and the
    /// total weight fold each admitted run's values with its one scaled
    /// weight, in the combined CDF's insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptyDistribution`] when the combined CDF
    /// would admit no observation.
    pub fn combined_mean(&self, zero_failure_quality: f64) -> Result<f64, AnalysisError> {
        // `EmpiricalCdf` folds its total from `0.0` and its weighted sum
        // from the empty sum.
        let mut total = 0.0;
        let mut moment = empty_sum();
        for (weight, values) in self.combined_runs(&zero_failure_quality) {
            for &value in values {
                moment += value * weight;
                total += weight;
            }
        }
        if total <= 0.0 {
            return Err(AnalysisError::EmptyDistribution);
        }
        Ok(moment / total)
    }

    /// `self.combined_cdf(zero_failure_quality).log_grid(points)`, bit for
    /// bit, from the bounds of the admitted runs' values.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when fewer than two
    /// points are requested, and [`AnalysisError::EmptyDistribution`] when
    /// the combined CDF would admit no observation.
    pub fn combined_log_grid(
        &self,
        zero_failure_quality: f64,
        points: usize,
    ) -> Result<Vec<f64>, AnalysisError> {
        // `f64::min`/`max` may pick either zero of a tie where the CDF's
        // `min`/`max` pick the first or last, a sign the grid never reads
        // (`log_grid_over`).
        let support = self
            .combined_runs(&zero_failure_quality)
            .flat_map(|(_, values)| values)
            .fold(None, |support, &value| match support {
                None => Some((value, value)),
                Some((lo, hi)) => Some((f64::min(lo, value), f64::max(hi, value))),
            });
        log_grid_over(support, points)
    }

    /// The combined CDF's admitted observations as `(weight, values)` runs
    /// in its insertion order: the zero-failure sample at
    /// `zero_failure_quality`, then each stratum's weight runs, every
    /// weight scaled by the stratum's `Pr(N = n) / total weight`. A run the
    /// combined CDF would skip (a scaled weight that is not finite and
    /// positive, or a zero-failure quality that is not finite) is left
    /// out; stored values are always finite.
    fn combined_runs<'a>(
        &'a self,
        zero_failure_quality: &'a f64,
    ) -> impl Iterator<Item = (f64, &'a [f64])> + 'a {
        let zero = admits(*zero_failure_quality, self.zero_pmf)
            .then(|| (self.zero_pmf, std::slice::from_ref(zero_failure_quality)));
        let strata = self.strata.iter().flat_map(move |stratum| {
            let scale = stratum.pmf / stratum.total_weight;
            self.per_count[&stratum.failures]
                .runs()
                .map(move |(weight, values)| (weight * scale, values))
                .filter(|&(weight, _)| admits_weight(weight))
        });
        zero.into_iter().chain(strata)
    }

    /// The combined CDF's (unnormalised) mass at or below `x`, given each
    /// stratum's scale and admitted count-path weight.
    fn combined_mass(
        &self,
        zero_failure_quality: f64,
        scaled: &[(f64, Option<f64>)],
        x: f64,
    ) -> f64 {
        let mut mass = empty_sum();
        if admits(zero_failure_quality, self.zero_pmf) && zero_failure_quality <= x {
            mass += self.zero_pmf;
        }
        for (stratum, &(scale, weight)) in self.strata.iter().zip(scaled) {
            match (&stratum.count_path, weight) {
                (Some(_), Some(weight)) => {
                    for _ in 0..stratum.count_at_or_below(&self.sorted, x) {
                        let next = mass + weight;
                        if next == mass {
                            break;
                        }
                        mass = next;
                    }
                }
                (Some(_), None) => {}
                (None, _) => {
                    for (value, weight) in self.per_count[&stratum.failures].samples() {
                        let weight = weight * scale;
                        if admits(value, weight) && value <= x {
                            mass += weight;
                        }
                    }
                }
            }
        }
        mass
    }
}

/// `value`'s bits as an unsigned integer that orders like
/// [`f64::total_cmp`]: finite values ascending, −0 just below +0. Sorting
/// these is cheaper than sorting the `f64`s through a comparator.
fn order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The value whose [`order_key`] is `key`.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// The distinct values of `keys`, ascending. `keys` arrive as the strata's
/// sorted runs, but these runs are short (tens of values) and interleave,
/// and one integer sort of all of them is faster than merging them
/// pairwise: each merge step waits on the comparison before it.
fn distinct_values(mut keys: Vec<u64>) -> Vec<f64> {
    keys.sort_unstable();
    let mut values: Vec<f64> = keys.into_iter().map(from_order_key).collect();
    values.dedup();
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distribution() -> FailureCountDistribution {
        // Small memory: 1000 cells at P_cell = 1e-3 → mean 1 failure.
        FailureCountDistribution::new(1000, 1e-3).unwrap()
    }

    /// A model whose stratum `n` holds the equally weighted `values`.
    fn model(distribution: FailureCountDistribution, strata: Vec<(u64, Vec<f64>)>) -> YieldModel {
        YieldModel::from_per_count(
            distribution,
            strata
                .into_iter()
                .map(|(n, values)| (n, EmpiricalCdf::from_samples(values)))
                .collect(),
        )
    }

    #[test]
    fn zero_failure_yield_matches_distribution() {
        let model = model(distribution(), vec![]);
        assert!((model.zero_failure_yield() - distribution().pmf(0)).abs() < 1e-15);
    }

    #[test]
    fn conditional_probability_for_zero_failures_is_one() {
        let model = model(distribution(), vec![]);
        assert_eq!(model.conditional_pass_probability(0, 0.0), 1.0);
        assert_eq!(model.conditional_pass_probability(0, 1e9), 1.0);
        // Unsampled counts are conservatively treated as failing.
        assert_eq!(model.conditional_pass_probability(3, 1e9), 0.0);
    }

    #[test]
    fn yield_at_quality_combines_counts() {
        let model = model(
            distribution(),
            vec![
                // Dies with 1 failure: half have MSE 10, half MSE 1000.
                (1, vec![10.0, 10.0, 1000.0, 1000.0]),
                // Dies with 2 failures: all have MSE 1e6.
                (2, vec![1e6, 1e6]),
            ],
        );

        let p0 = distribution().pmf(0);
        let p1 = distribution().pmf(1);
        let p2 = distribution().pmf(2);

        let y = model.yield_at_quality(100.0);
        assert!((y - (p0 + 0.5 * p1)).abs() < 1e-12);
        let y = model.yield_at_quality(1e5);
        assert!((y - (p0 + p1)).abs() < 1e-12);
        let y = model.yield_at_quality(1e7);
        assert!((y - (p0 + p1 + p2)).abs() < 1e-12);
    }

    #[test]
    fn yield_is_monotone_in_quality_threshold() {
        let model = model(
            distribution(),
            vec![
                (1, (1..=50).map(|i| f64::from(i) * 7.0).collect()),
                (2, (1..=50).map(|i| f64::from(i) * 70.0).collect()),
            ],
        );
        let mut previous = 0.0;
        for q in [0.0, 10.0, 100.0, 1000.0, 10000.0] {
            let y = model.yield_at_quality(q);
            assert!(y >= previous);
            assert!(y <= 1.0);
            previous = y;
        }
    }

    #[test]
    fn quality_for_yield_finds_smallest_threshold() {
        let model = model(distribution(), vec![(1, vec![1.0, 2.0, 3.0, 4.0])]);
        // Zero-failure mass alone is ~36.8%, so a 30% target needs MSE 0.
        let band = model.quality_for_yield(0.3).unwrap();
        assert_eq!(band.max_quality, 0.0);
        // A 50% target needs to also accept some single-failure dies.
        let band = model.quality_for_yield(0.5).unwrap();
        assert!(band.max_quality >= 1.0);
        assert!(model.yield_at_quality(band.max_quality) >= 0.5);
        // An unreachable target returns None (dies with ≥2 failures are
        // unsampled and there are not enough sampled ones).
        assert!(model.quality_for_yield(0.9999).is_none());
    }

    #[test]
    fn combined_cdf_total_weight_tracks_coverage() {
        let model = model(
            distribution(),
            vec![(1, vec![5.0; 10]), (2, vec![50.0; 10])],
        );
        let combined = model.combined_cdf(0.0);
        let expected_weight = distribution().pmf(0) + distribution().pmf(1) + distribution().pmf(2);
        assert!((combined.total_weight() - expected_weight).abs() < 1e-9);
        // Quality 5 or better: zero-failure dies plus all one-failure dies.
        let p = combined.probability_at_or_below(5.0) * combined.total_weight();
        assert!((p - (distribution().pmf(0) + distribution().pmf(1))).abs() < 1e-9);
        // The zero-failure mass sits at the quality it is given.
        let quality = model.combined_cdf(1.0);
        assert_eq!(quality.values()[0], 1.0);
        assert_eq!(quality.weight_runs()[0], (distribution().pmf(0), 1));
        assert_eq!(quality.values()[1..], combined.values()[1..]);
        assert_eq!(quality.weight_runs()[1..], combined.weight_runs()[1..]);
    }

    /// A tiny deterministic xorshift for the sweep below.
    struct SweepRng(u64);

    impl SweepRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// A value in `lo..=hi`.
        fn pick(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() as usize) % (hi - lo + 1)
        }

        /// A value in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The yield as computed before the model cached its pmfs: `Pr(N = n)`
    /// re-evaluated per stratum on every call.
    fn uncached_yield(model: &YieldModel, q_max: f64) -> f64 {
        let distribution = model.distribution();
        let mut total = distribution.pmf(0) * model.conditional_pass_probability(0, q_max);
        for (&n, cdf) in model.per_count_cdfs() {
            if cdf.is_empty() {
                continue;
            }
            total += distribution.pmf(n) * cdf.probability_at_or_below(q_max);
        }
        total.min(1.0)
    }

    /// The linear scan the bisection replaced: every sorted, deduplicated
    /// sample value in turn, against the uncached yield.
    fn linear_scan(model: &YieldModel, target_yield: f64) -> Option<f64> {
        if uncached_yield(model, 0.0) >= target_yield {
            return Some(0.0);
        }
        let mut thresholds: Vec<f64> = model
            .per_count_cdfs()
            .values()
            .flat_map(|cdf| cdf.values().iter().copied())
            .filter(|v| v.is_finite())
            .collect();
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        thresholds.dedup();
        thresholds
            .into_iter()
            .find(|&q| uncached_yield(model, q) >= target_yield)
    }

    /// A weight spread over twelve decades, so the order of a summation
    /// shows in the low bits.
    fn spread_weight(sweep: &mut SweepRng) -> f64 {
        (0.5 + sweep.unit()) * 10f64.powi(sweep.pick(0, 12) as i32 - 6)
    }

    /// A seeded model mixing strata of one bit-equal weight (the count
    /// path) with strata of spread weights (the scan), values shared
    /// across strata, zero-MSE dies and empty strata.
    fn sweep_model(sweep: &mut SweepRng) -> YieldModel {
        let distribution = FailureCountDistribution::new(
            sweep.pick(50, 4000),
            [1e-4, 1e-3, 5e-3][sweep.pick(0, 2)],
        )
        .unwrap();
        // A small pool makes values recur within and across strata.
        let pool: Vec<f64> = (0..sweep.pick(1, 12))
            .map(|i| if i == 0 { 0.0 } else { sweep.unit() * 1e4 })
            .collect();
        let mut per_count = BTreeMap::new();
        for n in 1..=sweep.pick(2, 12) as u64 {
            // The first two strata are one of each kind, later ones either.
            let equal = match n {
                1 => true,
                2 => false,
                _ if sweep.pick(0, 4) == 0 => continue,
                _ => sweep.pick(0, 1) == 0,
            };
            let samples = if n <= 2 {
                sweep.pick(2, 20)
            } else {
                sweep.pick(0, 20)
            };
            let weight = spread_weight(sweep);
            let mut cdf = EmpiricalCdf::new();
            for _ in 0..samples {
                let value = if sweep.pick(0, 1) == 0 {
                    pool[sweep.pick(0, pool.len() - 1)]
                } else {
                    sweep.unit() * 1e4
                };
                let weight = if equal { weight } else { spread_weight(sweep) };
                cdf.add(value, weight);
            }
            per_count.insert(n, cdf);
        }
        YieldModel::from_per_count(distribution, per_count)
    }

    /// Bisection against the linear scan, bit for bit, across a seeded sweep
    /// of stratum counts and sizes in which every case mixes count-path and
    /// scanned strata ([`sweep_model`]). The yield must match the scan's
    /// bits at every threshold and between them, and targets are 0, every
    /// yield the model attains exactly at a sampled threshold, points
    /// between those, values above 1 (unreachable) and NaN.
    #[test]
    fn bisection_matches_the_linear_scan_across_a_randomized_sweep() {
        let mut sweep = SweepRng(0x5EED_F165 | 1);
        let mut reachable = 0;
        for case in 0..48 {
            let model = sweep_model(&mut sweep);
            let kinds: Vec<bool> = model
                .strata
                .iter()
                .map(|s| s.count_path.is_some())
                .collect();
            assert!(
                kinds.contains(&true) && kinds.contains(&false),
                "case {case}: {kinds:?}"
            );

            let between = model
                .thresholds
                .windows(2)
                .map(|pair| 0.5 * (pair[0] + pair[1]));
            for q in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.0, 1e9]
                .into_iter()
                .chain(between)
            {
                assert_eq!(
                    model.yield_at_quality(q).to_bits(),
                    uncached_yield(&model, q).to_bits(),
                    "case {case}: q = {q}"
                );
            }
            let attained: Vec<f64> = std::iter::once(0.0)
                .chain(model.thresholds.iter().copied())
                .map(|q| {
                    let y = model.yield_at_quality(q);
                    assert_eq!(
                        y.to_bits(),
                        uncached_yield(&model, q).to_bits(),
                        "case {case}"
                    );
                    y
                })
                .collect();
            for pair in attained.windows(2) {
                assert!(pair[0] <= pair[1], "case {case}: yield falls {pair:?}");
            }

            let mut targets = vec![0.0, -0.25, 1.0, 1.5, f64::INFINITY, f64::NAN];
            targets.extend(&attained);
            targets.extend(attained.windows(2).map(|pair| 0.5 * (pair[0] + pair[1])));
            targets.extend(attained.iter().map(|y| f64::from_bits(y.to_bits() + 1)));
            for target in targets {
                let expected = linear_scan(&model, target);
                let band = model.quality_for_yield(target);
                assert_eq!(
                    band.map(|b| b.max_quality.to_bits()),
                    expected.map(f64::to_bits),
                    "case {case}: target {target}"
                );
                if let Some(band) = band {
                    assert_eq!(band.target_yield.to_bits(), target.to_bits());
                    reachable += 1;
                } else {
                    assert!(target.is_nan() || target > uncached_yield(&model, f64::MAX));
                }
            }
        }
        assert!(
            reachable > 1000,
            "the sweep reached only {reachable} targets"
        );
    }

    #[test]
    fn a_stratum_with_unequal_weights_falls_back_to_the_scan() {
        let mut equal = EmpiricalCdf::new();
        let mut unequal = EmpiricalCdf::new();
        for (i, value) in [30.0, 10.0, 20.0, 10.0, 40.0].into_iter().enumerate() {
            equal.add(value, 0.1);
            // Weights over sixteen decades: the sum depends on its order.
            unequal.add(value, 10f64.powi(4 * i as i32 - 8));
        }
        let model =
            YieldModel::from_per_count(distribution(), BTreeMap::from([(1, equal), (2, unequal)]));
        assert_eq!(
            model.strata[0]
                .count_path
                .as_ref()
                .map(|p| p.weight.to_bits()),
            Some(0.1f64.to_bits())
        );
        assert!(model.strata[1].count_path.is_none());
        // Both strata hold the same values, so every threshold and every
        // point between two of them decides both.
        for q in [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0] {
            for (n, stratum) in [(1, &model.strata[0]), (2, &model.strata[1])] {
                assert_eq!(
                    model.stratum_pass_probability(stratum, q).to_bits(),
                    model.per_count[&n].probability_at_or_below(q).to_bits(),
                    "n = {n}, q = {q}"
                );
            }
            assert_eq!(
                model.yield_at_quality(q).to_bits(),
                uncached_yield(&model, q).to_bits(),
                "q = {q}"
            );
        }
        for target in [0.4, 0.5, 0.6, 0.7, 0.73] {
            assert_eq!(
                model
                    .quality_for_yield(target)
                    .map(|b| b.max_quality.to_bits()),
                linear_scan(&model, target).map(f64::to_bits),
                "target {target}"
            );
        }
    }

    /// The grid points every combined-CDF check evaluates: the model's
    /// thresholds, points between them, zero of both signs, negative
    /// points, ±∞ and NaN.
    fn combined_grid(model: &YieldModel) -> Vec<f64> {
        let mut grid = vec![
            f64::NAN,
            f64::NEG_INFINITY,
            -1e3,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
        ];
        grid.extend(&model.thresholds);
        grid.extend(
            model
                .thresholds
                .windows(2)
                .map(|pair| 0.5 * (pair[0] + pair[1])),
        );
        grid
    }

    /// `combined_cdf_at`, `combined_mean` and `combined_log_grid` against
    /// the materialised combined CDF, bit for bit (or the same error), at
    /// both zero-failure qualities the figures use.
    fn assert_combined_cdf_matches(model: &YieldModel, what: &str) {
        let grid = combined_grid(model);
        let grid_bits = |grid: Result<Vec<f64>, AnalysisError>| {
            grid.map(|grid| grid.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        for zero_failure_quality in [0.0, 1.0] {
            let materialised = model.combined_cdf(zero_failure_quality);
            let expected = materialised.evaluate_at(&grid);
            let counted = model.combined_cdf_at(zero_failure_quality, &grid);
            assert_eq!(counted.len(), expected.len(), "{what}");
            for (&(x, p), &(ex, ep)) in counted.iter().zip(&expected) {
                assert_eq!(
                    (x.to_bits(), p.to_bits()),
                    (ex.to_bits(), ep.to_bits()),
                    "{what}, zero quality {zero_failure_quality}: at {x}"
                );
            }
            assert_eq!(
                model.combined_mean(zero_failure_quality).map(f64::to_bits),
                materialised.mean().map(f64::to_bits),
                "{what}, zero quality {zero_failure_quality}: mean"
            );
            for points in [0, 1, 2, 40] {
                assert_eq!(
                    grid_bits(model.combined_log_grid(zero_failure_quality, points)),
                    grid_bits(materialised.log_grid(points)),
                    "{what}, zero quality {zero_failure_quality}: {points}-point log grid"
                );
            }
        }
    }

    #[test]
    fn combined_cdf_at_matches_the_materialised_series_bit_for_bit() {
        let mut sweep = SweepRng(0xC0_FFEE);
        for case in 0..48 {
            assert_combined_cdf_matches(&sweep_model(&mut sweep), &format!("case {case}"));
        }
        // Weights of campaign strata: `Pr(N = n)` over the samples per
        // count, at a point where the heavy strata carry most of the mass
        // and the tail strata's scaled weights are too small to move it.
        let campaign = FailureCountDistribution::new(131_072, 5e-6).unwrap();
        let strata = (1..=40u64)
            .map(|n| {
                let mut cdf = EmpiricalCdf::new();
                for i in 0..25u32 {
                    cdf.add(
                        f64::from((i * 7 + n as u32) % 13) * n as f64,
                        campaign.pmf(n) / 25.0,
                    );
                }
                (n, cdf)
            })
            .collect();
        assert_combined_cdf_matches(&YieldModel::from_per_count(campaign, strata), "campaign");
        // `Pr(N = 0) = 0`: the zero-failure sample is never admitted.
        let certain = FailureCountDistribution::new(100, 1.0).unwrap();
        assert_eq!(certain.pmf(0), 0.0);
        let strata = BTreeMap::from([
            (99, EmpiricalCdf::from_samples([1.0, 2.0])),
            (100, EmpiricalCdf::from_samples([3.0, 0.5, 3.0])),
        ]);
        assert_combined_cdf_matches(
            &YieldModel::from_per_count(certain, strata),
            "Pr(N = 0) = 0",
        );
        // A stratum whose scaled weight underflows to 0, which the combined
        // CDF skips, next to an empty stratum and a live one.
        let tail = distribution();
        assert_eq!(tail.pmf(400) * 0.5, 0.0);
        let strata = BTreeMap::from([
            (1, EmpiricalCdf::from_samples([5.0, 1.0])),
            (2, EmpiricalCdf::new()),
            (400, EmpiricalCdf::from_samples([0.5, 700.0])),
        ]);
        let model = YieldModel::from_per_count(tail, strata);
        assert_eq!(model.strata.len(), 2, "the empty stratum is dropped");
        assert_combined_cdf_matches(&model, "underflow");
        // The skipped stratum's 700 does not widen the grid past the live
        // support [1, 5] (padded to a decade, [1, 10], then a decade out),
        // nor its 0.5 below the zero-failure quality 1.
        let grid = model.combined_log_grid(1.0, 40).unwrap();
        assert_eq!((grid[0], grid[39]), (0.1, 100.0), "{grid:?}");
        // Zeros of both signs, in equal- and unequal-weight strata and as
        // the only values (the grid then spans the clamp alone).
        let mut unequal = EmpiricalCdf::new();
        for (value, weight) in [(0.0, 0.25), (-0.0, 0.5), (4.0, 0.125), (-0.0, 0.125)] {
            unequal.add(value, weight);
        }
        let strata = BTreeMap::from([
            (1, EmpiricalCdf::from_samples([-0.0, 0.0, 3.0])),
            (2, unequal),
        ]);
        assert_combined_cdf_matches(&YieldModel::from_per_count(tail, strata), "signed zeros");
        let strata = BTreeMap::from([(1, EmpiricalCdf::from_samples([-0.0, 0.0, -0.0]))]);
        assert_combined_cdf_matches(&YieldModel::from_per_count(tail, strata), "only zeros");
        // Nothing admitted at all: every point reads 0, and the mean and
        // the grid report an empty distribution.
        let nothing = YieldModel::from_per_count(certain, BTreeMap::new());
        assert_combined_cdf_matches(&nothing, "empty");
        assert!(nothing
            .combined_cdf_at(0.0, &[0.0, 1.0])
            .iter()
            .all(|&(_, p)| p == 0.0));
        assert_eq!(
            nothing.combined_mean(0.0),
            Err(AnalysisError::EmptyDistribution)
        );
        assert_eq!(
            nothing.combined_log_grid(0.0, 40),
            Err(AnalysisError::EmptyDistribution)
        );
        // Strata whose every scaled weight is 0 admit nothing either.
        assert_eq!(certain.pmf(99), 0.0);
        let strata = BTreeMap::from([(99, EmpiricalCdf::from_samples([1.0, 2.0]))]);
        let skipped = YieldModel::from_per_count(certain, strata);
        assert_combined_cdf_matches(&skipped, "nothing admitted");
        assert_eq!(
            skipped.combined_mean(1.0),
            Err(AnalysisError::EmptyDistribution)
        );
    }
}
