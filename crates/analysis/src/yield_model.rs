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

use crate::cdf::EmpiricalCdf;
use faultmit_memsim::FailureCountDistribution;
use std::collections::BTreeMap;

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
/// `n = 0` and every sampled failure count, and sorts the candidate
/// thresholds of [`YieldModel::quality_for_yield`] once.
#[derive(Debug, Clone)]
pub struct YieldModel {
    distribution: FailureCountDistribution,
    per_count: BTreeMap<u64, EmpiricalCdf>,
    /// `Pr(N = 0)`.
    zero_pmf: f64,
    /// `Pr(N = n)` for every key of `per_count`, in key order.
    pmfs: Vec<f64>,
    /// Every recorded sample value, sorted ascending and deduplicated.
    thresholds: Vec<f64>,
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
        let pmfs = per_count.keys().map(|&n| distribution.pmf(n)).collect();
        // Candidate thresholds are the observed sample values themselves.
        let mut thresholds: Vec<f64> = per_count
            .values()
            .flat_map(|cdf| cdf.samples().map(|(value, _)| value))
            .filter(|v| v.is_finite())
            .collect();
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        thresholds.dedup();
        Self {
            zero_pmf: distribution.pmf(0),
            pmfs,
            thresholds,
            distribution,
            per_count,
        }
    }

    /// The per-failure-count quality CDFs (pipeline accumulation output).
    #[must_use]
    pub fn per_count_cdfs(&self) -> &BTreeMap<u64, EmpiricalCdf> {
        &self.per_count
    }

    /// The non-empty strata as `(Pr(N = n), quality CDF)`, in `n` order.
    fn strata(&self) -> impl Iterator<Item = (f64, &EmpiricalCdf)> {
        self.pmfs
            .iter()
            .copied()
            .zip(self.per_count.values())
            .filter(|(_, cdf)| !cdf.is_empty())
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

    /// The yield at quality constraint `q_max`: `Σ_n Pr(N = n) · Pr(Q ≤ q_max | N = n)`
    /// over `n = 0` and every sampled failure count (Eq. (5)).
    #[must_use]
    pub fn yield_at_quality(&self, q_max: f64) -> f64 {
        let mut total = self.zero_pmf * self.conditional_pass_probability(0, q_max);
        for (pmf, cdf) in self.strata() {
            total += pmf * cdf.probability_at_or_below(q_max);
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
    /// yield is monotone non-decreasing in `q_max`, in floating point too:
    /// each stratum's mass is an insertion-order sum of non-negative weights
    /// over a set that only grows with `q_max`, rounding is monotone, and so
    /// are the scaling by `Pr(N = n)`, the sum over strata and `.min(1.0)`.
    /// Any change to `yield_at_quality` must keep that property.
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
        for (pmf, cdf) in self.strata() {
            let scale = pmf / cdf.total_weight();
            combined.extend(cdf.samples().map(|(value, weight)| (value, weight * scale)));
        }
        combined
    }
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
        assert_eq!(quality.observations()[0], (1.0, distribution().pmf(0)));
        assert_eq!(quality.observations()[1..], combined.observations()[1..]);
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
            .flat_map(|cdf| cdf.samples().map(|(value, _)| value))
            .filter(|v| v.is_finite())
            .collect();
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        thresholds.dedup();
        thresholds
            .into_iter()
            .find(|&q| uncached_yield(model, q) >= target_yield)
    }

    /// Bisection against the linear scan, bit for bit, across a seeded sweep
    /// of stratum counts and sizes, non-uniform weights, values shared
    /// across strata and zero-MSE dies. Targets are 0, every yield the model
    /// attains exactly at a sampled threshold, points between those, values
    /// above 1 (unreachable) and NaN.
    #[test]
    fn bisection_matches_the_linear_scan_across_a_randomized_sweep() {
        let mut sweep = SweepRng(0x5EED_F165 | 1);
        let mut reachable = 0;
        for case in 0..48 {
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
            for n in 1..=sweep.pick(1, 12) as u64 {
                if sweep.pick(0, 4) == 0 {
                    continue;
                }
                let mut cdf = EmpiricalCdf::new();
                for _ in 0..sweep.pick(0, 20) {
                    let value = if sweep.pick(0, 1) == 0 {
                        pool[sweep.pick(0, pool.len() - 1)]
                    } else {
                        sweep.unit() * 1e4
                    };
                    // Weights spread over twelve decades, so the order of
                    // the summation shows in the low bits.
                    let weight = (0.5 + sweep.unit()) * 10f64.powi(sweep.pick(0, 12) as i32 - 6);
                    cdf.add(value, weight);
                }
                per_count.insert(n, cdf);
            }
            let model = YieldModel::from_per_count(distribution, per_count);

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
}
