//! Pipeline accumulators turning paired samples into per-scheme yield models.
//!
//! These types are the analysis-side half of the parallel fault-injection
//! pipeline: [`faultmit_sim::Campaign`] records every die's
//! [`PairedSample`] (one metric per scheme, same die) into one
//! [`CatalogueAccumulator`] in plan order, which appends each metric to its
//! scheme's current stratum; shard accumulators merge in shard order
//! ([`Accumulator::merge`]), and
//! [`CatalogueAccumulator::into_yield_models`] converts the reduction into
//! the [`YieldModel`]s behind Fig. 5.

use crate::cdf::EmpiricalCdf;
use crate::yield_model::{SharedStrata, YieldModel};
use faultmit_memsim::FailureCountDistribution;
use faultmit_sim::{Accumulator, PairedSample};
use std::collections::BTreeMap;

/// Per-scheme, per-failure-count quality CDFs accumulated from paired
/// samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogueAccumulator {
    per_scheme: Vec<BTreeMap<u64, EmpiricalCdf>>,
}

impl CatalogueAccumulator {
    /// Creates an accumulator for a catalogue of `scheme_count` schemes.
    #[must_use]
    pub fn new(scheme_count: usize) -> Self {
        Self {
            per_scheme: vec![BTreeMap::new(); scheme_count],
        }
    }

    /// Number of schemes tracked.
    #[must_use]
    pub fn scheme_count(&self) -> usize {
        self.per_scheme.len()
    }

    /// The accumulated per-scheme, per-failure-count CDFs in catalogue
    /// order — the accumulator's complete shard state, exposed so campaign
    /// shards can serialise it (see `faultmit-bench`'s shard-state module).
    #[must_use]
    pub fn per_scheme_counts(&self) -> &[BTreeMap<u64, EmpiricalCdf>] {
        &self.per_scheme
    }

    /// Rebuilds an accumulator from previously captured shard state (the
    /// inverse of [`CatalogueAccumulator::per_scheme_counts`]).
    ///
    /// Observation order inside each CDF is preserved, so a round-trip
    /// through serialisation followed by [`Accumulator::merge`] is
    /// bit-identical to merging the original accumulators.
    #[must_use]
    pub fn from_per_scheme_counts(per_scheme: Vec<BTreeMap<u64, EmpiricalCdf>>) -> Self {
        Self { per_scheme }
    }

    /// Total number of recorded samples of the first scheme (all schemes see
    /// the same count).
    #[must_use]
    pub fn samples_recorded(&self) -> usize {
        self.per_scheme
            .first()
            .map(|counts| counts.values().map(EmpiricalCdf::len).sum())
            .unwrap_or(0)
    }

    /// Converts the accumulated statistics into one [`YieldModel`] per
    /// scheme, in catalogue order. Every scheme saw the same dies, so the
    /// models share their strata's `Pr(N = n)` and prefix tables.
    #[must_use]
    pub fn into_yield_models(self, distribution: FailureCountDistribution) -> Vec<YieldModel> {
        let mut shared = SharedStrata::default();
        self.per_scheme
            .into_iter()
            .map(|per_count| YieldModel::sharing(distribution, per_count, &mut shared))
            .collect()
    }
}

impl Accumulator for CatalogueAccumulator {
    fn record(&mut self, sample: &PairedSample) {
        assert_eq!(
            sample.metrics.len(),
            self.per_scheme.len(),
            "paired sample metric count does not match the scheme catalogue"
        );
        for (scheme, &metric) in self.per_scheme.iter_mut().zip(&sample.metrics) {
            // Use the pipeline-provided statistical weight directly, so there
            // is exactly one weighting formula in the system. Downstream
            // consumers (combined_cdf, the Fig. 7 CDF assembly) renormalise
            // per failure count, so conditional probabilities are unchanged.
            // The plan visits failure counts in ascending order, so a die
            // almost always lands in the last stratum, and a new stratum
            // takes as many dies as the one before it.
            match scheme.last_entry() {
                Some(mut last) if *last.key() == sample.n_faults => {
                    last.get_mut().add(metric, sample.weight);
                }
                last => {
                    let capacity = last.map_or(0, |last| last.get().len());
                    scheme
                        .entry(sample.n_faults)
                        .or_insert_with(|| EmpiricalCdf::with_capacity(capacity))
                        .add(metric, sample.weight)
                }
            }
        }
    }

    fn merge(&mut self, other: Self) {
        if self.per_scheme.is_empty() {
            self.per_scheme = other.per_scheme;
            return;
        }
        assert_eq!(
            self.per_scheme.len(),
            other.per_scheme.len(),
            "merging accumulators of different catalogue sizes"
        );
        for (mine, theirs) in self.per_scheme.iter_mut().zip(other.per_scheme) {
            for (failures, cdf) in theirs {
                mine.entry(failures).or_default().absorb(cdf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: u64, n_faults: u64, metrics: &[f64]) -> PairedSample {
        PairedSample {
            sample_index: index,
            n_faults,
            weight: 0.1,
            metrics: metrics.to_vec(),
        }
    }

    fn distribution() -> FailureCountDistribution {
        FailureCountDistribution::new(1000, 1e-3).unwrap()
    }

    #[test]
    fn records_split_by_scheme_and_count() {
        let mut acc = CatalogueAccumulator::new(2);
        acc.record(&sample(0, 1, &[10.0, 1.0]));
        acc.record(&sample(1, 1, &[20.0, 2.0]));
        acc.record(&sample(2, 3, &[30.0, 3.0]));
        assert_eq!(acc.scheme_count(), 2);
        assert_eq!(acc.samples_recorded(), 3);

        let models = acc.into_yield_models(distribution());
        assert_eq!(models.len(), 2);
        assert!(models[0].per_count_cdfs().keys().eq(&[1, 3]));
        // Scheme 0 saw MSE 10/20 at one failure; scheme 1 saw 1/2.
        assert!(models[0].conditional_pass_probability(1, 15.0) > 0.49);
        assert!(models[1].conditional_pass_probability(1, 15.0) > 0.99);
    }

    #[test]
    fn models_sharing_strata_answer_as_standalone_models() {
        // Scheme 1 drops a NaN metric at n = 2, so its stratum there is
        // one sample short of scheme 0's and must not take its table.
        let mut acc = CatalogueAccumulator::new(2);
        for (index, (n, metrics)) in [
            (1, [10.0, 1.0]),
            (1, [20.0, 2.0]),
            (2, [30.0, f64::NAN]),
            (2, [40.0, 4.0]),
            (3, [50.0, 5.0]),
        ]
        .into_iter()
        .enumerate()
        {
            acc.record(&sample(index as u64, n, &metrics));
        }
        let standalone: Vec<YieldModel> = acc
            .per_scheme_counts()
            .iter()
            .map(|per_count| YieldModel::from_per_count(distribution(), per_count.clone()))
            .collect();
        for (shared, alone) in acc
            .into_yield_models(distribution())
            .iter()
            .zip(&standalone)
        {
            for q in [0.5, 1.0, 2.0, 4.0, 10.0, 25.0, 40.0, 50.0, f64::INFINITY] {
                assert_eq!(
                    shared.yield_at_quality(q).to_bits(),
                    alone.yield_at_quality(q).to_bits(),
                    "q = {q}"
                );
            }
            let grid = [0.0, 3.0, 30.0, 60.0];
            assert_eq!(
                shared.combined_cdf_at(0.0, &grid),
                alone.combined_cdf_at(0.0, &grid)
            );
        }
    }

    #[test]
    fn merge_preserves_sample_order() {
        let mut left = CatalogueAccumulator::new(1);
        left.record(&sample(0, 2, &[1.0]));
        let mut right = CatalogueAccumulator::new(1);
        right.record(&sample(1, 2, &[2.0]));
        right.record(&sample(2, 5, &[3.0]));
        left.merge(right);

        let mut serial = CatalogueAccumulator::new(1);
        serial.record(&sample(0, 2, &[1.0]));
        serial.record(&sample(1, 2, &[2.0]));
        serial.record(&sample(2, 5, &[3.0]));
        assert_eq!(left, serial);
    }

    #[test]
    fn merge_into_default_adopts_the_other_side() {
        let mut base = CatalogueAccumulator::default();
        let mut other = CatalogueAccumulator::new(3);
        other.record(&sample(0, 1, &[1.0, 2.0, 3.0]));
        base.merge(other.clone());
        assert_eq!(base, other);
    }

    #[test]
    #[should_panic(expected = "metric count")]
    fn mismatched_metric_count_is_rejected() {
        let mut acc = CatalogueAccumulator::new(2);
        acc.record(&sample(0, 1, &[1.0]));
    }
}
