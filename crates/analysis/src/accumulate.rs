//! The accumulator turning shard samples into per-scheme yield models.
//!
//! This is the analysis-side half of the parallel fault-injection pipeline:
//! [`faultmit_sim::Campaign`] returns a shard's dies with one metric per
//! scheme per die ([`ShardSamples`]), and
//! [`CatalogueAccumulator::from_shard`] folds them, in plan order, into
//! each scheme's per-failure-count strata; shard accumulators merge in
//! shard order ([`CatalogueAccumulator::merge`]), and
//! [`CatalogueAccumulator::into_yield_models`] converts the reduction into
//! the [`YieldModel`]s behind Fig. 5.

use crate::cdf::EmpiricalCdf;
use crate::yield_model::{SharedStrata, YieldModel};
use faultmit_memsim::FailureCountDistribution;
use faultmit_obs as obs;
use faultmit_sim::ShardSamples;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-scheme, per-failure-count quality CDFs accumulated from paired
/// samples: every scheme of the catalogue scored on the same dies.
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
    /// through serialisation followed by [`CatalogueAccumulator::merge`] is
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

    /// Folds one shard run's samples into a fresh accumulator, in plan
    /// order and stratum by stratum: each run of dies that shares a failure
    /// count and a chunk appends its metrics to every scheme's stratum of
    /// that count as one weight run, and each chunk's buffer is dropped once
    /// folded. The strata hold exactly the values, weight runs and
    /// order-sensitive total weights of adding the dies one at a time: a
    /// non-finite metric, or a weight [`EmpiricalCdf::add`] would not keep,
    /// is skipped as `add` skips it, and a stratum is created even when all
    /// of its metrics are skipped. Timed as the
    /// [`faultmit_obs::Stage::Reduce`] stage, one call per die.
    ///
    /// # Panics
    ///
    /// Panics when the chunk buffers do not hold `scheme_count` metrics
    /// for every die.
    #[must_use]
    pub fn from_shard(samples: ShardSamples) -> Self {
        let start = Instant::now();
        let ShardSamples {
            scheme_count,
            dies,
            weights,
            chunks,
        } = samples;
        let mut accumulator = Self::new(scheme_count);
        // A zero-scheme campaign's buffers are empty: it has no strata.
        let width = scheme_count.max(1);
        let mut rest = dies.as_slice();
        for chunk in chunks {
            assert_eq!(chunk.len() % width, 0, "a chunk buffer holds a partial die");
            let chunk_dies = &rest[..chunk.len() / width];
            let mut metrics = chunk.as_slice();
            for stratum in chunk_dies.chunk_by(|a, b| a.n_faults == b.n_faults) {
                let n_faults = stratum[0].n_faults;
                let weight = weights[n_faults as usize];
                // The plan lists failure counts in ascending order, so the
                // stratum's dies still to come in this shard are contiguous.
                let stratum_dies = rest.partition_point(|die| die.n_faults == n_faults);
                let (stratum_metrics, later) = metrics.split_at(stratum.len() * scheme_count);
                for (s, per_count) in accumulator.per_scheme.iter_mut().enumerate() {
                    per_count
                        .entry(n_faults)
                        .or_insert_with(|| EmpiricalCdf::with_capacity(stratum_dies))
                        .extend_run(
                            stratum_metrics
                                .iter()
                                .skip(s)
                                .step_by(scheme_count)
                                .copied(),
                            weight,
                        );
                }
                metrics = later;
                rest = &rest[stratum.len()..];
            }
        }
        assert!(
            rest.is_empty() || scheme_count == 0,
            "the chunk buffers end before the shard's dies"
        );
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs::add_stage(obs::Stage::Reduce, nanos, dies.len() as u64);
        accumulator
    }

    /// Absorbs the accumulator of the next shard (in shard order): every
    /// stratum of `other` appends to the same stratum here, so merging the
    /// shards of a campaign in shard order reproduces the monolithic
    /// accumulator bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when both accumulators track schemes but not the same number.
    pub fn merge(&mut self, other: Self) {
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

/// The per-die fold the shard fold replaced, kept as its test reference.
#[cfg(test)]
impl CatalogueAccumulator {
    /// Appends one die's metrics, each of weight `weight`, to each scheme's
    /// stratum of `n_faults`, one [`EmpiricalCdf::add`] at a time.
    pub(crate) fn record(&mut self, n_faults: u64, weight: f64, metrics: &[f64]) {
        assert_eq!(
            metrics.len(),
            self.per_scheme.len(),
            "paired sample metric count does not match the scheme catalogue"
        );
        for (scheme, &metric) in self.per_scheme.iter_mut().zip(metrics) {
            match scheme.last_entry() {
                Some(mut last) if *last.key() == n_faults => {
                    last.get_mut().add(metric, weight);
                }
                last => {
                    let capacity = last.map_or(0, |last| last.get().len());
                    scheme
                        .entry(n_faults)
                        .or_insert_with(|| EmpiricalCdf::with_capacity(capacity))
                        .add(metric, weight)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_core::Scheme;
    use faultmit_memsim::{FaultMap, MemoryConfig, PlannedSample};
    use faultmit_sim::{Campaign, CampaignConfig, Parallelism, ShardSpec};

    /// A hand-built shard: `dies` are each die's fault count and metrics in
    /// plan order, split into chunks of `chunk_dies` dies; every count
    /// weighs 0.1.
    fn shard(dies: &[(u64, &[f64])], chunk_dies: usize) -> ShardSamples {
        let scheme_count = dies.first().map_or(0, |(_, metrics)| metrics.len());
        ShardSamples {
            scheme_count,
            dies: dies
                .iter()
                .enumerate()
                .map(|(index, &(n_faults, _))| PlannedSample {
                    index: index as u64,
                    n_faults,
                })
                .collect(),
            weights: vec![0.1; 8],
            chunks: dies
                .chunks(chunk_dies)
                .map(|chunk| chunk.iter().flat_map(|(_, m)| m.iter().copied()).collect())
                .collect(),
        }
    }

    /// The per-die reference fold of `samples`: every die, in plan order,
    /// through [`CatalogueAccumulator::record`].
    fn record_each(samples: &ShardSamples) -> CatalogueAccumulator {
        let mut accumulator = CatalogueAccumulator::new(samples.scheme_count);
        let metrics = samples.chunks.concat();
        for (die, metrics) in samples
            .dies
            .iter()
            .zip(metrics.chunks(samples.scheme_count))
        {
            accumulator.record(
                die.n_faults,
                samples.weights[die.n_faults as usize],
                metrics,
            );
        }
        accumulator
    }

    /// One stratum: its failure count, then the bits of its values, of its
    /// `(weight, count)` runs and of its total weight.
    type StratumBits = (u64, Vec<u64>, Vec<(u64, usize)>, u64);

    /// Every stratum of every scheme, as bits.
    fn bits(accumulator: &CatalogueAccumulator) -> Vec<Vec<StratumBits>> {
        accumulator
            .per_scheme_counts()
            .iter()
            .map(|per_count| {
                per_count
                    .iter()
                    .map(|(&n, cdf)| {
                        (
                            n,
                            cdf.values().iter().map(|value| value.to_bits()).collect(),
                            cdf.weight_runs()
                                .iter()
                                .map(|&(weight, count)| (weight.to_bits(), count))
                                .collect(),
                            cdf.total_weight().to_bits(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn distribution() -> FailureCountDistribution {
        FailureCountDistribution::new(1000, 1e-3).unwrap()
    }

    #[test]
    fn the_shard_fold_is_the_per_die_fold_bit_for_bit() {
        // 7 dies per count over 6 counts in chunks of 5: chunks straddle
        // strata, and the 2- and 3-shard splits cut strata 3 and 5. Scheme
        // 1 scores some dies NaN or infinite, which both folds skip, and
        // count 4 weighs 0, which `add` does not keep either; the strata
        // still exist.
        let campaign = Campaign::new(
            CampaignConfig::new(MemoryConfig::new(64, 32).unwrap(), 2e-3)
                .unwrap()
                .with_samples_per_count(7)
                .with_max_failures(6)
                .with_chunk_size(5)
                .with_parallelism(Parallelism::threads(2)),
        );
        let schemes = [Scheme::unprotected32(); 3];
        let evaluate = |map: &FaultMap, metrics: &mut [f64]| {
            let cells: usize = map.iter().map(|f| f.row * 32 + f.col).sum();
            metrics[0] = cells as f64 / 7.0;
            metrics[1] = match cells % 4 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => -(cells as f64).sqrt(),
            };
            metrics[2] = if cells.is_multiple_of(3) { -0.0 } else { 0.0 };
            Ok::<(), std::convert::Infallible>(())
        };
        let run = |shard| {
            let (mut samples, _) = campaign.run_shard(&schemes, 11, shard, evaluate).unwrap();
            samples.weights[4] = 0.0;
            samples
        };
        let solo = run(ShardSpec::solo());
        let reference = record_each(&solo);
        // Scheme 0 keeps the 35 dies of the five weighted counts.
        assert_eq!(reference.samples_recorded(), 35);
        assert!(reference.per_scheme_counts()[0][&4].is_empty());
        assert!(reference.per_scheme_counts()[1]
            .values()
            .any(|cdf| cdf.len() < 7));
        for shard_count in [1, 2, 3] {
            let mut merged = CatalogueAccumulator::new(schemes.len());
            for shard in ShardSpec::all(shard_count) {
                let samples = run(shard);
                let folded = CatalogueAccumulator::from_shard(samples.clone());
                assert_eq!(bits(&folded), bits(&record_each(&samples)), "shard {shard}");
                merged.merge(folded);
            }
            assert_eq!(bits(&merged), bits(&reference), "{shard_count} shards");
        }
    }

    #[test]
    fn folds_split_by_scheme_and_count() {
        let acc = CatalogueAccumulator::from_shard(shard(
            &[(1, &[10.0, 1.0]), (1, &[20.0, 2.0]), (3, &[30.0, 3.0])],
            2,
        ));
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
        let acc = CatalogueAccumulator::from_shard(shard(
            &[
                (1, &[10.0, 1.0]),
                (1, &[20.0, 2.0]),
                (2, &[30.0, f64::NAN]),
                (2, &[40.0, 4.0]),
                (3, &[50.0, 5.0]),
            ],
            4,
        ));
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
        let mut left = CatalogueAccumulator::from_shard(shard(&[(2, &[1.0])], 1));
        left.merge(CatalogueAccumulator::from_shard(shard(
            &[(2, &[2.0]), (5, &[3.0])],
            1,
        )));
        let serial =
            CatalogueAccumulator::from_shard(shard(&[(2, &[1.0]), (2, &[2.0]), (5, &[3.0])], 2));
        assert_eq!(left, serial);
    }

    #[test]
    fn merge_into_default_adopts_the_other_side() {
        let mut base = CatalogueAccumulator::default();
        let other = CatalogueAccumulator::from_shard(shard(&[(1, &[1.0, 2.0, 3.0])], 1));
        base.merge(other.clone());
        assert_eq!(base, other);
    }

    #[test]
    fn an_empty_shard_keeps_its_catalogue() {
        let mut samples = shard(&[(1, &[1.0, 2.0])], 1);
        samples.dies.clear();
        samples.chunks.clear();
        let empty = CatalogueAccumulator::from_shard(samples);
        assert_eq!(empty, CatalogueAccumulator::new(2));
    }

    #[test]
    #[should_panic(expected = "partial die")]
    fn mismatched_metric_count_is_rejected() {
        let mut samples = shard(&[(1, &[1.0, 2.0])], 1);
        samples.scheme_count = 3;
        let _ = CatalogueAccumulator::from_shard(samples);
    }
}
