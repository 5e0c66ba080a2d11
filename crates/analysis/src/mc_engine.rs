//! The Monte-Carlo fault-injection campaign behind Fig. 5.
//!
//! This module is a thin, MSE-specialised facade over
//! [`faultmit_sim::Campaign`], configured by the same
//! [`CampaignConfig`]: for every failure count `n = 1..=N_max` the pipeline
//! draws random fault maps (bit-flip locations distributed uniformly over
//! the array), evaluates the memory MSE of Eq. (6) under **every**
//! protection scheme on the *same* die (paired comparison), and weighs each
//! sample by `Pr(N = n)` so that the aggregated CDF describes the
//! population of manufactured dies.
//!
//! Campaigns are deterministic in the campaign seed and bit-identical at any
//! worker count — see the `determinism` integration test.

use crate::accumulate::CatalogueAccumulator;
use crate::error::AnalysisError;
use crate::mse::CatalogueMse;
use crate::yield_model::YieldModel;
use faultmit_core::Scheme;
use faultmit_memsim::{DieBlock, ImageSpec};
use faultmit_obs as obs;
use faultmit_sim::{Campaign, CampaignConfig, KernelKind, RunError, ShardSpec, ShardStats};
use std::convert::Infallible;

/// The outcome of evaluating one protection scheme in a Monte-Carlo campaign.
#[derive(Debug, Clone)]
pub struct SchemeMseResult {
    /// Human-readable scheme name (as reported by [`Scheme::name`]).
    pub scheme_name: String,
    /// The full yield model, for quality-vs-yield queries. Its combined
    /// CDF at MSE 0 ([`YieldModel::combined_cdf`]) is the weighted MSE CDF
    /// over the simulated die population, the Fig. 5 series for this
    /// scheme; [`YieldModel::combined_cdf_at`],
    /// [`YieldModel::combined_mean`] and [`YieldModel::combined_log_grid`]
    /// read it without materialising it.
    pub yield_model: YieldModel,
}

impl SchemeMseResult {
    /// Yield at an MSE constraint (`Pr(MSE ≤ mse_max)`).
    #[must_use]
    pub fn yield_at_mse(&self, mse_max: f64) -> f64 {
        self.yield_model.yield_at_quality(mse_max)
    }

    /// The MSE that must be tolerated to reach `target_yield`, if reachable.
    #[must_use]
    pub fn mse_for_yield(&self, target_yield: f64) -> Option<f64> {
        self.yield_model
            .quality_for_yield(target_yield)
            .map(|band| band.max_quality)
    }
}

/// The Monte-Carlo fault-injection engine — an MSE-specialised facade over
/// the parallel pipeline.
///
/// The configured [`CampaignConfig::image`] is the data the MSE is
/// evaluated against: with any image other than [`ImageSpec::Zeros`] the
/// engine applies faults *relative to the stored word*, so a stuck-at fault
/// that agrees with the data is silent. The configured
/// [`CampaignConfig::kernel`] selects the evaluation kernel; every kernel
/// accumulates bit-identical results.
#[derive(Debug, Clone)]
pub struct MonteCarloEngine {
    campaign: Campaign,
}

impl MonteCarloEngine {
    /// Creates an engine for the given campaign configuration.
    #[must_use]
    pub fn new(config: CampaignConfig) -> Self {
        Self {
            campaign: Campaign::new(config),
        }
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        self.campaign.config()
    }

    /// Runs one paired campaign over the whole scheme catalogue: every
    /// scheme is evaluated against the **same** fault map of every sampled
    /// die, so per-die comparisons are exact rather than only statistically
    /// matched. Reusing the seed across calls reuses the dies.
    ///
    /// This is the monolithic ([`ShardSpec::solo`]) special case of the
    /// sharded path against the configured image: one full-coverage shard
    /// state, immediately reduced to results.
    ///
    /// # Errors
    ///
    /// Propagates the first error encountered.
    pub fn run_catalogue(
        &self,
        schemes: &[Scheme],
        seed: u64,
    ) -> Result<Vec<SchemeMseResult>, AnalysisError> {
        let (state, _) =
            self.run_catalogue_shard_on_image_stats(schemes, seed, ShardSpec::solo(), None)?;
        self.results_from_state(schemes, state)
    }

    /// Runs one shard of the paired campaign, returning the raw accumulator
    /// state and the shard's [`ShardStats`] instead of finished results.
    ///
    /// `data` is the stored word of every memory row. `None` evaluates the
    /// configured [`CampaignConfig::image`]: the all-zeros fast path for
    /// [`ImageSpec::Zeros`], the [`ImageSpec::words`] of the other
    /// self-contained images, and an error for [`ImageSpec::App`], which
    /// the apps layer materialises and passes as `Some`.
    ///
    /// Shard states merged in shard order (via
    /// [`CatalogueAccumulator::merge`]) are bit-identical to the
    /// monolithic [`MonteCarloEngine::run_catalogue`] accumulation; feed
    /// the merged state to [`MonteCarloEngine::results_from_state`] to
    /// obtain the exact monolithic results.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when a scheme's word
    /// width differs from the memory's or `data` has fewer entries than the
    /// memory has rows, propagates the configured image's materialisation
    /// error, and propagates campaign errors.
    pub fn run_catalogue_shard_on_image_stats(
        &self,
        schemes: &[Scheme],
        seed: u64,
        shard: ShardSpec,
        data: Option<&[u64]>,
    ) -> Result<(CatalogueAccumulator, ShardStats), AnalysisError> {
        let word_bits = self.config().memory().word_bits();
        if let Some(scheme) = schemes.iter().find(|s| s.word_bits() != word_bits) {
            return Err(AnalysisError::InvalidParameter {
                reason: format!(
                    "scheme '{}' protects {}-bit words but the memory has {word_bits}-bit words",
                    scheme.name(),
                    scheme.word_bits()
                ),
            });
        }
        let configured;
        let data = match (data, self.config().image()) {
            (Some(data), _) => {
                let rows = self.config().memory().rows();
                if data.len() < rows {
                    return Err(AnalysisError::InvalidParameter {
                        reason: format!(
                            "data image has {} words but the memory has {rows} rows",
                            data.len()
                        ),
                    });
                }
                data
            }
            // The zeros image needs no word vector: the `|_| 0` source reads
            // what an explicit zeros vector would, through one dispatcher.
            (None, ImageSpec::Zeros) => return self.run_kernel(schemes, seed, shard, |_| 0),
            (None, spec) => {
                configured = spec.words(self.config().memory())?;
                &configured
            }
        };
        self.run_kernel(schemes, seed, shard, |row| data[row])
    }

    /// Dispatches one shard of the paired campaign to the configured
    /// evaluation kernel ([`CampaignConfig::kernel`]), with `written`
    /// supplying the stored word of every row. Both kernels score the whole
    /// catalogue in one [`CatalogueMse`] walk: the sparse kernel per die,
    /// the bit-sliced kernel per block of dies. Every kernel returns the
    /// identical per-die squared-error sums in the identical order, so the
    /// folded accumulator is bit-identical across [`KernelKind`] choices.
    fn run_kernel<W>(
        &self,
        schemes: &[Scheme],
        seed: u64,
        shard: ShardSpec,
        written: W,
    ) -> Result<(CatalogueAccumulator, ShardStats), AnalysisError>
    where
        W: Fn(usize) -> u64 + Sync,
    {
        let walk = CatalogueMse::new(schemes, self.config().memory().word_bits());
        let evaluate = |map: &_, metrics: &mut [f64]| {
            walk.mse_into(map, &written, metrics);
            Ok::<(), Infallible>(())
        };
        // One dispatch event per shard run.
        let run = match self.config().kernel() {
            KernelKind::Sparse => {
                obs::count(obs::Counter::DispatchSparse, 1);
                self.campaign.run_shard(schemes, seed, shard, evaluate)
            }
            KernelKind::Bitsliced => {
                obs::count(obs::Counter::DispatchBitsliced, 1);
                self.campaign.run_shard_blocks(
                    schemes,
                    seed,
                    shard,
                    evaluate,
                    |block: &DieBlock<'_>, metrics: &mut [f64]| {
                        walk.block_mse_into(block, &written, metrics);
                    },
                )
            }
        };
        let (samples, stats) = run.map_err(|error| match error {
            RunError::Sim(e) => AnalysisError::from(e),
            RunError::Eval(infallible) => match infallible {},
        })?;
        Ok((CatalogueAccumulator::from_shard(samples), stats))
    }

    /// Converts accumulated (possibly shard-merged) campaign state into the
    /// per-scheme MSE results — the reduction half of
    /// [`MonteCarloEngine::run_catalogue`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when the state tracks a
    /// different number of schemes than the catalogue, and propagates
    /// distribution errors.
    pub fn results_from_state(
        &self,
        schemes: &[Scheme],
        state: CatalogueAccumulator,
    ) -> Result<Vec<SchemeMseResult>, AnalysisError> {
        if state.scheme_count() != schemes.len() {
            return Err(AnalysisError::InvalidParameter {
                reason: format!(
                    "campaign state tracks {} schemes, catalogue has {}",
                    state.scheme_count(),
                    schemes.len()
                ),
            });
        }
        let distribution = self.config().failure_distribution()?;
        Ok(state
            .into_yield_models(distribution)
            .into_iter()
            .zip(schemes)
            .map(|(yield_model, scheme)| SchemeMseResult {
                scheme_name: scheme.name(),
                yield_model,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf::EmpiricalCdf;
    use faultmit_memsim::MemoryConfig;
    use faultmit_sim::Parallelism;

    /// The result's combined MSE CDF, the scheme's Fig. 5 series.
    fn cdf(result: &SchemeMseResult) -> EmpiricalCdf {
        result.yield_model.combined_cdf(0.0)
    }

    /// Asserts that two results hold the same strata bit for bit: failure
    /// counts, values, weight runs and total weights.
    fn assert_same_strata(a: &SchemeMseResult, b: &SchemeMseResult, what: &str) {
        let bits = |result: &SchemeMseResult| -> Vec<_> {
            result
                .yield_model
                .per_count_cdfs()
                .iter()
                .map(|(&n, cdf)| {
                    let values: Vec<u64> = cdf.values().iter().map(|v| v.to_bits()).collect();
                    let runs: Vec<(u64, usize)> = cdf
                        .weight_runs()
                        .iter()
                        .map(|&(weight, count)| (weight.to_bits(), count))
                        .collect();
                    (n, values, runs, cdf.total_weight().to_bits())
                })
                .collect()
        };
        assert_eq!(a.scheme_name, b.scheme_name, "{what}");
        assert_eq!(bits(a), bits(b), "{what}: {}", a.scheme_name);
    }

    fn small_config() -> CampaignConfig {
        CampaignConfig::new(MemoryConfig::new(128, 32).unwrap(), 1e-3)
            .unwrap()
            .with_samples_per_count(30)
            .with_max_failures(10)
    }

    /// The whole-campaign state against the configured image.
    fn solo_state(
        engine: &MonteCarloEngine,
        schemes: &[Scheme],
        seed: u64,
        data: Option<&[u64]>,
    ) -> CatalogueAccumulator {
        engine
            .run_catalogue_shard_on_image_stats(schemes, seed, ShardSpec::solo(), data)
            .unwrap()
            .0
    }

    /// One scheme's results, as a one-element catalogue.
    fn run_one(engine: &MonteCarloEngine, scheme: Scheme, seed: u64) -> SchemeMseResult {
        engine.run_catalogue(&[scheme], seed).unwrap().remove(0)
    }

    #[test]
    fn identical_seeds_reproduce_identical_results() {
        let engine = MonteCarloEngine::new(small_config());
        let scheme = Scheme::unprotected32();
        let a = run_one(&engine, scheme, 7);
        let b = run_one(&engine, scheme, 7);
        assert_same_strata(&a, &b, "same seed");
        assert_eq!(cdf(&a).len(), cdf(&b).len());
        assert!((cdf(&a).mean().unwrap() - cdf(&b).mean().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn single_run_matches_catalogue_entry() {
        // A scheme evaluated alone and as part of a catalogue sees the same
        // dies (shared seed → shared fault maps), so the CDFs are identical.
        let engine = MonteCarloEngine::new(small_config());
        let alone = run_one(&engine, Scheme::pecc32(), 21);
        let catalogue = engine
            .run_catalogue(&[Scheme::unprotected32(), Scheme::pecc32()], 21)
            .unwrap();
        assert_same_strata(&alone, &catalogue[1], "alone vs catalogue");
    }

    #[test]
    fn secded_has_lowest_mse_and_unprotected_the_highest() {
        let engine = MonteCarloEngine::new(small_config());
        let results = engine
            .run_catalogue(
                &[
                    Scheme::unprotected32(),
                    Scheme::shuffle32(5).unwrap(),
                    Scheme::secded32(),
                ],
                3,
            )
            .unwrap();
        let (unprotected, shuffled, secded) = (&results[0], &results[1], &results[2]);

        let q = 0.99;
        let mse_unprotected = cdf(unprotected).quantile(q);
        let mse_shuffled = cdf(shuffled).quantile(q);
        assert!(
            mse_shuffled < mse_unprotected / 1e3,
            "shuffling must cut the MSE by orders of magnitude"
        );
        // SECDED corrects everything except the (rare at this fault density)
        // words with two or more faults, so on average it is far better than
        // the unprotected memory even though its tail is not necessarily
        // better than fine-grained shuffling.
        assert!(cdf(secded).mean().unwrap() < cdf(unprotected).mean().unwrap() / 5.0);
        // At the median, SECDED memories are error-free.
        assert_eq!(cdf(secded).quantile(0.5), 0.0);
    }

    #[test]
    fn shuffle_mse_improves_with_finer_segments() {
        let engine = MonteCarloEngine::new(small_config());
        let results = engine
            .run_catalogue(
                &[Scheme::shuffle32(1).unwrap(), Scheme::shuffle32(5).unwrap()],
                11,
            )
            .unwrap();
        assert!(cdf(&results[1]).quantile(0.99) <= cdf(&results[0]).quantile(0.99));
    }

    #[test]
    fn paired_comparison_holds_per_die_not_just_in_distribution() {
        // On every single die, finest-grain shuffling can never lose to no
        // protection — an exact paired comparison, impossible with
        // per-scheme resampling.
        let engine = MonteCarloEngine::new(small_config());
        let results = engine
            .run_catalogue(
                &[Scheme::unprotected32(), Scheme::shuffle32(5).unwrap()],
                17,
            )
            .unwrap();
        // Both schemes share every die, so their per-count sample sequences
        // line up one-to-one.
        for (n, unprotected_cdf) in results[0].yield_model.per_count_cdfs() {
            let shuffle_cdf = &results[1].yield_model.per_count_cdfs()[n];
            for (&mse_u, &mse_s) in unprotected_cdf.values().iter().zip(shuffle_cdf.values()) {
                assert!(
                    mse_s <= mse_u + 1e-12,
                    "n = {n}: shuffle {mse_s} > unprotected {mse_u}"
                );
            }
        }
    }

    #[test]
    fn serial_and_parallel_engines_agree_exactly() {
        let serial = MonteCarloEngine::new(small_config().with_parallelism(Parallelism::Serial));
        let parallel =
            MonteCarloEngine::new(small_config().with_parallelism(Parallelism::threads(4)));
        let schemes = [Scheme::unprotected32(), Scheme::pecc32()];
        let a = serial.run_catalogue(&schemes, 5).unwrap();
        let b = parallel.run_catalogue(&schemes, 5).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_same_strata(x, y, "serial vs 4 workers");
        }
    }

    #[test]
    fn yield_at_mse_is_monotone() {
        let engine = MonteCarloEngine::new(small_config());
        let result = run_one(&engine, Scheme::pecc32(), 5);
        let mut previous = 0.0;
        for mse in [0.0, 1.0, 1e3, 1e6, 1e12, 1e19] {
            let y = result.yield_at_mse(mse);
            assert!(y >= previous - 1e-12);
            assert!(y <= 1.0 + 1e-12);
            previous = y;
        }
    }

    #[test]
    fn mse_for_yield_inverts_yield_at_mse() {
        let engine = MonteCarloEngine::new(small_config());
        let result = run_one(&engine, Scheme::shuffle32(2).unwrap(), 13);
        if let Some(threshold) = result.mse_for_yield(0.95) {
            assert!(result.yield_at_mse(threshold) >= 0.95);
        }
    }

    #[test]
    fn engine_runs_on_every_backend_and_reports_its_operating_point() {
        use faultmit_memsim::{Backend, BackendKind};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
            let op = backend.operating_point();
            let config = CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(10)
                .with_max_failures(6);
            assert_eq!(config.operating_point(), op);
            let engine = MonteCarloEngine::new(config);
            let results = engine.run_catalogue(&schemes, 29).unwrap();
            assert_eq!(results.len(), 2, "{kind}");
            // Shuffling never loses to no protection, whatever the backend's
            // spatial law.
            assert!(
                cdf(&results[1]).quantile(0.99) <= cdf(&results[0]).quantile(0.99),
                "{kind}: shuffle q99 exceeds unprotected q99"
            );
        }
    }

    #[test]
    fn sram_backend_engine_matches_the_sram_shorthand_bit_for_bit() {
        use faultmit_memsim::{Backend, SramVddBackend};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let legacy = MonteCarloEngine::new(
            CampaignConfig::new(memory, 1e-3)
                .unwrap()
                .with_samples_per_count(15)
                .with_max_failures(8),
        );
        let explicit = MonteCarloEngine::new(
            CampaignConfig::for_backend(Backend::Sram(
                SramVddBackend::with_p_cell(memory, 1e-3).unwrap(),
            ))
            .unwrap()
            .with_samples_per_count(15)
            .with_max_failures(8),
        );
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let a = legacy.run_catalogue(&schemes, 41).unwrap();
        let b = explicit.run_catalogue(&schemes, 41).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_same_strata(x, y, "legacy vs explicit");
        }
    }

    #[test]
    fn shard_states_merged_in_order_reproduce_the_monolithic_results() {
        let engine = MonteCarloEngine::new(small_config());
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(2).unwrap()];
        let monolithic = engine.run_catalogue(&schemes, 37).unwrap();
        for shard_count in [1usize, 2, 3, 7] {
            let mut merged = CatalogueAccumulator::new(schemes.len());
            for index in 0..shard_count {
                let shard = ShardSpec::new(index, shard_count).unwrap();
                merged.merge(
                    engine
                        .run_catalogue_shard_on_image_stats(&schemes, 37, shard, None)
                        .unwrap()
                        .0,
                );
            }
            let results = engine.results_from_state(&schemes, merged).unwrap();
            for (a, b) in monolithic.iter().zip(&results) {
                assert_same_strata(a, b, &format!("{shard_count} shards"));
            }
        }
    }

    #[test]
    fn the_fold_is_timed_once_per_die() {
        // Every kernel's shard fold is the Reduce stage, one call per
        // evaluated die, at any worker count.
        use std::sync::Arc;
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        for kernel in KernelKind::ALL {
            for workers in [1usize, 3] {
                let engine = MonteCarloEngine::new(
                    small_config()
                        .with_kernel(kernel)
                        .with_parallelism(Parallelism::threads(workers)),
                );
                let recorder = Arc::new(obs::Recorder::new());
                let state = {
                    let _guard = obs::install(&recorder);
                    solo_state(&engine, &schemes, 5, None)
                };
                let recorded = recorder.snapshot();
                assert_eq!(state.samples_recorded(), 300);
                assert_eq!(
                    recorded.stage_calls(obs::Stage::Reduce),
                    recorded.counter(obs::Counter::SamplesEvaluated),
                    "{kernel}, {workers} workers"
                );
                assert_eq!(recorded.stage_calls(obs::Stage::Reduce), 300);
                assert!(recorded.stage_seconds(obs::Stage::Reduce) > 0.0);
            }
        }
    }

    #[test]
    fn zeros_image_is_bit_identical_to_the_legacy_path() {
        // Explicit Zeros image, an explicit all-zeros word vector, and the
        // legacy (imageless) engine must all accumulate identical bits.
        let legacy = MonteCarloEngine::new(small_config());
        let imaged = MonteCarloEngine::new(small_config().with_image(ImageSpec::Zeros));
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(2).unwrap()];
        let a = solo_state(&legacy, &schemes, 23, None);
        let b = solo_state(&imaged, &schemes, 23, None);
        let zeros = vec![0u64; legacy.config().memory().rows()];
        let c = solo_state(&legacy, &schemes, 23, Some(&zeros));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn no_data_means_the_configured_image() {
        // A stuck-at-0 law over the ones image: every fault is observable,
        // so evaluating against zeros instead would read all-silent dies.
        // `None` must evaluate the configured image, bit for bit as the
        // explicit word vector does.
        use faultmit_memsim::{Backend, FaultKindLaw, SramVddBackend};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let backend = Backend::Sram(SramVddBackend::with_p_cell(memory, 1e-3).unwrap())
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 1.0,
            })
            .unwrap();
        let config = CampaignConfig::for_backend(backend)
            .unwrap()
            .with_samples_per_count(10)
            .with_max_failures(6);
        let ones = MonteCarloEngine::new(config.with_image(ImageSpec::Ones));
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let configured = solo_state(&ones, &schemes, 3, None);
        let words = ImageSpec::Ones.words(memory).unwrap();
        assert_eq!(configured, solo_state(&ones, &schemes, 3, Some(&words)));
        let zeros = MonteCarloEngine::new(config);
        assert_ne!(configured, solo_state(&zeros, &schemes, 3, None));
        let results = ones.run_catalogue(&schemes, 3).unwrap();
        let reduced = ones.results_from_state(&schemes, configured).unwrap();
        for (a, b) in results.iter().zip(&reduced) {
            assert_same_strata(a, b, "run vs reduced state");
        }
    }

    #[test]
    fn every_kernel_accumulates_identical_bits_on_zeros_and_data_images() {
        use faultmit_memsim::{Backend, FaultKindLaw, SramVddBackend};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let backend = Backend::Sram(SramVddBackend::with_p_cell(memory, 1e-3).unwrap())
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.6,
            })
            .unwrap();
        let schemes = [
            Scheme::unprotected32(),
            Scheme::secded32(),
            Scheme::shuffle32(2).unwrap(),
        ];
        for image in [ImageSpec::Zeros, ImageSpec::UniformRandom { seed: 0xB17 }] {
            let run = |kernel| {
                // 70 samples per count stresses both full 64-die blocks and
                // the scalar tail inside every chunk.
                let config = CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(70)
                    .with_max_failures(5)
                    .with_chunk_size(67)
                    .with_image(image)
                    .with_kernel(kernel);
                solo_state(&MonteCarloEngine::new(config), &schemes, 91, None)
            };
            let sparse = run(KernelKind::Sparse);
            for kernel in KernelKind::ALL {
                assert_eq!(sparse, run(kernel), "{image:?}: {kernel}");
            }
        }
    }

    #[test]
    fn stuck_at_zero_faults_are_silent_on_zeros_and_observable_on_ones() {
        use faultmit_memsim::{Backend, FaultKindLaw, SramVddBackend};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let backend = Backend::Sram(SramVddBackend::with_p_cell(memory, 1e-3).unwrap())
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 1.0,
            })
            .unwrap();
        let build = |image| {
            MonteCarloEngine::new(
                CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(10)
                    .with_max_failures(6)
                    .with_image(image),
            )
        };
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let silent = build(ImageSpec::Zeros).run_catalogue(&schemes, 3).unwrap();
        for result in &silent {
            assert_eq!(
                result.yield_model.combined_mean(0.0).unwrap_or(0.0),
                0.0,
                "{}: stuck-at-0 over zeros must be invisible",
                result.scheme_name
            );
        }
        let loud = build(ImageSpec::Ones).run_catalogue(&schemes, 3).unwrap();
        assert!(
            loud[0].yield_model.combined_mean(0.0).unwrap() > 0.0,
            "stuck-at-0 over ones must corrupt the unprotected memory"
        );
    }

    #[test]
    fn app_images_are_deferred_to_the_apps_layer() {
        use faultmit_memsim::AppImage;
        let engine =
            MonteCarloEngine::new(small_config().with_image(ImageSpec::App(AppImage::Wine)));
        assert_eq!(engine.config().image(), ImageSpec::App(AppImage::Wine));
        let error = engine
            .run_catalogue(&[Scheme::unprotected32()], 1)
            .unwrap_err();
        assert!(error.to_string().contains("apps layer"), "{error}");
    }

    #[test]
    fn short_data_images_are_rejected() {
        let engine = MonteCarloEngine::new(small_config());
        let error = engine
            .run_catalogue_shard_on_image_stats(
                &[Scheme::unprotected32()],
                1,
                ShardSpec::solo(),
                Some(&[0u64; 3]),
            )
            .unwrap_err();
        assert!(error.to_string().contains("3 words"), "{error}");
    }

    #[test]
    fn schemes_of_another_word_width_are_rejected() {
        // A 16-bit scheme over 32-bit words: faults in the upper half of a
        // row lie outside the scheme's word.
        let engine = MonteCarloEngine::new(small_config());
        let narrow = Scheme::Unprotected { word_bits: 16 };
        let error = engine
            .run_catalogue(&[Scheme::unprotected32(), narrow], 1)
            .unwrap_err();
        assert!(
            matches!(error, AnalysisError::InvalidParameter { .. }),
            "{error}"
        );
        assert!(error.to_string().contains("16-bit words"), "{error}");
    }

    #[test]
    fn results_from_state_rejects_catalogue_size_mismatches() {
        let engine = MonteCarloEngine::new(small_config());
        let schemes = [Scheme::unprotected32(), Scheme::pecc32()];
        let state = CatalogueAccumulator::new(3);
        assert!(engine.results_from_state(&schemes, state).is_err());
    }

    #[test]
    fn run_catalogue_preserves_scheme_order_and_names() {
        let engine = MonteCarloEngine::new(small_config().with_samples_per_count(5));
        let schemes = [Scheme::unprotected32(), Scheme::pecc32()];
        let results = engine.run_catalogue(&schemes, 1).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].scheme_name, "no-correction");
        assert!(results[1].scheme_name.contains("P-ECC"));
    }
}
