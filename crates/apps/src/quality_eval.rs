//! The Fig. 7 harness: application quality under memory faults.
//!
//! For each benchmark the evaluation flow follows §5.2 of the paper:
//!
//! 1. generate the dataset and split it 0.8 : 0.2 into training and test
//!    partitions;
//! 2. quantise the training features to the 32-bit storage format and pass
//!    them through a faulty memory protected by the scheme under study;
//! 3. train the algorithm on the (possibly corrupted) training data;
//! 4. evaluate the quality metric on the *clean* test partition;
//! 5. normalise against the fault-free baseline, so an uncorrupted run (and
//!    the H(39,32) SECDED reference) scores 1.0.
//!
//! Repeating steps 2–5 over Monte-Carlo fault maps drawn for each failure
//! count, weighted by `Pr(N = n)`, yields the quality CDFs of Fig. 7.
//!
//! Only step 2 depends on the fault map, and only through the words stored
//! in fault-bearing rows. A campaign call therefore prepares the benchmark
//! once (dataset, split, standardised partitions, storage words, baseline);
//! each (die, scheme) evaluation reads back just the die's fault-bearing
//! rows ([`FaultyStore::read_back`]) and refits only when a word changed.

use crate::datasets::{HarDataset, MadelonDataset, WineQualityDataset};
use crate::elasticnet::ElasticNet;
use crate::error::AppError;
use crate::faulty_storage::{FaultyStore, StoredMatrix};
use crate::fixedpoint::FixedPointFormat;
use crate::knn::KnnClassifier;
use crate::linalg::Matrix;
use crate::metrics::{explained_variance_score, normalized_quality};
use crate::pca::Pca;
use crate::preprocessing::{train_test_split, Standardizer};
use faultmit_analysis::{CatalogueAccumulator, EmpiricalCdf, YieldModel};
use faultmit_core::MitigationScheme;
use faultmit_memsim::{FaultBackend, FaultMap, FaultMapSampler, MemoryConfig, SramVddBackend};
use faultmit_sim::{Campaign, CampaignConfig, MapPolicy, Parallelism, ShardSpec, ShardStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three application benchmarks of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Elasticnet regression on the wine-quality dataset (metric: R²).
    Elasticnet,
    /// PCA on the Madelon-like dataset (metric: explained variance).
    Pca,
    /// KNN classification on the activity-recognition dataset (metric: score).
    Knn,
}

impl Benchmark {
    /// All benchmarks in Table 1 order.
    pub const ALL: [Benchmark; 3] = [Benchmark::Elasticnet, Benchmark::Pca, Benchmark::Knn];

    /// Human-readable benchmark name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Elasticnet => "Elasticnet",
            Benchmark::Pca => "PCA",
            Benchmark::Knn => "KNN",
        }
    }

    /// Name of the quality metric, as in Table 1.
    #[must_use]
    pub fn metric_name(&self) -> &'static str {
        match self {
            Benchmark::Elasticnet => "R2",
            Benchmark::Pca => "Explained Variance",
            Benchmark::Knn => "Score",
        }
    }

    /// Name of the (synthetic stand-in for the) dataset, as in Table 1.
    #[must_use]
    pub fn dataset_name(&self) -> &'static str {
        match self {
            Benchmark::Elasticnet => "Wine Quality (synthetic)",
            Benchmark::Pca => "Madelon (synthetic)",
            Benchmark::Knn => "Activity Recognition (synthetic)",
        }
    }
}

/// Result of a Fig. 7 Monte-Carlo campaign for one benchmark and scheme.
#[derive(Debug, Clone)]
pub struct QualityCdfResult {
    /// Benchmark evaluated.
    pub benchmark: Benchmark,
    /// Protection scheme name.
    pub scheme_name: String,
    /// Fault-free quality (denominator of the normalisation).
    pub baseline_quality: f64,
    /// Weighted CDF of the normalised quality metric over the die population.
    pub cdf: EmpiricalCdf,
    /// Full yield model over the normalised quality (note: quality is
    /// "higher is better" here, so yield at a *minimum* quality `q` is
    /// `1 − P(Q ≤ q)` plus the mass exactly at `q`).
    pub yield_model: YieldModel,
}

impl QualityCdfResult {
    /// Fraction of dies whose normalised quality is at least `min_quality`.
    #[must_use]
    pub fn yield_at_min_quality(&self, min_quality: f64) -> f64 {
        if self.cdf.is_empty() {
            return 0.0;
        }
        let below = self.cdf.probability_at_or_below(min_quality - 1e-12);
        1.0 - below
    }
}

/// Builder for [`QualityEvaluator`].
#[derive(Debug, Clone, Copy)]
pub struct QualityEvaluatorBuilder {
    benchmark: Benchmark,
    samples: usize,
    memory_rows: usize,
    dataset_seed: u64,
    format: FixedPointFormat,
    pca_components: usize,
    parallelism: Parallelism,
}

impl QualityEvaluatorBuilder {
    /// Sets the number of dataset samples to generate.
    #[must_use]
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(16);
        self
    }

    /// Sets the number of rows of the faulty memory bank.
    #[must_use]
    pub fn memory_rows(mut self, rows: usize) -> Self {
        self.memory_rows = rows.max(16);
        self
    }

    /// Sets the dataset generator seed.
    #[must_use]
    pub fn dataset_seed(mut self, seed: u64) -> Self {
        self.dataset_seed = seed;
        self
    }

    /// Sets the fixed-point storage format.
    #[must_use]
    pub fn format(mut self, format: FixedPointFormat) -> Self {
        self.format = format;
        self
    }

    /// Sets the number of principal components retained by the PCA benchmark.
    #[must_use]
    pub fn pca_components(mut self, components: usize) -> Self {
        self.pca_components = components.max(1);
        self
    }

    /// Sets the pipeline worker policy used by the Monte-Carlo campaigns
    /// (results are identical for every setting).
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Builds the evaluator. Nothing is generated here: every evaluation
    /// call generates and prepares the dataset itself, once per call (a
    /// campaign call prepares it once for all of its fault maps).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] for inconsistent configuration.
    pub fn build(self) -> Result<QualityEvaluator, AppError> {
        if self.format.word_bits() != 32 {
            return Err(AppError::InvalidParameter {
                reason: "the Fig. 7 evaluation uses 32-bit memory words".to_owned(),
            });
        }
        Ok(QualityEvaluator {
            benchmark: self.benchmark,
            samples: self.samples,
            memory_config: MemoryConfig::new(self.memory_rows, 32)?,
            dataset_seed: self.dataset_seed,
            format: self.format,
            pca_components: self.pca_components,
            parallelism: self.parallelism,
        })
    }
}

/// Evaluates a benchmark's quality metric under memory faults.
#[derive(Debug, Clone)]
pub struct QualityEvaluator {
    benchmark: Benchmark,
    samples: usize,
    memory_config: MemoryConfig,
    dataset_seed: u64,
    format: FixedPointFormat,
    pca_components: usize,
    parallelism: Parallelism,
}

impl QualityEvaluator {
    /// Starts building an evaluator for the given benchmark with the paper's
    /// defaults (16 KB memory bank, Q15.16 storage, moderate dataset size).
    #[must_use]
    pub fn builder(benchmark: Benchmark) -> QualityEvaluatorBuilder {
        QualityEvaluatorBuilder {
            benchmark,
            samples: 400,
            memory_rows: MemoryConfig::paper_16kb().rows(),
            dataset_seed: 0xF167,
            format: FixedPointFormat::q15_16(),
            pca_components: 5,
            parallelism: Parallelism::default(),
        }
    }

    /// The benchmark this evaluator runs.
    #[must_use]
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The memory geometry data is stored in.
    #[must_use]
    pub fn memory_config(&self) -> MemoryConfig {
        self.memory_config
    }

    /// Quality of the benchmark when the memory is fault-free (the
    /// normalisation baseline).
    ///
    /// # Errors
    ///
    /// Propagates dataset/model errors.
    pub fn baseline_quality(&self) -> Result<f64, AppError> {
        self.prepare()?.baseline()
    }

    /// Raw (un-normalised) quality when the training data passes through a
    /// memory with the given fault map under the given scheme.
    ///
    /// # Errors
    ///
    /// Propagates dataset/model errors.
    pub fn quality_with_fault_map<S: MitigationScheme>(
        &self,
        scheme: &S,
        faults: &FaultMap,
    ) -> Result<f64, AppError> {
        self.prepare()?.quality(scheme, faults)
    }

    /// Raw quality with `n_faults` random bit-flips injected (one sampled
    /// fault map).
    ///
    /// # Errors
    ///
    /// Propagates sampling and evaluation errors.
    pub fn quality_with_faults<S: MitigationScheme>(
        &self,
        scheme: &S,
        n_faults: usize,
        seed: u64,
    ) -> Result<f64, AppError> {
        let sampler = FaultMapSampler::new(self.memory_config);
        let mut rng = StdRng::seed_from_u64(seed);
        let faults = sampler.sample_with_count(&mut rng, n_faults)?;
        self.quality_with_fault_map(scheme, &faults)
    }

    /// Runs the full Fig. 7 Monte-Carlo campaign for one scheme: failure
    /// counts `1..=max_failures`, `samples_per_count` fault maps each,
    /// weighted by the binomial `Pr(N = n)` at the given `p_cell`.
    ///
    /// # Errors
    ///
    /// Propagates sampling and evaluation errors.
    pub fn quality_cdf<S: MitigationScheme + Sync>(
        &self,
        scheme: &S,
        p_cell: f64,
        max_failures: u64,
        samples_per_count: usize,
        seed: u64,
    ) -> Result<QualityCdfResult, AppError> {
        self.quality_cdf_with_policy(scheme, p_cell, max_failures, samples_per_count, seed, false)
    }

    /// Like [`QualityEvaluator::quality_cdf`], but optionally discarding fault
    /// maps that place more than one fault in a single memory word — a thin
    /// shim over [`QualityEvaluator::quality_cdfs_paired`] with a one-element
    /// catalogue.
    ///
    /// # Errors
    ///
    /// Propagates sampling and evaluation errors.
    pub fn quality_cdf_with_policy<S: MitigationScheme + Sync>(
        &self,
        scheme: &S,
        p_cell: f64,
        max_failures: u64,
        samples_per_count: usize,
        seed: u64,
        discard_multi_fault_words: bool,
    ) -> Result<QualityCdfResult, AppError> {
        let mut results = self.quality_cdfs_paired(
            &[scheme],
            p_cell,
            max_failures,
            samples_per_count,
            seed,
            discard_multi_fault_words,
        )?;
        Ok(results.remove(0))
    }

    /// Runs one paired Fig. 7 campaign over a whole scheme catalogue through
    /// the parallel fault-injection pipeline: every scheme trains on data
    /// corrupted by the **same** fault map of every sampled die, so scheme
    /// comparisons are exact per die, and dies are evaluated concurrently on
    /// worker threads (bit-identical at any worker count).
    ///
    /// The paper's Fig. 7 protocol assumes "the small number of samples with
    /// more than one error per word are discarded, such that H(39,32) ECC
    /// provides error-free operation"; pass `discard_multi_fault_words =
    /// true` to reproduce that protocol.
    ///
    /// # Errors
    ///
    /// Propagates sampling and evaluation errors.
    pub fn quality_cdfs_paired<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        p_cell: f64,
        max_failures: u64,
        samples_per_count: usize,
        seed: u64,
        discard_multi_fault_words: bool,
    ) -> Result<Vec<QualityCdfResult>, AppError> {
        let backend = SramVddBackend::with_p_cell(self.memory_config, p_cell)?;
        self.quality_cdfs_paired_on(
            schemes,
            &backend,
            max_failures,
            samples_per_count,
            seed,
            discard_multi_fault_words,
        )
    }

    /// The backend axis of the Fig. 7 harness: runs the paired campaign
    /// against an arbitrary [`FaultBackend`], so per-technology quality
    /// CDFs (SRAM voltage scaling, DRAM retention, MLC NVM, or custom
    /// models) come out of the identical protocol. The backend must be
    /// built for this evaluator's memory geometry.
    ///
    /// Note that `discard_multi_fault_words` is a best-effort bounded
    /// redraw: backends whose spatial law clusters faults (DRAM retention)
    /// exhaust the budget at higher fault counts, so multi-fault words
    /// survive and the SECDED reference is **not** error-free there — that
    /// degradation is precisely the technology effect the backend axis
    /// exists to expose.
    ///
    /// [`QualityEvaluator::quality_cdfs_paired`] is the SRAM shim over this
    /// method and remains bit-identical to the historical results.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] on a geometry mismatch, and
    /// propagates sampling and evaluation errors.
    pub fn quality_cdfs_paired_on<S: MitigationScheme + Sync, B: FaultBackend + Clone>(
        &self,
        schemes: &[S],
        backend: &B,
        max_failures: u64,
        samples_per_count: usize,
        seed: u64,
        discard_multi_fault_words: bool,
    ) -> Result<Vec<QualityCdfResult>, AppError> {
        let (state, _) = self.quality_shard_on(
            schemes,
            backend,
            max_failures,
            samples_per_count,
            seed,
            discard_multi_fault_words,
            ShardSpec::solo(),
        )?;
        self.quality_results_from_state(schemes, backend, state)
    }

    /// Runs one shard of the paired Fig. 7 campaign, returning the raw
    /// accumulator state (and the shard's [`ShardStats`]) instead of
    /// finished results.
    ///
    /// Shard states merged in shard order (via
    /// [`faultmit_sim::Accumulator::merge`]) are bit-identical to the
    /// monolithic accumulation of
    /// [`QualityEvaluator::quality_cdfs_paired_on`] — which is the
    /// [`ShardSpec::solo`] special case of this method. Feed the merged
    /// state to [`QualityEvaluator::quality_results_from_state`] to obtain
    /// the exact monolithic results.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] on a geometry mismatch, and
    /// propagates sampling and evaluation errors.
    #[allow(clippy::too_many_arguments)]
    pub fn quality_shard_on<S: MitigationScheme + Sync, B: FaultBackend + Clone>(
        &self,
        schemes: &[S],
        backend: &B,
        max_failures: u64,
        samples_per_count: usize,
        seed: u64,
        discard_multi_fault_words: bool,
        shard: ShardSpec,
    ) -> Result<(CatalogueAccumulator, ShardStats), AppError> {
        self.check_backend_geometry(backend)?;
        // Everything that does not depend on the fault map is computed once
        // for the whole shard; each (die, scheme) evaluation then reads back
        // only the die's fault-bearing rows.
        let prepared = self.prepare()?.with_baseline()?;
        let baseline = prepared.baseline()?;

        let map_policy = if discard_multi_fault_words {
            // Bounded redraws so extreme fault densities cannot loop forever.
            MapPolicy::SingleFaultPerRow { max_redraws: 1000 }
        } else {
            MapPolicy::Unrestricted
        };
        let config = CampaignConfig::for_backend(backend.clone())?
            .with_samples_per_count(samples_per_count)
            .with_max_failures(max_failures)
            .with_map_policy(map_policy)
            .with_parallelism(self.parallelism)
            // Application training runs are expensive; keep chunks small so
            // worker threads stay balanced.
            .with_chunk_size(4);

        Campaign::new(config)
            .run_shard(
                schemes,
                seed,
                shard,
                |faults, metrics| {
                    for (metric, scheme) in metrics.iter_mut().zip(schemes) {
                        let quality = prepared.quality(scheme, faults)?;
                        *metric = normalized_quality(quality, baseline);
                    }
                    Ok::<(), AppError>(())
                },
                || CatalogueAccumulator::new(schemes.len()),
            )
            .map_err(AppError::from)
    }

    /// Converts accumulated (possibly shard-merged) campaign state into the
    /// per-scheme quality results — the reduction half of
    /// [`QualityEvaluator::quality_cdfs_paired_on`].
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] on geometry or catalogue-size
    /// mismatches, and propagates baseline evaluation errors.
    pub fn quality_results_from_state<S: MitigationScheme + Sync, B: FaultBackend>(
        &self,
        schemes: &[S],
        backend: &B,
        state: CatalogueAccumulator,
    ) -> Result<Vec<QualityCdfResult>, AppError> {
        self.check_backend_geometry(backend)?;
        if state.scheme_count() != schemes.len() {
            return Err(AppError::InvalidParameter {
                reason: format!(
                    "campaign state tracks {} schemes, catalogue has {}",
                    state.scheme_count(),
                    schemes.len()
                ),
            });
        }
        let baseline = self.baseline_quality()?;
        let distribution = backend.failure_distribution()?;

        Ok(state
            .into_yield_models(distribution)
            .into_iter()
            .zip(schemes)
            .map(|(yield_model, scheme)| {
                // The combined CDF interprets the zero-failure mass as
                // quality 0 in the MSE convention; for Fig. 7 ("higher is
                // better") we add it at the normalised optimum of 1.0
                // instead and weight every sampled quality value by
                // Pr(N = n) / samples at n.
                let mut cdf = EmpiricalCdf::new();
                cdf.add(1.0, distribution.pmf(0));
                for (&n, count_cdf) in yield_model.per_count_cdfs() {
                    if count_cdf.is_empty() {
                        continue;
                    }
                    let weight = distribution.pmf(n) / count_cdf.total_weight();
                    for (value, sample_weight) in count_cdf.samples() {
                        cdf.add(value, sample_weight * weight);
                    }
                }
                QualityCdfResult {
                    benchmark: self.benchmark,
                    scheme_name: scheme.name(),
                    baseline_quality: baseline,
                    cdf,
                    yield_model,
                }
            })
            .collect())
    }

    fn check_backend_geometry<B: FaultBackend>(&self, backend: &B) -> Result<(), AppError> {
        if backend.config() != self.memory_config {
            return Err(AppError::InvalidParameter {
                reason: format!(
                    "backend '{}' is built for {:?}, evaluator for {:?}",
                    backend.name(),
                    backend.config(),
                    self.memory_config
                ),
            });
        }
        Ok(())
    }

    /// Generates the dataset and runs the fault-independent steps of §5.2:
    /// split, standardise with clean statistics, and quantise the training
    /// matrix to its storage words. The fitted model is left for later.
    fn prepare(&self) -> Result<PreparedBenchmark, AppError> {
        let (features, targets) = match self.benchmark {
            Benchmark::Elasticnet => {
                let dataset = WineQualityDataset::new(self.samples, self.dataset_seed).generate();
                (dataset.features, dataset.targets)
            }
            Benchmark::Pca => {
                // A reduced Madelon geometry (5 informative + 15 redundant +
                // 20 probes) keeps the informative/redundant/probe structure
                // while the retained components still explain a meaningful
                // variance share.
                let dataset =
                    MadelonDataset::new(self.samples, 5, 15, 20, self.dataset_seed).generate();
                let labels = dataset.labels.iter().map(|&l| l as f64).collect();
                (dataset.features, labels)
            }
            Benchmark::Knn => {
                let dataset = HarDataset::new(self.samples, self.dataset_seed).generate();
                let labels = dataset.labels.iter().map(|&l| l as f64).collect();
                (dataset.features, labels)
            }
        };
        let split = train_test_split(&features, &targets, 0.8)?;
        // Standardise with clean statistics; what sits in memory is the
        // prepared training set.
        let scaler = Standardizer::fit(&split.train_x);
        Ok(PreparedBenchmark {
            benchmark: self.benchmark,
            pca_components: self.pca_components,
            format: self.format,
            train: StoredMatrix::new(&scaler.transform(&split.train_x)?, self.format),
            train_y: split.train_y,
            test_x: scaler.transform(&split.test_x)?,
            test_y: split.test_y,
            baseline: None,
        })
    }
}

/// One benchmark after the fault-independent steps of §5.2, shared by every
/// fault map an evaluation call visits.
struct PreparedBenchmark {
    benchmark: Benchmark,
    pca_components: usize,
    format: FixedPointFormat,
    /// The standardised training matrix as stored in memory.
    train: StoredMatrix,
    train_y: Vec<f64>,
    /// The clean, standardised test partition.
    test_x: Matrix,
    test_y: Vec<f64>,
    /// The fault-free quality, once fitted.
    baseline: Option<f64>,
}

impl PreparedBenchmark {
    /// Fits the fault-free model once, so evaluations whose read-back is
    /// clean return its quality without a refit.
    fn with_baseline(mut self) -> Result<Self, AppError> {
        self.baseline = Some(self.fit_and_score(self.train.clean())?);
        Ok(self)
    }

    /// The quality of a model trained on the fault-free read-back.
    fn baseline(&self) -> Result<f64, AppError> {
        match self.baseline {
            Some(quality) => Ok(quality),
            None => self.fit_and_score(self.train.clean()),
        }
    }

    /// Raw quality when the training data passes through `faults` under
    /// `scheme`. A read-back that changes no word is the baseline's input
    /// bit for bit, so it scores the baseline without a refit.
    fn quality<S: MitigationScheme>(&self, scheme: &S, faults: &FaultMap) -> Result<f64, AppError> {
        match FaultyStore::new(scheme, faults, self.format)?.read_back(&self.train) {
            Some(train) => self.fit_and_score(&train),
            None => self.baseline(),
        }
    }

    /// Trains the benchmark's algorithm on `train` and scores it on the
    /// clean test partition.
    fn fit_and_score(&self, train: &Matrix) -> Result<f64, AppError> {
        match self.benchmark {
            Benchmark::Elasticnet => {
                let mut model = ElasticNet::paper_default()?;
                model.fit(train, &self.train_y)?;
                model.score(&self.test_x, &self.test_y)
            }
            Benchmark::Pca => {
                let mut pca = Pca::new(self.pca_components.min(train.cols()))?;
                pca.fit(train)?;
                // Explained variance of the clean test data reconstructed
                // through the (possibly corrupted) principal axes.
                let projected = pca.transform(&self.test_x)?;
                let reconstructed = pca.inverse_transform(&projected)?;
                explained_variance_score(self.test_x.as_slice(), reconstructed.as_slice())
            }
            Benchmark::Knn => {
                let train_y: Vec<usize> = self.train_y.iter().map(|&l| l as usize).collect();
                let test_y: Vec<usize> = self.test_y.iter().map(|&l| l as usize).collect();
                let mut knn = KnnClassifier::paper_default()?;
                knn.fit(train, &train_y)?;
                knn.score(&self.test_x, &test_y)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_core::Scheme;
    use faultmit_memsim::Fault;

    fn evaluator(benchmark: Benchmark) -> QualityEvaluator {
        QualityEvaluator::builder(benchmark)
            .samples(120)
            .memory_rows(256)
            .build()
            .unwrap()
    }

    #[test]
    fn benchmark_metadata_matches_table1() {
        assert_eq!(Benchmark::ALL.len(), 3);
        assert_eq!(Benchmark::Elasticnet.metric_name(), "R2");
        assert_eq!(Benchmark::Pca.metric_name(), "Explained Variance");
        assert_eq!(Benchmark::Knn.metric_name(), "Score");
        assert!(Benchmark::Elasticnet.dataset_name().contains("Wine"));
        assert!(Benchmark::Pca.dataset_name().contains("Madelon"));
        assert!(Benchmark::Knn.dataset_name().contains("Activity"));
    }

    #[test]
    fn builder_validates_format() {
        let result = QualityEvaluator::builder(Benchmark::Elasticnet)
            .format(FixedPointFormat::new(16, 8).unwrap())
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn baselines_are_healthy_for_all_benchmarks() {
        for benchmark in Benchmark::ALL {
            let quality = evaluator(benchmark).baseline_quality().unwrap();
            assert!(
                quality > 0.3 && quality <= 1.0,
                "{:?} baseline quality = {quality}",
                benchmark
            );
        }
    }

    #[test]
    fn fault_free_map_reproduces_baseline_for_any_scheme() {
        let eval = evaluator(Benchmark::Knn);
        let clean = FaultMap::new(eval.memory_config());
        let baseline = eval.baseline_quality().unwrap();
        let with_scheme = eval
            .quality_with_fault_map(&Scheme::shuffle32(3).unwrap(), &clean)
            .unwrap();
        assert!((baseline - with_scheme).abs() < 0.05);
    }

    #[test]
    fn unprotected_quality_degrades_with_msb_faults() {
        let eval = evaluator(Benchmark::Elasticnet);
        let baseline = eval.baseline_quality().unwrap();
        // Saturate the memory with MSB faults: every row's sign bit flips.
        let config = eval.memory_config();
        let faults =
            FaultMap::from_faults(config, (0..config.rows()).map(|r| Fault::bit_flip(r, 31)))
                .unwrap();
        let corrupted = eval
            .quality_with_fault_map(&Scheme::unprotected32(), &faults)
            .unwrap();
        assert!(
            corrupted < baseline - 0.2,
            "quality did not degrade: {corrupted} vs baseline {baseline}"
        );
    }

    #[test]
    fn bit_shuffling_preserves_quality_under_the_same_faults() {
        let eval = evaluator(Benchmark::Elasticnet);
        let baseline = eval.baseline_quality().unwrap();
        let config = eval.memory_config();
        let faults =
            FaultMap::from_faults(config, (0..config.rows()).map(|r| Fault::bit_flip(r, 31)))
                .unwrap();
        let shuffled = eval
            .quality_with_fault_map(&Scheme::shuffle32(5).unwrap(), &faults)
            .unwrap();
        assert!(
            (baseline - shuffled).abs() < 0.05,
            "shuffled quality {shuffled} vs baseline {baseline}"
        );
    }

    #[test]
    fn single_fault_per_word_policy_keeps_secded_at_baseline() {
        let eval = QualityEvaluator::builder(Benchmark::Elasticnet)
            .samples(96)
            .memory_rows(128)
            .build()
            .unwrap();
        let result = eval
            .quality_cdf_with_policy(&Scheme::secded32(), 1e-3, 6, 3, 23, true)
            .unwrap();
        // With at most one fault per word, SECDED is error-free: every
        // normalised quality sample is 1.0.
        assert!((result.cdf.min().unwrap() - 1.0).abs() < 1e-9);
        assert!((result.cdf.quantile(0.01) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn backend_axis_matches_the_sram_shim_and_covers_all_technologies() {
        use faultmit_memsim::{Backend, BackendKind, SramVddBackend};
        let eval = QualityEvaluator::builder(Benchmark::Elasticnet)
            .samples(96)
            .memory_rows(128)
            .build()
            .unwrap();
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];

        // The SRAM backend reproduces the p_cell-based shim bit-for-bit.
        let shim = eval
            .quality_cdfs_paired(&schemes, 1e-3, 4, 2, 19, false)
            .unwrap();
        let sram = SramVddBackend::with_p_cell(eval.memory_config(), 1e-3).unwrap();
        let explicit = eval
            .quality_cdfs_paired_on(&schemes, &sram, 4, 2, 19, false)
            .unwrap();
        for (a, b) in shim.iter().zip(&explicit) {
            assert_eq!(a.cdf, b.cdf);
            assert_eq!(a.baseline_quality.to_bits(), b.baseline_quality.to_bits());
        }

        // Every technology runs through the identical protocol.
        for kind in [BackendKind::Dram, BackendKind::Mlc] {
            let backend = Backend::at_p_cell(kind, eval.memory_config(), 1e-3).unwrap();
            let results = eval
                .quality_cdfs_paired_on(&schemes, &backend, 3, 2, 19, false)
                .unwrap();
            assert_eq!(results.len(), 2, "{kind}");
            for result in &results {
                assert!(result.cdf.total_weight() > 0.0, "{kind}");
            }
        }

        // Geometry mismatches are rejected.
        let wrong = SramVddBackend::with_p_cell(MemoryConfig::new(64, 32).unwrap(), 1e-3).unwrap();
        assert!(eval
            .quality_cdfs_paired_on(&schemes, &wrong, 3, 2, 19, false)
            .is_err());
    }

    #[test]
    fn quality_shard_states_merged_in_order_match_the_monolithic_campaign() {
        use faultmit_memsim::SramVddBackend;
        use faultmit_sim::Accumulator;
        let eval = QualityEvaluator::builder(Benchmark::Elasticnet)
            .samples(96)
            .memory_rows(128)
            .build()
            .unwrap();
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let backend = SramVddBackend::with_p_cell(eval.memory_config(), 1e-3).unwrap();
        let monolithic = eval
            .quality_cdfs_paired_on(&schemes, &backend, 4, 2, 19, true)
            .unwrap();
        for shard_count in [2usize, 3] {
            let mut merged = CatalogueAccumulator::new(schemes.len());
            for index in 0..shard_count {
                let shard = faultmit_sim::ShardSpec::new(index, shard_count).unwrap();
                merged.merge(
                    eval.quality_shard_on(&schemes, &backend, 4, 2, 19, true, shard)
                        .unwrap()
                        .0,
                );
            }
            let results = eval
                .quality_results_from_state(&schemes, &backend, merged)
                .unwrap();
            for (a, b) in monolithic.iter().zip(&results) {
                assert_eq!(a.scheme_name, b.scheme_name, "{shard_count} shards");
                assert_eq!(a.cdf, b.cdf, "{shard_count} shards: {}", a.scheme_name);
                assert_eq!(a.baseline_quality.to_bits(), b.baseline_quality.to_bits());
            }
        }
    }

    #[test]
    fn quality_with_faults_samples_reproducibly() {
        let eval = evaluator(Benchmark::Knn);
        let scheme = Scheme::pecc32();
        let a = eval.quality_with_faults(&scheme, 10, 3).unwrap();
        let b = eval.quality_with_faults(&scheme, 10, 3).unwrap();
        assert_eq!(a, b);
    }
}
