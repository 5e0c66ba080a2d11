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
//! in fault-bearing rows. Every evaluation call, a whole campaign or
//! [`QualityEvaluator::quality_with_fault_map`] alike, therefore prepares
//! the benchmark once (dataset, split, standardised partitions, storage
//! words, baseline); each (die, scheme) evaluation reads back just the
//! die's fault-bearing rows ([`FaultyStore::changed_words`]), and a die
//! refits once per distinct read-back: a scheme that changes no word
//! scores the baseline, and schemes whose changed words are equal (say,
//! no correction, P-ECC and the shuffles on a lone fault in the low
//! columns) share one fit.
//!
//! A refit does only the work its read-back needs, with the same bytes as
//! a fresh fit:
//!
//! * KNN ranks every training sample for each test query by (clean
//!   distance, index) once, at preparation ([`KnnNeighbourCache`]). A dirty
//!   read-back recomputes only its changed samples' distances and merges
//!   them with the first `k` unchanged entries of each ranking. The clean
//!   baseline is scored through the same cache.
//! * PCA fits from scratch, but its covariance accumulates row-major
//!   rank-1 updates and its Jacobi solver rotates the transposed
//!   eigenvector matrix row-wise ([`crate::linalg`]): those inner loops run
//!   over contiguous memory, in the original operation order, and at AVX2
//!   width on a CPU that has it.
//! * Elastic net fits from scratch.

use crate::datasets::{HarDataset, MadelonDataset, WineQualityDataset};
use crate::elasticnet::ElasticNet;
use crate::error::AppError;
use crate::faulty_storage::{FaultyStore, StoredMatrix};
use crate::fixedpoint::FixedPointFormat;
use crate::knn::{KnnClassifier, KnnNeighbourCache};
use crate::linalg::Matrix;
use crate::metrics::{accuracy_score, explained_variance_score, normalized_quality};
use crate::pca::Pca;
use crate::preprocessing::{train_test_split, Standardizer};
use faultmit_analysis::{CatalogueAccumulator, EmpiricalCdf, YieldModel};
use faultmit_core::Scheme;
use faultmit_memsim::{Backend, FaultMap, MemoryConfig};
use faultmit_sim::{Campaign, CampaignConfig, MapPolicy, Parallelism, ShardSpec, ShardStats};

/// Seed of the synthetic dataset generators.
const DATASET_SEED: u64 = 0xF167;

/// Principal components the PCA benchmark retains.
const PCA_COMPONENTS: usize = 5;

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
    /// Returns [`AppError::Memory`] when the memory geometry is invalid.
    pub fn build(self) -> Result<QualityEvaluator, AppError> {
        Ok(QualityEvaluator {
            benchmark: self.benchmark,
            samples: self.samples,
            memory_config: MemoryConfig::new(self.memory_rows, 32)?,
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
        Ok(self.prepare()?.baseline)
    }

    /// Raw (un-normalised) quality when the training data passes through a
    /// memory with the given fault map under the given scheme.
    ///
    /// # Errors
    ///
    /// Propagates dataset/model errors.
    pub fn quality_with_fault_map(
        &self,
        scheme: &Scheme,
        faults: &FaultMap,
    ) -> Result<f64, AppError> {
        let mut quality = [0.0];
        self.prepare()?
            .qualities(std::slice::from_ref(scheme), faults, &mut quality)?;
        Ok(quality[0])
    }

    /// Runs one shard of the paired Fig. 7 campaign over a whole scheme
    /// catalogue through the parallel fault-injection pipeline, returning
    /// the raw accumulator state (and the shard's [`ShardStats`]): every
    /// scheme trains on data corrupted by the **same** fault map of every
    /// sampled die, so scheme comparisons are exact per die, and dies are
    /// evaluated concurrently on worker threads (bit-identical at any worker
    /// count). The backend must be built for this evaluator's memory
    /// geometry.
    ///
    /// Dies follow the paper's Fig. 7 protocol, under which "the small
    /// number of samples with more than one error per word are discarded,
    /// such that H(39,32) ECC provides error-free operation": a die is
    /// redrawn while a word holds two faults ([`MapPolicy::SingleFaultPerRow`]).
    /// The redraw is bounded, so backends whose spatial law clusters faults
    /// (DRAM retention) exhaust it at higher fault counts; multi-fault words
    /// then survive and the SECDED reference is **not** error-free there —
    /// that degradation is precisely the technology effect the backend axis
    /// exists to expose.
    ///
    /// Shard states merged in shard order (via
    /// [`CatalogueAccumulator::merge`]) are bit-identical to the
    /// [`ShardSpec::solo`] run. Feed the state to
    /// [`QualityEvaluator::quality_results_from_state`] to obtain the
    /// per-scheme results.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] on a geometry mismatch, and
    /// propagates sampling and evaluation errors.
    pub fn quality_shard_on(
        &self,
        schemes: &[Scheme],
        backend: &Backend,
        max_failures: u64,
        samples_per_count: usize,
        seed: u64,
        shard: ShardSpec,
    ) -> Result<(CatalogueAccumulator, ShardStats), AppError> {
        self.check_backend_geometry(backend)?;
        // Everything that does not depend on the fault map is computed once
        // for the whole shard; each (die, scheme) evaluation then reads back
        // only the die's fault-bearing rows.
        let prepared = self.prepare()?;
        let baseline = prepared.baseline;

        let config = CampaignConfig::for_backend(*backend)?
            .with_samples_per_count(samples_per_count)
            .with_max_failures(max_failures)
            .with_map_policy(MapPolicy::SingleFaultPerRow)
            .with_parallelism(self.parallelism)
            // Application training runs are expensive; keep chunks small so
            // worker threads stay balanced.
            .with_chunk_size(4);

        let (samples, stats) =
            Campaign::new(config).run_shard(schemes, seed, shard, |faults, metrics| {
                prepared.qualities(schemes, faults, metrics)?;
                for metric in metrics.iter_mut() {
                    *metric = normalized_quality(*metric, baseline);
                }
                Ok::<(), AppError>(())
            })?;
        Ok((CatalogueAccumulator::from_shard(samples), stats))
    }

    /// Converts accumulated (possibly shard-merged) campaign state of
    /// [`QualityEvaluator::quality_shard_on`] into the per-scheme quality
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] on geometry or catalogue-size
    /// mismatches, and propagates baseline evaluation errors.
    pub fn quality_results_from_state(
        &self,
        schemes: &[Scheme],
        backend: &Backend,
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
            .map(|(yield_model, scheme)| QualityCdfResult {
                scheme_name: scheme.name(),
                baseline_quality: baseline,
                // Fig. 7 quality is "higher is better": zero-failure dies
                // sit at the normalised optimum of 1.0.
                cdf: yield_model.combined_cdf(1.0),
                yield_model,
            })
            .collect())
    }

    fn check_backend_geometry(&self, backend: &Backend) -> Result<(), AppError> {
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
    /// split, standardise with clean statistics, quantise the training
    /// matrix to its storage words, and score the fault-free baseline.
    fn prepare(&self) -> Result<PreparedBenchmark, AppError> {
        let (features, targets) = match self.benchmark {
            Benchmark::Elasticnet => {
                let dataset = WineQualityDataset::new(self.samples, DATASET_SEED).generate();
                (dataset.features, dataset.targets)
            }
            Benchmark::Pca => {
                // A reduced Madelon geometry (5 informative + 15 redundant +
                // 20 probes) keeps the informative/redundant/probe structure
                // while the retained components still explain a meaningful
                // variance share.
                let dataset = MadelonDataset::new(self.samples, 5, 15, 20, DATASET_SEED).generate();
                let labels = dataset.labels.iter().map(|&l| l as f64).collect();
                (dataset.features, labels)
            }
            Benchmark::Knn => {
                let dataset = HarDataset::new(self.samples, DATASET_SEED).generate();
                let labels = dataset.labels.iter().map(|&l| l as f64).collect();
                (dataset.features, labels)
            }
        };
        let split = train_test_split(&features, &targets, 0.8)?;
        // Standardise with clean statistics; what sits in memory is the
        // prepared training set.
        let scaler = Standardizer::fit(&split.train_x);
        let train = StoredMatrix::new(
            &scaler.transform(&split.train_x)?,
            FixedPointFormat::q15_16(),
        );
        let test_x = scaler.transform(&split.test_x)?;
        let model = match self.benchmark {
            Benchmark::Elasticnet => Model::Elasticnet {
                train_y: split.train_y,
                test_x,
                test_y: split.test_y,
            },
            Benchmark::Pca => Model::Pca { test_x },
            Benchmark::Knn => {
                let labels = |y: &[f64]| y.iter().map(|&l| l as usize).collect::<Vec<_>>();
                let mut knn = KnnClassifier::paper_default()?;
                knn.fit(train.clean(), &labels(&split.train_y))?;
                Model::Knn {
                    neighbours: KnnNeighbourCache::new(&knn, &test_x)?,
                    test_y: labels(&split.test_y),
                }
            }
        };
        let baseline = model.fit_and_score(train.clean())?;
        Ok(PreparedBenchmark {
            train,
            model,
            baseline,
        })
    }
}

/// One benchmark after the fault-independent steps of §5.2, shared by every
/// fault map an evaluation call visits.
struct PreparedBenchmark {
    /// The standardised training matrix as stored in memory.
    train: StoredMatrix,
    model: Model,
    /// The quality of a model trained on the fault-free read-back.
    baseline: f64,
}

impl PreparedBenchmark {
    /// Writes `qualities[s]`, the raw quality when the training data passes
    /// through `faults` under `schemes[s]`, for every scheme. A read-back
    /// that changes no word is the baseline's input bit for bit, so it
    /// scores the baseline without a refit; every other distinct read-back
    /// is fitted once, and the schemes that share it share its score.
    fn qualities(
        &self,
        schemes: &[Scheme],
        faults: &FaultMap,
        qualities: &mut [f64],
    ) -> Result<(), AppError> {
        let read_backs = DieReadBacks::new(&self.train, schemes, faults)?;
        let mut scores = Vec::with_capacity(read_backs.distinct.len());
        for changed in &read_backs.distinct {
            scores.push(self.model.fit_and_score(&self.train.patched(changed))?);
        }
        for (quality, of_scheme) in qualities.iter_mut().zip(&read_backs.of_scheme) {
            *quality = of_scheme.map_or(self.baseline, |k| scores[k]);
        }
        Ok(())
    }
}

/// The distinct read-backs of one die under a scheme catalogue, each as its
/// changed words ([`FaultyStore::changed_words`]): equal lists are the same
/// training matrix bit for bit, so no read-back is kept as a matrix.
struct DieReadBacks {
    /// Each distinct non-clean read-back once, in first-scheme order.
    distinct: Vec<Vec<(usize, u64)>>,
    /// Per scheme, its read-back's index in `distinct`, or `None` when it
    /// changes no word.
    of_scheme: Vec<Option<usize>>,
}

impl DieReadBacks {
    fn new(train: &StoredMatrix, schemes: &[Scheme], faults: &FaultMap) -> Result<Self, AppError> {
        let mut read_backs = DieReadBacks {
            distinct: Vec::new(),
            of_scheme: Vec::with_capacity(schemes.len()),
        };
        for scheme in schemes {
            let changed =
                FaultyStore::new(scheme, faults, FixedPointFormat::q15_16())?.changed_words(train);
            let index = if changed.is_empty() {
                None
            } else if let Some(k) = read_backs.distinct.iter().position(|seen| *seen == changed) {
                Some(k)
            } else {
                read_backs.distinct.push(changed);
                Some(read_backs.distinct.len() - 1)
            };
            read_backs.of_scheme.push(index);
        }
        Ok(read_backs)
    }
}

/// A benchmark's algorithm with everything but its training matrix: the
/// labels, and the clean, standardised test partition it is scored on.
enum Model {
    /// Elastic net, scored by R².
    Elasticnet {
        train_y: Vec<f64>,
        test_x: Matrix,
        test_y: Vec<f64>,
    },
    /// PCA, scored by the explained variance of the reconstructed test
    /// partition.
    Pca { test_x: Matrix },
    /// KNN, scored by accuracy. It is a lazy learner: the test queries'
    /// clean neighbour rankings are cached once, and a refit re-ranks only
    /// the training samples its read-back changed.
    Knn {
        neighbours: KnnNeighbourCache,
        test_y: Vec<usize>,
    },
}

impl Model {
    /// Trains the algorithm on `train` and scores it on the clean test
    /// partition.
    fn fit_and_score(&self, train: &Matrix) -> Result<f64, AppError> {
        match self {
            Model::Elasticnet {
                train_y,
                test_x,
                test_y,
            } => {
                let mut model = ElasticNet::paper_default()?;
                model.fit(train, train_y)?;
                model.score(test_x, test_y)
            }
            Model::Pca { test_x } => {
                let mut pca = Pca::new(PCA_COMPONENTS.min(train.cols()))?;
                pca.fit(train)?;
                // Explained variance of the clean test data reconstructed
                // through the (possibly corrupted) principal axes.
                let projected = pca.transform(test_x)?;
                let reconstructed = pca.inverse_transform(&projected)?;
                explained_variance_score(test_x.as_slice(), reconstructed.as_slice())
            }
            Model::Knn { neighbours, test_y } => {
                accuracy_score(test_y, &neighbours.predict(train)?)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_memsim::{BackendKind, Fault};

    fn evaluator(benchmark: Benchmark) -> QualityEvaluator {
        QualityEvaluator::builder(benchmark)
            .samples(120)
            .memory_rows(256)
            .build()
            .unwrap()
    }

    /// A whole campaign: the solo shard, reduced to per-scheme results.
    fn quality_cdfs(
        eval: &QualityEvaluator,
        schemes: &[Scheme],
        backend: &Backend,
        max_failures: u64,
        samples_per_count: usize,
        seed: u64,
    ) -> Result<Vec<QualityCdfResult>, AppError> {
        let (state, _) = eval.quality_shard_on(
            schemes,
            backend,
            max_failures,
            samples_per_count,
            seed,
            ShardSpec::solo(),
        )?;
        eval.quality_results_from_state(schemes, backend, state)
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
        let sram = Backend::at_p_cell(BackendKind::Sram, eval.memory_config(), 1e-3).unwrap();
        let result = quality_cdfs(&eval, &[Scheme::secded32()], &sram, 6, 3, 23)
            .unwrap()
            .remove(0);
        // With at most one fault per word, SECDED is error-free: every
        // normalised quality sample is 1.0.
        assert!((result.cdf.min().unwrap() - 1.0).abs() < 1e-9);
        assert!((result.cdf.quantile(0.01) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn backend_axis_covers_all_technologies() {
        let eval = QualityEvaluator::builder(Benchmark::Elasticnet)
            .samples(96)
            .memory_rows(128)
            .build()
            .unwrap();
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];

        // Every technology runs through the identical protocol.
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, eval.memory_config(), 1e-3).unwrap();
            let results = quality_cdfs(&eval, &schemes, &backend, 3, 2, 19).unwrap();
            assert_eq!(results.len(), 2, "{kind}");
            for result in &results {
                assert!(result.cdf.total_weight() > 0.0, "{kind}");
            }
        }

        // Geometry mismatches are rejected.
        let wrong = Backend::at_p_cell(BackendKind::Sram, MemoryConfig::new(64, 32).unwrap(), 1e-3)
            .unwrap();
        assert!(quality_cdfs(&eval, &schemes, &wrong, 3, 2, 19).is_err());
    }

    #[test]
    fn a_die_is_fitted_once_per_distinct_read_back() {
        let eval = evaluator(Benchmark::Pca);
        let prepared = eval.prepare().unwrap();
        // No correction, P-ECC, n_FM = 1, n_FM = 2, SECDED.
        let schemes = Scheme::fig7_catalogue();
        let lone_flip =
            |col| FaultMap::from_faults(eval.memory_config(), [Fault::bit_flip(0, col)]).unwrap();

        // Column 3 is in the unprotected low half and in the least
        // significant segment of both shuffles: the four schemes that
        // refit read back one matrix, and SECDED corrects the flip.
        let low = DieReadBacks::new(&prepared.train, &schemes, &lone_flip(3)).unwrap();
        assert_eq!(low.distinct.len(), 1);
        assert_eq!(low.of_scheme, [Some(0), Some(0), Some(0), Some(0), None]);

        // P-ECC protects column 20, and both shuffles move it to bit 4.
        let faults = lone_flip(20);
        let high = DieReadBacks::new(&prepared.train, &schemes, &faults).unwrap();
        assert_eq!(high.distinct.len(), 2);
        assert_eq!(high.of_scheme, [Some(0), None, Some(1), Some(1), None]);

        // The shared fits score what a fit per scheme scores.
        let mut shared = vec![0.0; schemes.len()];
        prepared.qualities(&schemes, &faults, &mut shared).unwrap();
        for (scheme, shared) in schemes.iter().zip(&shared) {
            let alone = eval.quality_with_fault_map(scheme, &faults).unwrap();
            assert_eq!(shared.to_bits(), alone.to_bits(), "{}", scheme.name());
        }
        assert_eq!(shared[2].to_bits(), shared[3].to_bits());
        assert_eq!(shared[1].to_bits(), prepared.baseline.to_bits());
    }

    #[test]
    fn quality_shard_states_merged_in_order_match_the_monolithic_campaign() {
        let eval = QualityEvaluator::builder(Benchmark::Elasticnet)
            .samples(96)
            .memory_rows(128)
            .build()
            .unwrap();
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let backend = Backend::at_p_cell(BackendKind::Sram, eval.memory_config(), 1e-3).unwrap();
        let monolithic = quality_cdfs(&eval, &schemes, &backend, 4, 2, 19).unwrap();
        for shard_count in [2usize, 3] {
            let mut merged = CatalogueAccumulator::new(schemes.len());
            for index in 0..shard_count {
                let shard = faultmit_sim::ShardSpec::new(index, shard_count).unwrap();
                merged.merge(
                    eval.quality_shard_on(&schemes, &backend, 4, 2, 19, shard)
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
}
