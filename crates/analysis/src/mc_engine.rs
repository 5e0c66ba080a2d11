//! The Monte-Carlo fault-injection campaign behind Fig. 5.
//!
//! Since the pipeline refactor this module is a thin, MSE-specialised facade
//! over [`faultmit_sim::Campaign`]: for every failure count `n = 1..=N_max`
//! the pipeline draws random fault maps (bit-flip locations distributed
//! uniformly over the array), evaluates the memory MSE of Eq. (6) under
//! **every** protection scheme on the *same* die (paired comparison), and
//! weighs each sample by `Pr(N = n)` so that the aggregated CDF describes
//! the population of manufactured dies.
//!
//! Campaigns are deterministic in the campaign seed and bit-identical at any
//! worker count — see the `determinism` integration test.

use crate::accumulate::CatalogueAccumulator;
use crate::cdf::EmpiricalCdf;
use crate::error::AnalysisError;
use crate::mse::{block_mse_into, memory_mse_sparse_with, CatalogueMse};
use crate::yield_model::YieldModel;
use faultmit_core::MitigationScheme;
use faultmit_memsim::{
    DataImage, DieBlock, FailureCountDistribution, FaultBackend, ImageSpec, MemoryConfig,
    OperatingPoint, SramVddBackend,
};
use faultmit_obs as obs;
use faultmit_sim::{
    Campaign, CampaignConfig, KernelKind, Parallelism, RunError, ShardSpec, ShardStats, SimError,
};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of one Monte-Carlo campaign, generic over the
/// fault-generating [`FaultBackend`] (default: the paper's SRAM
/// voltage-scaling model, keeping the legacy `(memory, p_cell)` call sites
/// bit-identical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig<B: FaultBackend = SramVddBackend> {
    backend: B,
    samples_per_count: usize,
    max_failures: Option<u64>,
    coverage: f64,
    parallelism: Parallelism,
    chunk_size: usize,
    image: ImageSpec,
    kernel: KernelKind,
    auto_threshold: Option<f64>,
    wide_generation: bool,
}

impl MonteCarloConfig<SramVddBackend> {
    /// Creates an SRAM campaign over a memory with the given geometry and
    /// cell failure probability — equivalent to
    /// [`MonteCarloConfig::for_backend`] with
    /// [`SramVddBackend::with_p_cell`].
    ///
    /// Defaults: 100 fault maps per failure count, failure counts up to the
    /// 99th percentile of the binomial distribution (the paper's `N_max`
    /// choice), one pipeline worker per CPU.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn new(memory: MemoryConfig, p_cell: f64) -> Result<Self, AnalysisError> {
        if !(0.0..=1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(AnalysisError::InvalidParameter {
                reason: format!("cell failure probability {p_cell} outside [0, 1]"),
            });
        }
        Ok(Self::for_backend(
            SramVddBackend::with_p_cell(memory, p_cell).map_err(AnalysisError::from)?,
        ))
    }

    /// The paper's Fig. 5 campaign: 16 KB memory, `P_cell = 5·10⁻⁶`.
    ///
    /// # Errors
    ///
    /// Never fails; kept fallible for signature uniformity.
    pub fn paper_fig5() -> Result<Self, AnalysisError> {
        Self::new(MemoryConfig::paper_16kb(), 5e-6)
    }

    /// The paper's Fig. 7 campaign memory model: 16 KB memory,
    /// `P_cell = 10⁻³`.
    ///
    /// # Errors
    ///
    /// Never fails; kept fallible for signature uniformity.
    pub fn paper_fig7() -> Result<Self, AnalysisError> {
        Self::new(MemoryConfig::paper_16kb(), 1e-3)
    }
}

impl<B: FaultBackend> MonteCarloConfig<B> {
    /// Creates a campaign drawing dies from the given backend, with the
    /// same defaults as [`MonteCarloConfig::new`].
    #[must_use]
    pub fn for_backend(backend: B) -> Self {
        Self {
            backend,
            samples_per_count: 100,
            max_failures: None,
            coverage: 0.99,
            parallelism: Parallelism::default(),
            chunk_size: 32,
            image: ImageSpec::Zeros,
            kernel: KernelKind::default(),
            auto_threshold: None,
            wide_generation: true,
        }
    }

    /// Sets the number of random fault maps drawn per failure count
    /// (the paper uses 500 for the application study).
    #[must_use]
    pub fn with_samples_per_count(mut self, samples: usize) -> Self {
        self.samples_per_count = samples.max(1);
        self
    }

    /// Caps the largest failure count that is simulated.
    #[must_use]
    pub fn with_max_failures(mut self, max_failures: u64) -> Self {
        self.max_failures = Some(max_failures);
        self
    }

    /// Sets the probability mass that the automatically derived `N_max` must
    /// cover (default 0.99, the paper's choice).
    #[must_use]
    pub fn with_coverage(mut self, coverage: f64) -> Self {
        self.coverage = coverage.clamp(0.0, 1.0);
        self
    }

    /// Sets the pipeline worker policy (serial, fixed thread count, or one
    /// worker per CPU). Results are identical for every setting.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the pipeline chunk size (scheduling granularity; does not affect
    /// results).
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Sets the data image the MSE is evaluated against (default:
    /// [`ImageSpec::Zeros`], the paper's all-zeros background and the
    /// engine's bit-identical fast path).
    ///
    /// With any other image the engine applies faults *relative to the
    /// stored word*: a stuck-at fault that agrees with the data is silent,
    /// so the asymmetric [`faultmit_memsim::FaultKindLaw`]s finally
    /// differentiate schemes. Self-contained images materialise inside the
    /// engine; [`ImageSpec::App`] images must be materialised by the apps
    /// layer and passed to
    /// [`MonteCarloEngine::run_catalogue_shard_on_image`].
    #[must_use]
    pub fn with_image(mut self, image: ImageSpec) -> Self {
        self.image = image;
        self
    }

    /// The data image the MSE is evaluated against.
    #[must_use]
    pub fn image(&self) -> ImageSpec {
        self.image
    }

    /// Selects the evaluation kernel (default: [`KernelKind::Sparse`]).
    ///
    /// All kernels accumulate **bit-identical** results — the choice only
    /// trades throughput: `sparse` is event-driven, `bitsliced` evaluates up
    /// to [`faultmit_memsim::BLOCK_DIES`] dies per `u64` lane, and `auto`
    /// resolves to `sparse` or `bitsliced` from the campaign's expected
    /// fault density before any sampling happens (see
    /// [`MonteCarloConfig::resolved_kernel`]).
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// The evaluation kernel campaigns run with, as configured (`auto`
    /// stays `auto`; see [`MonteCarloConfig::resolved_kernel`] for the
    /// kernel that actually executes).
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Overrides the density threshold (in expected faults per row) at
    /// which [`KernelKind::Auto`] picks the dense bit-sliced kernel over
    /// the sparse one — the `--auto-threshold` CLI knob. `None` (the
    /// default) keeps [`faultmit_sim::AUTO_FAULTS_PER_ROW_THRESHOLD`].
    /// Fixed kernels ignore the threshold entirely.
    #[must_use]
    pub fn with_auto_threshold(mut self, auto_threshold: Option<f64>) -> Self {
        self.auto_threshold = auto_threshold;
        self
    }

    /// The configured `auto`-kernel density threshold override, if any.
    #[must_use]
    pub fn auto_threshold(&self) -> Option<f64> {
        self.auto_threshold
    }

    /// Toggles the lane-interleaved block generation path (default **on**;
    /// see [`faultmit_sim::CampaignConfig::with_wide_generation`]). Results
    /// are bit-identical either way; the toggle is the scalar baseline for
    /// benches and equivalence gates.
    #[must_use]
    pub fn with_wide_generation(mut self, wide_generation: bool) -> Self {
        self.wide_generation = wide_generation;
        self
    }

    /// Whether block kernels use the lane-interleaved generation path.
    #[must_use]
    pub fn wide_generation(&self) -> bool {
        self.wide_generation
    }

    /// The fixed kernel this configuration's [`KernelKind`] resolves to:
    /// fixed kernels return themselves, while [`KernelKind::Auto`] applies
    /// the density policy of [`KernelKind::resolve`] to this campaign's
    /// expected faults per die — `(1 + N_max) / 2`, the mean of the uniform
    /// per-count plan. The resolution depends only on the configuration, so
    /// every shard of a campaign resolves identically.
    ///
    /// # Errors
    ///
    /// Propagates errors from building the failure distribution.
    pub fn resolved_kernel(&self) -> Result<KernelKind, AnalysisError> {
        #[allow(clippy::cast_precision_loss)]
        let expected_faults_per_die = (1.0 + self.effective_max_failures()? as f64) / 2.0;
        let threshold = self
            .auto_threshold
            .unwrap_or(faultmit_sim::AUTO_FAULTS_PER_ROW_THRESHOLD);
        Ok(self.kernel.resolve_with_threshold(
            expected_faults_per_die,
            self.memory().rows(),
            threshold,
        ))
    }

    /// The fault-generating backend under study.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The backend's operating point (the technology knob this campaign is
    /// evaluated at — `V_DD` for SRAM, refresh interval + temperature for
    /// DRAM, level spacing + drift time for MLC NVM).
    #[must_use]
    pub fn operating_point(&self) -> OperatingPoint {
        self.backend.operating_point()
    }

    /// Memory geometry under study.
    #[must_use]
    pub fn memory(&self) -> MemoryConfig {
        self.backend.config()
    }

    /// Marginal cell failure probability at the backend's operating point.
    #[must_use]
    pub fn p_cell(&self) -> f64 {
        self.backend.p_cell()
    }

    /// Number of fault maps per failure count.
    #[must_use]
    pub fn samples_per_count(&self) -> usize {
        self.samples_per_count
    }

    /// The configured pipeline worker policy.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The failure-count distribution implied by the configuration.
    ///
    /// # Errors
    ///
    /// Propagates invalid-probability errors (none occur for a validated
    /// configuration).
    pub fn failure_distribution(&self) -> Result<FailureCountDistribution, AnalysisError> {
        Ok(self.backend.failure_distribution()?)
    }

    /// The largest failure count that will be simulated.
    ///
    /// # Errors
    ///
    /// Propagates errors from building the failure distribution.
    pub fn effective_max_failures(&self) -> Result<u64, AnalysisError> {
        match self.max_failures {
            Some(n) => Ok(n),
            None => Ok(self.failure_distribution()?.n_max(self.coverage)),
        }
    }

    /// The equivalent pipeline configuration.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn to_campaign_config(&self) -> Result<CampaignConfig<B>, AnalysisError>
    where
        B: Clone,
    {
        let mut config = CampaignConfig::for_backend(self.backend.clone())
            .map_err(sim_to_analysis_error)?
            .with_samples_per_count(self.samples_per_count)
            .with_coverage(self.coverage)
            .with_chunk_size(self.chunk_size)
            .with_parallelism(self.parallelism)
            .with_image(self.image)
            .with_wide_generation(self.wide_generation);
        if let Some(max) = self.max_failures {
            config = config.with_max_failures(max);
        }
        Ok(config)
    }
}

fn sim_to_analysis_error(error: SimError) -> AnalysisError {
    match error {
        SimError::InvalidParameter { reason } => AnalysisError::InvalidParameter { reason },
        SimError::Memory(e) => AnalysisError::Memory(e),
    }
}

fn run_to_analysis_error(error: RunError<Infallible>) -> AnalysisError {
    match error {
        RunError::Sim(e) => sim_to_analysis_error(e),
        RunError::Eval(infallible) => match infallible {},
    }
}

/// Snapshots the calling thread's recorder (if any) so a `_stats` runner can
/// report the metrics delta its shard produced alongside the timing.
fn metrics_baseline() -> (Option<std::sync::Arc<obs::Recorder>>, obs::MetricsSnapshot) {
    let recorder = obs::current();
    let before = recorder.as_ref().map(|r| r.snapshot()).unwrap_or_default();
    (recorder, before)
}

fn stats_from_nanos(
    gen_nanos: &AtomicU64,
    baseline: &(Option<std::sync::Arc<obs::Recorder>>, obs::MetricsSnapshot),
) -> ShardStats {
    ShardStats {
        generation_seconds: gen_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        metrics: match &baseline.0 {
            Some(recorder) => recorder.snapshot().since(&baseline.1),
            None => obs::MetricsSnapshot::default(),
        },
    }
}

/// The outcome of evaluating one protection scheme in a Monte-Carlo campaign.
#[derive(Debug, Clone)]
pub struct SchemeMseResult {
    /// Human-readable scheme name (as reported by
    /// [`MitigationScheme::name`]).
    pub scheme_name: String,
    /// The weighted MSE CDF over the simulated die population (the Fig. 5
    /// series for this scheme).
    pub cdf: EmpiricalCdf,
    /// The full yield model, for quality-vs-yield queries.
    pub yield_model: YieldModel,
    /// Largest simulated failure count.
    pub max_failures: u64,
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
/// the parallel pipeline, generic over the fault-generating backend.
#[derive(Debug, Clone)]
pub struct MonteCarloEngine<B: FaultBackend = SramVddBackend> {
    config: MonteCarloConfig<B>,
}

impl<B: FaultBackend + Clone> MonteCarloEngine<B> {
    /// Creates an engine for the given campaign configuration.
    #[must_use]
    pub fn new(config: MonteCarloConfig<B>) -> Self {
        Self { config }
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &MonteCarloConfig<B> {
        &self.config
    }

    /// Runs the campaign for a single protection scheme (thin shim over
    /// [`MonteCarloEngine::run_catalogue`] with a one-element catalogue).
    ///
    /// The `seed` makes the campaign reproducible; reusing the same seed
    /// across calls evaluates every scheme on identical fault maps.
    ///
    /// # Errors
    ///
    /// Propagates configuration and sampling errors.
    pub fn run<S: MitigationScheme + Sync + ?Sized>(
        &self,
        scheme: &S,
        seed: u64,
    ) -> Result<SchemeMseResult, AnalysisError> {
        let mut results = self.run_catalogue(&[scheme], seed)?;
        Ok(results.remove(0))
    }

    /// Runs one paired campaign over the whole scheme catalogue: every
    /// scheme is evaluated against the **same** fault map of every sampled
    /// die, so per-die comparisons are exact rather than only statistically
    /// matched.
    ///
    /// This is the monolithic ([`ShardSpec::solo`]) special case of the
    /// sharded path: one full-coverage shard state, immediately reduced to
    /// results.
    ///
    /// # Errors
    ///
    /// Propagates the first error encountered.
    pub fn run_catalogue<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
    ) -> Result<Vec<SchemeMseResult>, AnalysisError> {
        let state = self.run_catalogue_shard(schemes, seed, ShardSpec::solo())?;
        self.results_from_state(schemes, state)
    }

    /// Runs one shard of the paired campaign, returning the raw accumulator
    /// state instead of finished results.
    ///
    /// Shard states merged in shard order (via
    /// [`faultmit_sim::Accumulator::merge`]) are bit-identical to the
    /// monolithic [`MonteCarloEngine::run_catalogue`] accumulation; feed the
    /// merged state to [`MonteCarloEngine::results_from_state`] to obtain
    /// the exact monolithic results.
    ///
    /// # Errors
    ///
    /// Propagates configuration and sampling errors.
    pub fn run_catalogue_shard<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
    ) -> Result<CatalogueAccumulator, AnalysisError> {
        self.run_catalogue_shard_gen(schemes, seed, shard, None)
    }

    /// [`MonteCarloEngine::run_catalogue_shard`] plus a [`ShardStats`]
    /// timing breakdown (generation seconds summed across workers). The
    /// accumulator is bit-identical to the untimed runner's; the plain
    /// runner skips the clock reads entirely.
    ///
    /// # Errors
    ///
    /// Same contract as [`MonteCarloEngine::run_catalogue_shard`].
    pub fn run_catalogue_shard_stats<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
    ) -> Result<(CatalogueAccumulator, ShardStats), AnalysisError> {
        let gen_nanos = AtomicU64::new(0);
        let baseline = metrics_baseline();
        let state = self.run_catalogue_shard_gen(schemes, seed, shard, Some(&gen_nanos))?;
        Ok((state, stats_from_nanos(&gen_nanos, &baseline)))
    }

    fn run_catalogue_shard_gen<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        gen_timer: Option<&AtomicU64>,
    ) -> Result<CatalogueAccumulator, AnalysisError> {
        match self.config.image {
            // The all-zeros fast path: exactly the historical evaluation,
            // bit-identical to the pre-image pipeline.
            ImageSpec::Zeros => {
                self.run_catalogue_shard_on_image_gen(schemes, seed, shard, None, gen_timer)
            }
            spec => {
                // Self-contained images resolve here; App images propagate
                // memsim's "resolve through the apps layer" error. The
                // event-driven kernel gathers image words per faulty row, so
                // the image is never materialised memory-wide.
                let image = spec.try_materialise(self.config.memory())?;
                self.run_catalogue_shard_with_image(schemes, seed, shard, image.as_ref(), gen_timer)
            }
        }
    }

    /// The campaign body for a row-addressable data image: dies evaluate
    /// through the configured [`KernelKind`], querying `image` only at
    /// fault-bearing rows — bit-identical to evaluating against the image's
    /// dense [`DataImage::materialise`] vector, whichever kernel runs.
    fn run_catalogue_shard_with_image<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        image: &dyn DataImage,
        gen_timer: Option<&AtomicU64>,
    ) -> Result<CatalogueAccumulator, AnalysisError> {
        self.run_campaign_kernel(schemes, seed, shard, |row| image.word(row), gen_timer)
    }

    /// Dispatches one shard of the paired campaign to the configured
    /// evaluation kernel (`auto` resolves first, via
    /// [`MonteCarloConfig::resolved_kernel`]), with `written` supplying the
    /// stored word of every row. The sparse kernel scores each die's whole
    /// catalogue in one [`CatalogueMse`] walk. Every kernel folds the
    /// identical per-die squared-error sums in the identical order, so the
    /// returned accumulator is bit-identical across [`KernelKind`] choices.
    fn run_campaign_kernel<S, W>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        written: W,
        gen_timer: Option<&AtomicU64>,
    ) -> Result<CatalogueAccumulator, AnalysisError>
    where
        S: MitigationScheme + Sync,
        W: Fn(usize) -> u64 + Sync,
    {
        let campaign = Campaign::new(self.config.to_campaign_config()?);
        let kernel = self.config.resolved_kernel()?;
        // One dispatch event per shard run: `auto` resolves before any
        // sampling, so the counters record the kernel that actually executed.
        obs::count(
            match kernel {
                KernelKind::Auto => unreachable!("resolved_kernel always returns a fixed kernel"),
                KernelKind::Sparse => obs::Counter::DispatchSparse,
                KernelKind::Bitsliced => obs::Counter::DispatchBitsliced,
            },
            1,
        );
        match kernel {
            KernelKind::Auto => unreachable!("resolved_kernel always returns a fixed kernel"),
            KernelKind::Sparse => {
                let walk = CatalogueMse::new(schemes, self.config.memory().word_bits());
                campaign
                    .try_run_shard_timed(
                        schemes,
                        seed,
                        shard,
                        |map, metrics| {
                            walk.mse_into(map, &written, metrics);
                            Ok::<(), Infallible>(())
                        },
                        || CatalogueAccumulator::new(schemes.len()),
                        gen_timer,
                    )
                    .map_err(run_to_analysis_error)
            }
            KernelKind::Bitsliced => campaign
                .run_shard_blocks_timed(
                    schemes,
                    seed,
                    shard,
                    |scheme, map| memory_mse_sparse_with(scheme, map, &written),
                    |scheme, block: &DieBlock<'_>, out: &mut [f64]| {
                        block_mse_into(scheme, block, &written, out);
                    },
                    || CatalogueAccumulator::new(schemes.len()),
                    gen_timer,
                )
                .map_err(sim_to_analysis_error),
        }
    }

    /// Runs one shard of the paired campaign against an explicit data
    /// image — the data-aware twin of
    /// [`MonteCarloEngine::run_catalogue_shard`], for callers that
    /// materialise image words themselves (the apps layer resolves
    /// [`ImageSpec::App`] matrices this way).
    ///
    /// `data` holds one stored word per memory row; `None` selects the
    /// all-zeros fast path, whose accumulation is **bit-identical** to the
    /// legacy pipeline — and to `Some` of an explicit all-zeros vector,
    /// since a fault's observed word does not depend on how the zero
    /// background is spelled.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when `data` has fewer
    /// entries than the memory has rows, and propagates campaign errors.
    pub fn run_catalogue_shard_on_image<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        data: Option<&[u64]>,
    ) -> Result<CatalogueAccumulator, AnalysisError> {
        self.run_catalogue_shard_on_image_gen(schemes, seed, shard, data, None)
    }

    /// [`MonteCarloEngine::run_catalogue_shard_on_image`] plus a
    /// [`ShardStats`] timing breakdown (see
    /// [`MonteCarloEngine::run_catalogue_shard_stats`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`MonteCarloEngine::run_catalogue_shard_on_image`].
    pub fn run_catalogue_shard_on_image_stats<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        data: Option<&[u64]>,
    ) -> Result<(CatalogueAccumulator, ShardStats), AnalysisError> {
        let gen_nanos = AtomicU64::new(0);
        let baseline = metrics_baseline();
        let state =
            self.run_catalogue_shard_on_image_gen(schemes, seed, shard, data, Some(&gen_nanos))?;
        Ok((state, stats_from_nanos(&gen_nanos, &baseline)))
    }

    fn run_catalogue_shard_on_image_gen<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        data: Option<&[u64]>,
        gen_timer: Option<&AtomicU64>,
    ) -> Result<CatalogueAccumulator, AnalysisError> {
        if let Some(data) = data {
            let rows = self.config.memory().rows();
            if data.len() < rows {
                return Err(AnalysisError::InvalidParameter {
                    reason: format!(
                        "data image has {} words but the memory has {rows} rows",
                        data.len()
                    ),
                });
            }
        }
        match data {
            // `memory_mse_sparse` is `memory_mse_sparse_with` against the
            // `|_| 0` word source, so the zeros fast path and an explicit
            // zeros vector share one dispatcher without a bit of drift.
            None => self.run_campaign_kernel(schemes, seed, shard, |_| 0, gen_timer),
            Some(data) => {
                self.run_campaign_kernel(schemes, seed, shard, |row| data[row], gen_timer)
            }
        }
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
    pub fn results_from_state<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
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
        let distribution = self.config.failure_distribution()?;
        let max_failures = self.config.effective_max_failures()?;
        Ok(state
            .into_yield_models(distribution)
            .into_iter()
            .zip(schemes)
            .map(|(yield_model, scheme)| SchemeMseResult {
                scheme_name: scheme.name(),
                cdf: yield_model.combined_cdf(),
                yield_model,
                max_failures,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_core::Scheme;

    fn small_config() -> MonteCarloConfig {
        MonteCarloConfig::new(MemoryConfig::new(128, 32).unwrap(), 1e-3)
            .unwrap()
            .with_samples_per_count(30)
            .with_max_failures(10)
    }

    #[test]
    fn config_validation() {
        assert!(MonteCarloConfig::new(MemoryConfig::paper_16kb(), -0.1).is_err());
        assert!(MonteCarloConfig::new(MemoryConfig::paper_16kb(), 1.5).is_err());
        assert!(MonteCarloConfig::paper_fig5().is_ok());
        assert!(MonteCarloConfig::paper_fig7().is_ok());
    }

    #[test]
    fn effective_max_failures_uses_coverage_or_override() {
        let auto = MonteCarloConfig::new(MemoryConfig::paper_16kb(), 1e-3).unwrap();
        let n_auto = auto.effective_max_failures().unwrap();
        assert!(n_auto > 131, "n_max must exceed the mean failure count");
        let capped = auto.with_max_failures(20);
        assert_eq!(capped.effective_max_failures().unwrap(), 20);
    }

    #[test]
    fn identical_seeds_reproduce_identical_results() {
        let engine = MonteCarloEngine::new(small_config());
        let scheme = Scheme::unprotected32();
        let a = engine.run(&scheme, 7).unwrap();
        let b = engine.run(&scheme, 7).unwrap();
        assert_eq!(a.cdf.len(), b.cdf.len());
        assert!((a.cdf.mean().unwrap() - b.cdf.mean().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn single_run_matches_catalogue_entry() {
        // A scheme evaluated alone and as part of a catalogue sees the same
        // dies (shared seed → shared fault maps), so the CDFs are identical.
        let engine = MonteCarloEngine::new(small_config());
        let alone = engine.run(&Scheme::pecc32(), 21).unwrap();
        let catalogue = engine
            .run_catalogue(&[Scheme::unprotected32(), Scheme::pecc32()], 21)
            .unwrap();
        assert_eq!(alone.cdf, catalogue[1].cdf);
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
        let mse_unprotected = unprotected.cdf.quantile(q);
        let mse_shuffled = shuffled.cdf.quantile(q);
        assert!(
            mse_shuffled < mse_unprotected / 1e3,
            "shuffling must cut the MSE by orders of magnitude"
        );
        // SECDED corrects everything except the (rare at this fault density)
        // words with two or more faults, so on average it is far better than
        // the unprotected memory even though its tail is not necessarily
        // better than fine-grained shuffling.
        assert!(secded.cdf.mean().unwrap() < unprotected.cdf.mean().unwrap() / 5.0);
        // At the median, SECDED memories are error-free.
        assert_eq!(secded.cdf.quantile(0.5), 0.0);
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
        assert!(results[1].cdf.quantile(0.99) <= results[0].cdf.quantile(0.99));
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
            for ((mse_u, _), (mse_s, _)) in unprotected_cdf.samples().zip(shuffle_cdf.samples()) {
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
            assert_eq!(x.cdf, y.cdf);
        }
    }

    #[test]
    fn yield_at_mse_is_monotone() {
        let engine = MonteCarloEngine::new(small_config());
        let result = engine.run(&Scheme::pecc32(), 5).unwrap();
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
        let result = engine.run(&Scheme::shuffle32(2).unwrap(), 13).unwrap();
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
            let config = MonteCarloConfig::for_backend(backend)
                .with_samples_per_count(10)
                .with_max_failures(6);
            assert_eq!(config.operating_point(), op);
            let engine = MonteCarloEngine::new(config);
            let results = engine.run_catalogue(&schemes, 29).unwrap();
            assert_eq!(results.len(), 2, "{kind}");
            // Shuffling never loses to no protection, whatever the backend's
            // spatial law.
            assert!(
                results[1].cdf.quantile(0.99) <= results[0].cdf.quantile(0.99),
                "{kind}: shuffle q99 exceeds unprotected q99"
            );
        }
    }

    #[test]
    fn sram_backend_engine_matches_the_legacy_constructor_bit_for_bit() {
        use faultmit_memsim::SramVddBackend;
        let memory = MemoryConfig::new(128, 32).unwrap();
        let legacy = MonteCarloEngine::new(
            MonteCarloConfig::new(memory, 1e-3)
                .unwrap()
                .with_samples_per_count(15)
                .with_max_failures(8),
        );
        let explicit = MonteCarloEngine::new(
            MonteCarloConfig::for_backend(SramVddBackend::with_p_cell(memory, 1e-3).unwrap())
                .with_samples_per_count(15)
                .with_max_failures(8),
        );
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let a = legacy.run_catalogue(&schemes, 41).unwrap();
        let b = explicit.run_catalogue(&schemes, 41).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cdf, y.cdf);
        }
    }

    #[test]
    fn shard_states_merged_in_order_reproduce_the_monolithic_results() {
        use faultmit_sim::Accumulator;
        let engine = MonteCarloEngine::new(small_config());
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(2).unwrap()];
        let monolithic = engine.run_catalogue(&schemes, 37).unwrap();
        for shard_count in [1usize, 2, 3, 7] {
            let mut merged = CatalogueAccumulator::new(schemes.len());
            for index in 0..shard_count {
                let shard = ShardSpec::new(index, shard_count).unwrap();
                merged.merge(engine.run_catalogue_shard(&schemes, 37, shard).unwrap());
            }
            let results = engine.results_from_state(&schemes, merged).unwrap();
            for (a, b) in monolithic.iter().zip(&results) {
                assert_eq!(a.scheme_name, b.scheme_name, "{shard_count} shards");
                assert_eq!(a.cdf, b.cdf, "{shard_count} shards: {}", a.scheme_name);
                assert_eq!(
                    a.cdf.total_weight().to_bits(),
                    b.cdf.total_weight().to_bits(),
                    "{shard_count} shards"
                );
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
        let a = legacy
            .run_catalogue_shard(&schemes, 23, ShardSpec::solo())
            .unwrap();
        let b = imaged
            .run_catalogue_shard(&schemes, 23, ShardSpec::solo())
            .unwrap();
        let zeros = vec![0u64; legacy.config().memory().rows()];
        let c = legacy
            .run_catalogue_shard_on_image(&schemes, 23, ShardSpec::solo(), Some(&zeros))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn every_kernel_accumulates_identical_bits_on_zeros_and_data_images() {
        use faultmit_memsim::{FaultKindLaw, SramVddBackend};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let backend = SramVddBackend::with_p_cell(memory, 1e-3)
            .unwrap()
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
                let config = MonteCarloConfig::for_backend(backend)
                    .with_samples_per_count(70)
                    .with_max_failures(5)
                    .with_chunk_size(67)
                    .with_image(image)
                    .with_kernel(kernel);
                MonteCarloEngine::new(config)
                    .run_catalogue_shard(&schemes, 91, ShardSpec::solo())
                    .unwrap()
            };
            let sparse = run(KernelKind::Sparse);
            for kernel in KernelKind::ALL {
                assert_eq!(sparse, run(kernel), "{image:?}: {kernel}");
            }
        }
    }

    #[test]
    fn auto_kernel_resolution_tracks_the_campaign_density() {
        // 5 expected faults spread over 128 rows is far below the 8-per-row
        // threshold → sparse; the same kernel over an 8-row memory crosses
        // it → bitsliced.
        let sparse_config = MonteCarloConfig::new(MemoryConfig::new(128, 32).unwrap(), 1e-3)
            .unwrap()
            .with_max_failures(5)
            .with_kernel(KernelKind::Auto);
        assert_eq!(sparse_config.kernel(), KernelKind::Auto);
        assert_eq!(sparse_config.resolved_kernel().unwrap(), KernelKind::Sparse);
        let dense_config = MonteCarloConfig::new(MemoryConfig::new(8, 32).unwrap(), 1e-3)
            .unwrap()
            .with_max_failures(5)
            .with_kernel(KernelKind::Auto);
        assert_eq!(
            dense_config.resolved_kernel().unwrap(),
            KernelKind::Bitsliced
        );
        // Fixed kernels resolve to themselves.
        assert_eq!(
            sparse_config
                .with_kernel(KernelKind::Bitsliced)
                .resolved_kernel()
                .unwrap(),
            KernelKind::Bitsliced
        );
    }

    #[test]
    fn stuck_at_zero_faults_are_silent_on_zeros_and_observable_on_ones() {
        use faultmit_memsim::{FaultKindLaw, SramVddBackend};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let backend = SramVddBackend::with_p_cell(memory, 1e-3)
            .unwrap()
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 1.0,
            })
            .unwrap();
        let build = |image| {
            MonteCarloEngine::new(
                MonteCarloConfig::for_backend(backend)
                    .with_samples_per_count(10)
                    .with_max_failures(6)
                    .with_image(image),
            )
        };
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let silent = build(ImageSpec::Zeros).run_catalogue(&schemes, 3).unwrap();
        for result in &silent {
            assert_eq!(
                result.cdf.mean().unwrap_or(0.0),
                0.0,
                "{}: stuck-at-0 over zeros must be invisible",
                result.scheme_name
            );
        }
        let loud = build(ImageSpec::Ones).run_catalogue(&schemes, 3).unwrap();
        assert!(
            loud[0].cdf.mean().unwrap() > 0.0,
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
            .run_catalogue_shard_on_image(
                &[Scheme::unprotected32()],
                1,
                ShardSpec::solo(),
                Some(&[0u64; 3]),
            )
            .unwrap_err();
        assert!(error.to_string().contains("3 words"), "{error}");
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
