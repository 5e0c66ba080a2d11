//! The campaign orchestrator: one engine from die sampling to metric CDFs.
//!
//! A [`Campaign`] drives the paper's Monte-Carlo protocol (§4/§5.2): for
//! every failure count `n = 1..=N_max` it draws `samples_per_count` fault
//! maps and evaluates **every scheme of the catalogue on the same die**
//! (paired comparison), weighting each sample by `Pr(N = n) /
//! samples_per_count` so the union describes the manufactured-die
//! population.
//!
//! The work is split into fixed-size chunks that worker threads claim
//! dynamically. Each sample derives its RNG from the campaign seed and its
//! global index ([`StreamSeeder`]), and a shard hands back its dies in plan
//! order with each chunk's metrics ([`ShardSamples`]), so a campaign is
//! **bit-identical at any worker count** — the property the
//! serial-vs-parallel regression tests pin down.
//!
//! Dies come from the configured [`Backend`]: SRAM reproduces the paper's
//! iid voltage-scaling model bit-for-bit, while DRAM retention and MLC NVM
//! swap in structured, non-iid fault processes without touching the
//! campaign protocol — determinism and paired comparison hold for every
//! technology because per-sample RNG streams depend only on
//! `(seed, sample index)`.

use crate::error::{RunError, SimError};
use crate::executor::{run_chunked_with, Parallelism};
use faultmit_core::Scheme;
use faultmit_memsim::{
    Backend, BlockScratch, DieBlock, FailureCountDistribution, FaultMap, ImageSpec, MapPolicy,
    MemoryConfig, OperatingPoint, PlannedSample, SramVddBackend, StreamSeeder, BLOCK_DIES,
};
use faultmit_obs as obs;
use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::time::Instant;

/// Probability mass the automatically derived `N_max` covers: the paper
/// sizes its sweep so 99 % of dies have no more than `N_max` failures.
/// Figures that size a sweep outside [`CampaignConfig`] use it too.
pub const N_MAX_COVERAGE: f64 = 0.99;

/// One shard of a campaign split across `shard_count` independent runs.
///
/// A campaign's work list is deterministic (it depends only on the
/// configuration), so it can be partitioned into `shard_count` disjoint
/// chunk ranges and each range evaluated by a separate process — or a
/// separate machine, since per-sample RNG streams derive from
/// `(seed, global sample index)` alone. The shards' samples taken **in
/// shard order** are the monolithic run's: the monolithic path *is* the
/// `0/1` shard ([`ShardSpec::solo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    shard_index: usize,
    shard_count: usize,
}

impl ShardSpec {
    /// Creates the spec for shard `shard_index` of `shard_count`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `shard_count` is zero or
    /// `shard_index` is out of range.
    pub fn new(shard_index: usize, shard_count: usize) -> Result<Self, SimError> {
        if shard_count == 0 {
            return Err(SimError::InvalidParameter {
                reason: "shard count must be at least 1".to_owned(),
            });
        }
        if shard_index >= shard_count {
            return Err(SimError::InvalidParameter {
                reason: format!("shard index {shard_index} outside 0..{shard_count}"),
            });
        }
        Ok(Self {
            shard_index,
            shard_count,
        })
    }

    /// The single shard covering the whole campaign — monolithic execution.
    #[must_use]
    pub fn solo() -> Self {
        Self {
            shard_index: 0,
            shard_count: 1,
        }
    }

    /// All shards of a `shard_count`-way split, in shard order — the work
    /// list a campaign driver schedules. An empty iterator for
    /// `shard_count == 0` (no valid spec exists).
    pub fn all(shard_count: usize) -> impl Iterator<Item = ShardSpec> {
        (0..shard_count).map(move |shard_index| Self {
            shard_index,
            shard_count,
        })
    }

    /// This shard's index in `0..shard_count()`.
    #[must_use]
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// Total number of shards the campaign is split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// `true` when this spec covers the whole campaign (`0/1`).
    #[must_use]
    pub fn is_solo(&self) -> bool {
        self.shard_count == 1
    }

    /// The contiguous range of chunk indices this shard owns out of
    /// `chunk_count` total chunks.
    ///
    /// Ranges of consecutive shards tile `0..chunk_count` exactly (balanced
    /// to within one chunk), so concatenating all shards in shard order
    /// reproduces the monolithic chunk sequence: shard `i` of `K` starts at
    /// chunk `floor(i · chunk_count / K)`, for any `K` up to `usize::MAX`.
    #[must_use]
    pub fn chunk_range(&self, chunk_count: usize) -> Range<usize> {
        // The product of two `usize`s is exact in `u128`, and the quotient
        // is at most `chunk_count`.
        let bound = |index: usize| {
            (index as u128 * chunk_count as u128 / self.shard_count as u128) as usize
        };
        bound(self.shard_index)..bound(self.shard_index + 1)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.shard_index, self.shard_count)
    }
}

impl FromStr for ShardSpec {
    type Err = SimError;

    /// Parses the `I/K` notation used by the `--shard` CLI flag.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let invalid = || SimError::InvalidParameter {
            reason: format!("shard spec '{s}' must be I/K with 0 <= I < K"),
        };
        let (index, count) = s.split_once('/').ok_or_else(invalid)?;
        let index: usize = index.trim().parse().map_err(|_| invalid())?;
        let count: usize = count.trim().parse().map_err(|_| invalid())?;
        Self::new(index, count)
    }
}

/// What one shard run evaluated, as data — returned by both runners
/// ([`Campaign::run_shard`], [`Campaign::run_shard_blocks`]) and folded by
/// the caller (`faultmit-analysis`'s `CatalogueAccumulator`).
///
/// The dies of the shards of a campaign, taken in shard order, are the dies
/// of the monolithic run in plan order, each with the same metrics, at any
/// worker count, chunk size and kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSamples {
    /// Metrics per die: the size of the evaluated scheme catalogue.
    pub scheme_count: usize,
    /// The shard's dies in plan order: global sample index and fault count.
    pub dies: Vec<PlannedSample>,
    /// The statistical weight of a die with `n` faults, at index `n`:
    /// `Pr(N = n) / samples_per_count` over the binomial sweep, or
    /// `1 / samples_per_count` at the one count of an exact-failure
    /// campaign (0 at every other count). Every shard holds the same table.
    pub weights: Vec<f64>,
    /// Each of the shard's chunks' metrics, in chunk order: die after die
    /// in plan order, `scheme_count` values per die (`metrics[s]` of
    /// `schemes[s]`). The buffers are not joined, so together they split
    /// `dies` at the campaign's chunk boundaries.
    pub chunks: Vec<Vec<f64>>,
}

/// Telemetry of one shard run, returned by both runners
/// ([`Campaign::run_shard`], [`Campaign::run_shard_blocks`]). Results are
/// bit-identical whatever is recorded — the stats are observability, not
/// configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Worker-seconds spent generating dies (sampling fault maps /
    /// blocks): every chunk's generation wall spans, summed in chunk
    /// order. These are wall spans, not CPU time — a descheduled worker's
    /// span still counts — and with more than one worker the sum can
    /// exceed the shard's elapsed time. They are the nanoseconds the run
    /// flushes to [`faultmit_obs::Stage::Generate`], so with a recorder
    /// installed this equals the Generate seconds it records for the run.
    pub generation_seconds: f64,
}

/// Which evaluation kernel a campaign drives. Both kernels produce
/// **bit-identical** per-panel results (the `kernel_equivalence` suite pins
/// this); they differ only in throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// The event-driven kernel walking only fault-bearing rows through
    /// `observe_sparse` — the default.
    #[default]
    Sparse,
    /// The bit-sliced kernel: up to [`BLOCK_DIES`] dies transposed into
    /// `u64` lanes and evaluated together through `observe_block`, with a
    /// scalar tail for leftover samples.
    Bitsliced,
}

impl KernelKind {
    /// All kernels, in sparse → bitsliced order.
    pub const ALL: [KernelKind; 2] = [KernelKind::Sparse, KernelKind::Bitsliced];

    /// The CLI / telemetry name of the kernel.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelKind::Sparse => "sparse",
            KernelKind::Bitsliced => "bitsliced",
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for KernelKind {
    type Err = SimError;

    /// Parses a kernel's CLI name. The names of removed kernels (`scalar`,
    /// `bitsliced256`, and the `auto` density policy) are refused with an
    /// error saying so, never remapped to a surviving kernel.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "sparse" => Ok(KernelKind::Sparse),
            "bitsliced" => Ok(KernelKind::Bitsliced),
            removed @ ("scalar" | "bitsliced256" | "auto") => Err(SimError::InvalidParameter {
                reason: format!("kernel '{removed}' was removed (expected sparse|bitsliced)"),
            }),
            other => Err(SimError::InvalidParameter {
                reason: format!("unknown kernel '{other}' (expected sparse|bitsliced)"),
            }),
        }
    }
}

/// Configuration of a fault-injection campaign over the dies of one
/// [`Backend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    backend: Backend,
    samples_per_count: usize,
    max_failures: Option<u64>,
    exact_failures: Option<u64>,
    chunk_size: usize,
    parallelism: Parallelism,
    map_policy: MapPolicy,
    image: ImageSpec,
    kernel: KernelKind,
}

impl CampaignConfig {
    /// Creates a campaign over an SRAM memory with the given geometry and
    /// cell failure probability — the paper's model, shorthand for
    /// [`CampaignConfig::for_backend`] with a [`Backend::Sram`] built by
    /// [`SramVddBackend::with_p_cell`].
    ///
    /// Defaults: 100 fault maps per failure count, failure counts up to the
    /// 99th percentile of the binomial distribution (the paper's `N_max`
    /// choice), unrestricted maps, chunked in blocks of 32 samples, one
    /// worker per CPU, the all-zeros image and the sparse kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn new(memory: MemoryConfig, p_cell: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(SimError::InvalidParameter {
                reason: format!("cell failure probability {p_cell} outside [0, 1]"),
            });
        }
        Self::for_backend(Backend::Sram(SramVddBackend::with_p_cell(memory, p_cell)?))
    }

    /// Creates a campaign drawing dies from the given backend, with the
    /// same defaults as [`CampaignConfig::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when the backend reports a
    /// per-cell fault probability outside `[0, 1]`.
    pub fn for_backend(backend: Backend) -> Result<Self, SimError> {
        let p_cell = backend.p_cell();
        if !(0.0..=1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(SimError::InvalidParameter {
                reason: format!(
                    "backend '{}' reports cell failure probability {p_cell} outside [0, 1]",
                    backend.name()
                ),
            });
        }
        Ok(Self {
            backend,
            samples_per_count: 100,
            max_failures: None,
            exact_failures: None,
            chunk_size: 32,
            parallelism: Parallelism::default(),
            map_policy: MapPolicy::default(),
            image: ImageSpec::Zeros,
            kernel: KernelKind::default(),
        })
    }

    /// Sets the number of fault maps drawn per failure count.
    #[must_use]
    pub fn with_samples_per_count(mut self, samples: usize) -> Self {
        self.samples_per_count = samples.max(1);
        self
    }

    /// Caps the largest simulated failure count.
    #[must_use]
    pub fn with_max_failures(mut self, max_failures: u64) -> Self {
        self.max_failures = Some(max_failures);
        self
    }

    /// Simulates a single fixed failure count instead of the binomial sweep
    /// (used by ablations that operate at explicit fault densities). Every
    /// sample then carries weight `1 / samples_per_count`.
    #[must_use]
    pub fn with_exact_failures(mut self, failures: u64) -> Self {
        self.exact_failures = Some(failures);
        self
    }

    /// Sets the number of samples per work chunk.
    ///
    /// The chunk size trades scheduling overhead against load balance; it
    /// does **not** affect results (chunks merge in order).
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Sets the worker-thread policy.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the fault-map filtering policy.
    #[must_use]
    pub fn with_map_policy(mut self, map_policy: MapPolicy) -> Self {
        self.map_policy = map_policy;
        self
    }

    /// Declares the data image the campaign's metric is evaluated against
    /// (default: [`ImageSpec::Zeros`], the paper's all-zeros background).
    ///
    /// The campaign core hands every evaluator the raw fault map regardless
    /// of the image — data-awareness belongs to the metric — but recording
    /// the image here makes it part of the campaign's identity, so
    /// data-aware evaluator layers (the MSE engine of `faultmit-analysis`,
    /// which applies faults relative to the stored word) and campaign
    /// reports read one authoritative value.
    #[must_use]
    pub fn with_image(mut self, image: ImageSpec) -> Self {
        self.image = image;
        self
    }

    /// Selects the evaluation kernel a kernel-dispatching layer (the MSE
    /// engine of `faultmit-analysis`) runs the campaign with (default:
    /// [`KernelKind::Sparse`]). Every kernel accumulates bit-identical
    /// results; the choice only trades throughput.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// The configured evaluation kernel.
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The data image the campaign's metric is declared against.
    #[must_use]
    pub fn image(&self) -> ImageSpec {
        self.image
    }

    /// The fault-generating backend under study.
    #[must_use]
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The backend's operating point (the technology knob the campaign is
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

    /// The configured worker-thread policy.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The configured fault-map policy.
    #[must_use]
    pub fn map_policy(&self) -> MapPolicy {
        self.map_policy
    }

    /// The failure-count distribution implied by the configuration.
    ///
    /// # Errors
    ///
    /// Propagates invalid-probability errors (none occur for a validated
    /// configuration).
    pub fn failure_distribution(&self) -> Result<FailureCountDistribution, SimError> {
        Ok(self.backend.failure_distribution()?)
    }

    /// The largest failure count that will be simulated: the override of
    /// [`CampaignConfig::with_max_failures`], or else the paper's `N_max`
    /// covering 99 % of the failure-count distribution.
    ///
    /// # Errors
    ///
    /// Propagates errors from building the failure distribution.
    pub fn effective_max_failures(&self) -> Result<u64, SimError> {
        match self.max_failures {
            Some(n) => Ok(n),
            None => Ok(self.failure_distribution()?.n_max(N_MAX_COVERAGE)),
        }
    }
}

/// The parallel fault-injection campaign engine.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates an engine for the given configuration.
    #[must_use]
    pub fn new(config: CampaignConfig) -> Self {
        Self { config }
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The global sample-index range the given shard evaluates.
    ///
    /// Shard ranges are disjoint and tile `0..total samples` in shard
    /// order; an empty range means the shard has no work (more shards than
    /// chunks).
    ///
    /// # Errors
    ///
    /// Propagates errors from building the failure distribution.
    pub fn shard_sample_range(&self, shard: ShardSpec) -> Result<Range<u64>, SimError> {
        let plan_len = self.plan_len()?;
        let chunks = shard.chunk_range(plan_len.div_ceil(self.config.chunk_size));
        let start = (chunks.start * self.config.chunk_size).min(plan_len);
        let end = (chunks.end * self.config.chunk_size).min(plan_len);
        Ok(start as u64..end as u64)
    }

    fn plan_len(&self) -> Result<usize, SimError> {
        Ok(match self.config.exact_failures {
            Some(_) => self.config.samples_per_count,
            None => self.config.effective_max_failures()? as usize * self.config.samples_per_count,
        })
    }

    /// The global work list and the per-failure-count sample weights, built
    /// inside the plan span: `samples_per_count` samples at the exact
    /// failure count (weight `1 / samples_per_count` each), or at every
    /// count `1..=N_max` weighted `Pr(N = n) / samples_per_count`. Every
    /// shard of every kernel builds the identical plan.
    fn plan_and_weights(&self) -> Result<(Vec<PlannedSample>, Vec<f64>), SimError> {
        let _plan_span = obs::span(obs::Stage::Plan);
        let distribution = self.config.failure_distribution()?;
        let samples_per_count = self.config.samples_per_count;
        Ok(match self.config.exact_failures {
            Some(n) => {
                let plan: Vec<PlannedSample> = (0..samples_per_count as u64)
                    .map(|k| PlannedSample {
                        index: k,
                        n_faults: n,
                    })
                    .collect();
                let mut weights = vec![0.0; n as usize + 1];
                weights[n as usize] = 1.0 / samples_per_count as f64;
                (plan, weights)
            }
            None => {
                let max_failures = self.config.effective_max_failures()?;
                let plan = build_plan(max_failures, samples_per_count);
                let weights = (0..=max_failures)
                    .map(|n| distribution.pmf(n) / samples_per_count as f64)
                    .collect();
                (plan, weights)
            }
        })
    }

    /// Runs one shard of the campaign: only the chunks of
    /// [`ShardSpec::chunk_range`] are generated and evaluated, but chunk
    /// boundaries and per-sample RNG streams are computed from the *global*
    /// plan, so the shards' [`ShardSamples`] taken in shard order are
    /// **bit-identical** to the monolithic ([`ShardSpec::solo`]) run's —
    /// dies, weights and metrics — for every backend and any worker count.
    ///
    /// `evaluate(fault_map, metrics)` is called once per die and must write
    /// `metrics[s]`, the metric of `schemes[s]` on that die, for every
    /// scheme — every scheme sees the identical die, and an evaluator may
    /// score the whole catalogue in one pass over the map. A per-scheme
    /// metric loops over `schemes` inside the closure; an infallible one
    /// returns `Ok::<(), Infallible>(())`.
    ///
    /// Chunks do not accumulate: each returns its dies' metrics as one flat
    /// buffer in plan order, and the shard returns the buffers as they are,
    /// with its planned dies and the per-count weights, for the caller to
    /// fold (a zero-scheme campaign still lists every die).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Sim`] for pipeline errors and [`RunError::Eval`]
    /// with the first evaluator error in deterministic (chunk-order)
    /// position within the shard.
    pub fn run_shard<F, E>(
        &self,
        schemes: &[Scheme],
        seed: u64,
        shard: ShardSpec,
        evaluate: F,
    ) -> Result<(ShardSamples, ShardStats), RunError<E>>
    where
        F: Fn(&FaultMap, &mut [f64]) -> Result<(), E> + Sync,
        E: Send,
    {
        self.run_chunks(
            schemes,
            seed,
            shard,
            evaluate,
            None::<fn(&Scheme, &DieBlock<'_>, &mut [f64])>,
        )
    }

    /// Runs one shard through the **bit-sliced** evaluation pipeline: each
    /// chunk's samples are grouped into transposed [`DieBlock`]s of up to
    /// [`BLOCK_DIES`] dies, and `evaluate_block(scheme, block, out)` fills
    /// `out[j]` with die `j`'s metric for all dies at once. Degenerate
    /// single-sample groups take the per-die `evaluate` of
    /// [`Campaign::run_shard`] instead, so any `(samples, chunk size,
    /// shard)` plan still works.
    ///
    /// Chunk boundaries, per-sample RNG streams, weights and die order are
    /// those of [`Campaign::run_shard`]; when the two evaluators agree per
    /// die, the samples are **bit-identical** to its at any worker count
    /// and shard split.
    ///
    /// # Errors
    ///
    /// Same contract as [`Campaign::run_shard`].
    pub fn run_shard_blocks<F, G, E>(
        &self,
        schemes: &[Scheme],
        seed: u64,
        shard: ShardSpec,
        evaluate: F,
        evaluate_block: G,
    ) -> Result<(ShardSamples, ShardStats), RunError<E>>
    where
        F: Fn(&FaultMap, &mut [f64]) -> Result<(), E> + Sync,
        G: Fn(&Scheme, &DieBlock<'_>, &mut [f64]) + Sync,
        E: Send,
    {
        self.run_chunks(schemes, seed, shard, evaluate, Some(evaluate_block))
    }

    /// The one body behind both runners: plan, seeding, chunk ownership,
    /// recorder propagation and per-stage timing. Without a block evaluator
    /// every die takes the per-die path.
    fn run_chunks<F, G, E>(
        &self,
        schemes: &[Scheme],
        seed: u64,
        shard: ShardSpec,
        evaluate: F,
        evaluate_block: Option<G>,
    ) -> Result<(ShardSamples, ShardStats), RunError<E>>
    where
        F: Fn(&FaultMap, &mut [f64]) -> Result<(), E> + Sync,
        G: Fn(&Scheme, &DieBlock<'_>, &mut [f64]) + Sync,
        E: Send,
    {
        // The calling thread's recorder (if any) is re-installed on every
        // worker so hot-path counters land in one place regardless of the
        // thread the chunk happens to run on.
        let recorder = obs::current();
        let (mut plan, weights) = self.plan_and_weights()?;

        let backend = &self.config.backend;
        let seeder = StreamSeeder::new(seed);
        let chunk_size = self.config.chunk_size;
        let chunk_count = plan.len().div_ceil(chunk_size);
        // Chunk boundaries come from the global plan; the shard only selects
        // which contiguous run of chunks to evaluate, so every chunk's
        // contents (and its samples' RNG streams) are identical whether the
        // campaign runs monolithically or split across processes.
        let owned_chunks = shard.chunk_range(chunk_count);
        let chunk_dies = |chunk_index: usize| {
            let start = chunk_index * chunk_size;
            &plan[start..(start + chunk_size).min(plan.len())]
        };
        let workers = self.config.parallelism.worker_count();
        let policy = self.config.map_policy;
        let scheme_count = schemes.len();
        let (group_width, block_len) = match evaluate_block {
            Some(_) => (BLOCK_DIES, scheme_count * BLOCK_DIES),
            None => (1, 0),
        };

        // Per-worker scratch: one warm arena (the per-die `DieScratch` plus
        // the block transposition buffers) and the per-scheme block output
        // matrix, both reused across every chunk the worker claims. Scratch
        // holds storage only — each chunk's result stays a pure function of
        // its index (evaluators overwrite every metric of every die), so
        // bit-identity at any worker count is unaffected.
        let chunk_results: Vec<Result<ChunkOutput, RunError<E>>> = run_chunked_with(
            owned_chunks.len(),
            workers,
            || {
                (
                    recorder.as_ref().map(obs::install),
                    BlockScratch::new(backend.config()),
                    vec![0.0f64; block_len],
                )
            },
            |(_recorder_guard, scratch, block_out), local_index| {
                let dies = chunk_dies(owned_chunks.start + local_index);
                // The chunk's metrics, die after die in plan order.
                let mut chunk_metrics = vec![0.0f64; dies.len() * scheme_count];
                // Stage time is accumulated locally and flushed once per
                // chunk: two clock reads per die, nothing cross-thread.
                let (mut generate, mut observe) = (0u64, 0u64);
                let mut mark = Instant::now();

                // The metrics of the chunk's `die`-th die.
                let slot = |die: usize| die * scheme_count..(die + 1) * scheme_count;
                let mut next_die = 0;
                for group in dies.chunks(group_width) {
                    match &evaluate_block {
                        Some(evaluate_block) if group.len() > 1 => {
                            let block = scratch
                                .generate_block(backend, &seeder, group, Some(policy))
                                .map_err(SimError::from)?;
                            generate += lap(&mut mark);
                            for (s, scheme) in schemes.iter().enumerate() {
                                evaluate_block(
                                    scheme,
                                    &block,
                                    &mut block_out[s * BLOCK_DIES..(s + 1) * BLOCK_DIES],
                                );
                            }
                            for j in 0..group.len() {
                                let metrics = &mut chunk_metrics[slot(next_die + j)];
                                for (s, metric) in metrics.iter_mut().enumerate() {
                                    *metric = block_out[s * BLOCK_DIES + j];
                                }
                            }
                            next_die += group.len();
                            observe += lap(&mut mark);
                        }
                        // The per-die path; on the block pipeline, the tail
                        // for a lone sample, cheaper than a transposition.
                        _ => {
                            for planned in group {
                                let mut rng = seeder.rng_for_sample(planned.index);
                                let map = scratch
                                    .scalar_mut()
                                    .generate_with_policy(
                                        backend,
                                        &mut rng,
                                        planned.n_faults as usize,
                                        policy,
                                    )
                                    .map_err(SimError::from)?;
                                generate += lap(&mut mark);
                                evaluate(map, &mut chunk_metrics[slot(next_die)])
                                    .map_err(RunError::Eval)?;
                                next_die += 1;
                                observe += lap(&mut mark);
                            }
                        }
                    }
                }

                let evaluated = dies.len() as u64;
                let mut arena = obs::MetricsArena::new();
                arena.count(obs::Counter::ChunksExecuted, 1);
                arena.count(obs::Counter::SamplesEvaluated, evaluated);
                arena.add_stage(obs::Stage::Generate, generate, evaluated);
                arena.add_stage(obs::Stage::Observe, observe, evaluated);
                arena.flush();
                Ok(ChunkOutput {
                    metrics: chunk_metrics,
                    generate_nanos: generate,
                })
            },
        );

        let mut generate_nanos = 0u64;
        let mut chunks = Vec::with_capacity(chunk_results.len());
        for result in chunk_results {
            let chunk = result?;
            generate_nanos += chunk.generate_nanos;
            chunks.push(chunk.metrics);
        }
        // The shard's own dies: its chunks' contiguous run of the plan.
        let end = (owned_chunks.end * chunk_size).min(plan.len());
        plan.truncate(end);
        plan.drain(..(owned_chunks.start * chunk_size).min(end));
        let samples = ShardSamples {
            scheme_count,
            dies: plan,
            weights,
            chunks,
        };
        let stats = ShardStats {
            // The same integer nanoseconds and the same conversion as
            // `MetricsSnapshot::stage_seconds`.
            generation_seconds: generate_nanos as f64 / 1e9,
        };
        Ok((samples, stats))
    }
}

/// What one chunk hands back to the shard.
struct ChunkOutput {
    /// The chunk's dies' metrics, die after die in plan order, one per
    /// scheme.
    metrics: Vec<f64>,
    /// Nanoseconds the chunk spent generating its dies.
    generate_nanos: u64,
}

/// Nanoseconds since `mark`, moving the mark to now: one clock read per
/// stage boundary.
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let nanos = u64::try_from(now.duration_since(*mark).as_nanos()).unwrap_or(u64::MAX);
    *mark = now;
    nanos
}

/// The campaign's work list: `samples_per_count` samples for every failure
/// count `1..=max_failures`, with globally unique, dense sample indices.
fn build_plan(max_failures: u64, samples_per_count: usize) -> Vec<PlannedSample> {
    let mut plan = Vec::with_capacity(max_failures as usize * samples_per_count);
    for n in 1..=max_failures {
        for k in 0..samples_per_count as u64 {
            plan.push(PlannedSample {
                index: (n - 1) * samples_per_count as u64 + k,
                n_faults: n,
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shard runs with their chunk buffers joined and, for several shards,
    /// their dies and metrics concatenated in shard order: the view that
    /// holds across chunk sizes and shard splits.
    #[derive(Debug, PartialEq)]
    struct Joined {
        dies: Vec<PlannedSample>,
        weights: Vec<f64>,
        metrics: Vec<f64>,
    }

    impl Joined {
        fn of(runs: impl IntoIterator<Item = ShardSamples>) -> Self {
            let mut joined = Joined {
                dies: Vec::new(),
                weights: Vec::new(),
                metrics: Vec::new(),
            };
            for run in runs {
                joined.dies.extend(run.dies);
                joined.weights = run.weights;
                joined.metrics.extend(run.chunks.concat());
            }
            joined
        }

        /// The dies with their metrics, `width` per die.
        fn rows(&self, width: usize) -> impl Iterator<Item = (&PlannedSample, &[f64])> {
            self.dies.iter().zip(self.metrics.chunks(width))
        }

        fn weight(&self, die: &PlannedSample) -> f64 {
            self.weights[die.n_faults as usize]
        }
    }

    /// Test-side shorthand for running infallible evaluators.
    trait Samples {
        fn samples(
            &self,
            schemes: &[Scheme],
            seed: u64,
            shard: ShardSpec,
            evaluate: impl Fn(&FaultMap, &mut [f64]) + Sync,
        ) -> ShardSamples;

        fn solo(
            &self,
            schemes: &[Scheme],
            seed: u64,
            evaluate: impl Fn(&FaultMap, &mut [f64]) + Sync,
        ) -> Joined {
            Joined::of([self.samples(schemes, seed, ShardSpec::solo(), evaluate)])
        }
    }

    impl Samples for Campaign {
        fn samples(
            &self,
            schemes: &[Scheme],
            seed: u64,
            shard: ShardSpec,
            evaluate: impl Fn(&FaultMap, &mut [f64]) + Sync,
        ) -> ShardSamples {
            let evaluate = |map: &FaultMap, metrics: &mut [f64]| {
                evaluate(map, metrics);
                Ok::<(), std::convert::Infallible>(())
            };
            self.run_shard(schemes, seed, shard, evaluate).unwrap().0
        }
    }

    fn config() -> CampaignConfig {
        CampaignConfig::new(MemoryConfig::new(128, 32).unwrap(), 1e-3)
            .unwrap()
            .with_samples_per_count(10)
            .with_max_failures(6)
            .with_chunk_size(4)
    }

    #[test]
    fn config_validation() {
        assert!(CampaignConfig::new(MemoryConfig::new(16, 32).unwrap(), -0.1).is_err());
        assert!(CampaignConfig::new(MemoryConfig::new(16, 32).unwrap(), 1.5).is_err());
        assert!(CampaignConfig::new(MemoryConfig::new(16, 32).unwrap(), f64::NAN).is_err());
    }

    #[test]
    fn image_spec_rides_in_the_config_identity() {
        use faultmit_memsim::ImageSpec;
        let base = config();
        assert_eq!(base.image(), ImageSpec::Zeros);
        let imaged = base.with_image(ImageSpec::UniformRandom { seed: 5 });
        assert_eq!(imaged.image(), ImageSpec::UniformRandom { seed: 5 });
        assert_ne!(base, imaged, "the image is part of the campaign identity");
    }

    #[test]
    fn plan_indices_are_dense_and_unique() {
        let plan = build_plan(5, 7);
        assert_eq!(plan.len(), 35);
        for (i, sample) in plan.iter().enumerate() {
            assert_eq!(sample.index, i as u64);
            assert_eq!(sample.n_faults, 1 + i as u64 / 7);
        }
    }

    #[test]
    fn paired_metrics_line_up_with_schemes() {
        let campaign = Campaign::new(config());
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let result = campaign.solo(&schemes, 1, |map, metrics| {
            for (metric, scheme) in metrics.iter_mut().zip(&schemes) {
                *metric = map.fault_count() as f64 + scheme.extra_bits_per_row() as f64;
            }
        });
        assert_eq!(result.dies.len(), 60);
        assert_eq!(result.metrics.len(), 120);
        for (die, metrics) in result.rows(2) {
            // Same die for both schemes: the metrics differ exactly by the
            // extra-bits term, proving the map is shared.
            assert_eq!(metrics[1] - metrics[0], 7.0);
            assert_eq!(metrics[0], die.n_faults as f64);
        }
    }

    #[test]
    fn samples_arrive_in_global_sample_order() {
        let campaign = Campaign::new(config().with_parallelism(Parallelism::threads(4)));
        let result = campaign.samples(
            &[Scheme::unprotected32()],
            2,
            ShardSpec::solo(),
            |map, metrics| metrics.fill(map.fault_count() as f64),
        );
        let indices: Vec<u64> = result.dies.iter().map(|die| die.index).collect();
        assert_eq!(indices, (0..60).collect::<Vec<u64>>());
        // Chunks of 4 dies, one metric each, not joined.
        assert_eq!(result.chunks.len(), 15);
        assert!(result.chunks.iter().all(|chunk| chunk.len() == 4));
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        let serial = Campaign::new(config().with_parallelism(Parallelism::Serial));
        let parallel = Campaign::new(config().with_parallelism(Parallelism::threads(8)));
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        let evaluate = |map: &FaultMap, metrics: &mut [f64]| {
            for (metric, scheme) in metrics.iter_mut().zip(&schemes) {
                *metric = map.fault_count() as f64 * scheme.word_bits() as f64;
            }
        };
        let a = serial.solo(&schemes, 7, evaluate);
        let b = parallel.solo(&schemes, 7, evaluate);
        assert_eq!(a, b);
    }

    #[test]
    fn chunk_size_does_not_change_results() {
        // 10 samples per count: chunks of 3 and 7 straddle every stratum
        // boundary, and with 3 shards the shard boundaries fall inside
        // strata too.
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        let evaluate = |map: &FaultMap, metrics: &mut [f64]| {
            for (metric, scheme) in metrics.iter_mut().zip(&schemes) {
                *metric = map.fault_count() as f64 * scheme.word_bits() as f64;
            }
        };
        let reference = Campaign::new(config().with_chunk_size(1000)).solo(&schemes, 3, evaluate);
        for chunk_size in [1, 3, 7] {
            let campaign = Campaign::new(
                config()
                    .with_chunk_size(chunk_size)
                    .with_parallelism(Parallelism::threads(3)),
            );
            assert_eq!(
                campaign.solo(&schemes, 3, evaluate),
                reference,
                "chunks of {chunk_size}"
            );
            let merged = Joined::of(ShardSpec::all(3).map(|shard| {
                let range = campaign.shard_sample_range(shard).unwrap();
                if chunk_size == 7 && shard.shard_index() > 0 {
                    assert_ne!(range.start % 10, 0, "shard {shard} starts a stratum");
                }
                campaign.samples(&schemes, 3, shard, evaluate)
            }));
            assert_eq!(merged, reference, "chunks of {chunk_size}, 3 shards");
        }
    }

    #[test]
    fn zero_scheme_campaigns_list_every_planned_die() {
        for (chunk_size, workers) in [(4, 1), (7, 3)] {
            let campaign = Campaign::new(
                config()
                    .with_chunk_size(chunk_size)
                    .with_parallelism(Parallelism::threads(workers)),
            );
            let no_schemes: [Scheme; 0] = [];
            let result = campaign.samples(&no_schemes, 5, ShardSpec::solo(), |_, metrics| {
                assert!(metrics.is_empty());
            });
            assert_eq!(result.scheme_count, 0);
            assert_eq!(result.dies, build_plan(6, 10));
            assert_eq!(result.chunks.len(), 60usize.div_ceil(chunk_size));
            assert!(result.chunks.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn weights_follow_the_binomial_pmf() {
        let campaign = Campaign::new(config());
        let distribution = campaign.config().failure_distribution().unwrap();
        let result = campaign.solo(&[Scheme::unprotected32()], 5, |_, metrics| {
            metrics.fill(0.0)
        });
        assert_eq!(result.weights.len(), 7);
        for die in &result.dies {
            let expected = distribution.pmf(die.n_faults) / 10.0;
            assert!((result.weight(die) - expected).abs() <= 1e-18 + expected * 1e-12);
        }
    }

    #[test]
    fn single_fault_per_row_policy_is_applied() {
        let campaign = Campaign::new(config().with_map_policy(MapPolicy::SingleFaultPerRow));
        let result = campaign.solo(&[Scheme::secded32()], 11, |map, metrics| {
            // Under the policy SECDED corrects every die.
            metrics[0] = Scheme::secded32().observe(map, 0, 0).value as f64;
        });
        assert!(!result.dies.is_empty());
    }

    #[test]
    fn exact_failure_count_mode_samples_one_count() {
        let campaign = Campaign::new(config().with_exact_failures(5));
        let result = campaign.solo(&[Scheme::unprotected32()], 9, |map, metrics| {
            metrics.fill(map.fault_count() as f64)
        });
        assert_eq!(result.dies.len(), 10);
        assert_eq!(result.weights, [0.0, 0.0, 0.0, 0.0, 0.0, 0.1]);
        for (die, metrics) in result.rows(1) {
            assert_eq!(die.n_faults, 5);
            assert_eq!(metrics[0], 5.0);
        }
    }

    #[test]
    fn evaluator_errors_surface_deterministically() {
        let campaign = Campaign::new(config().with_parallelism(Parallelism::threads(4)));
        let result = campaign.run_shard(
            &[Scheme::unprotected32()],
            1,
            ShardSpec::solo(),
            |map, metrics| {
                if map.fault_count() >= 3 {
                    Err("too many faults")
                } else {
                    metrics.fill(0.0);
                    Ok(())
                }
            },
        );
        assert_eq!(result.unwrap_err(), RunError::Eval("too many faults"));
    }

    #[test]
    fn effective_max_failures_uses_coverage_or_override() {
        let auto = CampaignConfig::new(MemoryConfig::new(4096, 32).unwrap(), 1e-3).unwrap();
        let n_auto = auto.effective_max_failures().unwrap();
        assert!(n_auto > 131, "n_max must exceed the mean failure count");
        assert_eq!(
            auto.with_max_failures(20).effective_max_failures().unwrap(),
            20
        );
    }

    #[test]
    fn sram_shorthand_is_bit_identical_to_the_sram_backend_path() {
        let memory = MemoryConfig::new(128, 32).unwrap();
        let legacy = Campaign::new(
            CampaignConfig::new(memory, 1e-3)
                .unwrap()
                .with_samples_per_count(10)
                .with_max_failures(6),
        );
        let explicit = Campaign::new(
            CampaignConfig::for_backend(Backend::Sram(
                SramVddBackend::with_p_cell(memory, 1e-3).unwrap(),
            ))
            .unwrap()
            .with_samples_per_count(10)
            .with_max_failures(6),
        );
        let schemes = [Scheme::unprotected32()];
        let evaluate = |map: &FaultMap, metrics: &mut [f64]| metrics.fill(map.fault_count() as f64);
        let a = legacy.solo(&schemes, 31, evaluate);
        let b = explicit.solo(&schemes, 31, evaluate);
        assert_eq!(a, b);
    }

    #[test]
    fn campaigns_run_identically_on_every_backend_at_any_worker_count() {
        use faultmit_memsim::BackendKind;
        let memory = MemoryConfig::new(128, 32).unwrap();
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        let evaluate = |map: &FaultMap, metrics: &mut [f64]| metrics.fill(map.fault_count() as f64);
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
            let base = CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(8)
                .with_max_failures(5)
                .with_chunk_size(3);
            let serial = Campaign::new(base.with_parallelism(Parallelism::Serial))
                .solo(&schemes, 13, evaluate);
            let threaded = Campaign::new(base.with_parallelism(Parallelism::threads(4)))
                .solo(&schemes, 13, evaluate);
            assert_eq!(serial, threaded, "{kind} diverges across worker counts");
            assert_eq!(serial.dies.len(), 40, "{kind}");
        }
    }

    #[test]
    fn shard_spec_validates_and_parses() {
        assert!(ShardSpec::new(0, 0).is_err());
        assert!(ShardSpec::new(3, 3).is_err());
        let spec = ShardSpec::new(1, 4).unwrap();
        assert_eq!(spec.shard_index(), 1);
        assert_eq!(spec.shard_count(), 4);
        assert!(!spec.is_solo());
        assert!(ShardSpec::solo().is_solo());
        assert_eq!(spec.to_string(), "1/4");
        assert_eq!("1/4".parse::<ShardSpec>().unwrap(), spec);
        assert_eq!("0/1".parse::<ShardSpec>().unwrap(), ShardSpec::solo());
        assert_eq!(
            ShardSpec::all(3).collect::<Vec<_>>(),
            vec![
                ShardSpec::new(0, 3).unwrap(),
                ShardSpec::new(1, 3).unwrap(),
                ShardSpec::new(2, 3).unwrap(),
            ]
        );
        assert_eq!(ShardSpec::all(0).count(), 0);
        assert!("4/4".parse::<ShardSpec>().is_err());
        assert!("1".parse::<ShardSpec>().is_err());
        assert!("a/b".parse::<ShardSpec>().is_err());
        assert!("1/0".parse::<ShardSpec>().is_err());
    }

    #[test]
    fn shard_chunk_ranges_tile_the_chunk_space() {
        for chunk_count in [0usize, 1, 2, 5, 16, 37] {
            for shard_count in [1usize, 2, 3, 7, 40] {
                let mut next = 0;
                for index in 0..shard_count {
                    let range = ShardSpec::new(index, shard_count)
                        .unwrap()
                        .chunk_range(chunk_count);
                    assert_eq!(
                        range.start, next,
                        "{chunk_count} chunks, {shard_count} shards"
                    );
                    next = range.end;
                }
                assert_eq!(next, chunk_count);
            }
        }
        // The most shards a spec can name: shard `i` of `K` still starts at
        // `floor(i·c/K)`. With `K = 2^64 − 1`, `i·c/K` is `c/K` at `i = 1`,
        // `c/2 ∓ c/2K` at `i = K/2 = 2^63 − 1` and `i + 1 = 2^63`, and
        // `c − c/K` at `i = K − 1`, so for `0 < c < K` the floors are 0,
        // `⌈c/2⌉ − 1`, `⌊c/2⌋` and `c − 1`; for `c = K` each is `i`.
        #[cfg(target_pointer_width = "64")]
        {
            let k = usize::MAX;
            let range =
                |index: usize, chunks: usize| ShardSpec::new(index, k).unwrap().chunk_range(chunks);
            for c in [1usize, 2, 3, 5, 37, 1 << 40, usize::MAX - 1] {
                assert_eq!(range(0, c), 0..0, "{c} chunks");
                assert_eq!(range(k / 2, c), c.div_ceil(2) - 1..c / 2, "{c} chunks");
                assert_eq!(range(k - 1, c), c - 1..c, "{c} chunks");
            }
            assert_eq!(range(0, 0), 0..0);
            assert_eq!(range(k - 1, 0), 0..0);
            assert_eq!(range(0, k), 0..1);
            assert_eq!(range(k / 2, k), k / 2..k / 2 + 1);
            assert_eq!(range(k - 1, k), k - 1..k);
        }
    }

    #[test]
    fn sharded_runs_merged_in_order_match_the_monolithic_run() {
        let campaign = Campaign::new(config().with_parallelism(Parallelism::threads(4)));
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        let evaluate = |map: &FaultMap, metrics: &mut [f64]| {
            for (metric, scheme) in metrics.iter_mut().zip(&schemes) {
                *metric = map.fault_count() as f64 * scheme.word_bits() as f64;
            }
        };
        let monolithic = campaign.solo(&schemes, 19, evaluate);
        for shard_count in [1usize, 2, 3, 7, 64] {
            let merged = Joined::of(
                ShardSpec::all(shard_count)
                    .map(|shard| campaign.samples(&schemes, 19, shard, evaluate)),
            );
            assert_eq!(merged, monolithic, "{shard_count} shards diverge");
        }
    }

    #[test]
    fn shard_sample_ranges_are_disjoint_and_complete() {
        let campaign = Campaign::new(config());
        let total = campaign.shard_sample_range(ShardSpec::solo()).unwrap();
        assert_eq!(total, 0..60);
        for shard_count in [2usize, 3, 7, 100] {
            let mut next = 0;
            for index in 0..shard_count {
                let range = campaign
                    .shard_sample_range(ShardSpec::new(index, shard_count).unwrap())
                    .unwrap();
                assert_eq!(range.start, next, "{shard_count} shards");
                next = range.end;
            }
            assert_eq!(next, 60);
        }
    }

    #[test]
    fn exact_failure_campaigns_shard_identically() {
        let campaign = Campaign::new(config().with_exact_failures(4));
        let schemes = [Scheme::unprotected32()];
        let evaluate = |map: &FaultMap, metrics: &mut [f64]| metrics.fill(map.fault_count() as f64);
        let monolithic = campaign.solo(&schemes, 5, evaluate);
        let merged = Joined::of(
            ShardSpec::all(3).map(|shard| campaign.samples(&schemes, 5, shard, evaluate)),
        );
        assert_eq!(merged, monolithic);
    }

    #[test]
    fn kernel_kind_parses_and_displays() {
        assert_eq!(KernelKind::ALL.len(), 2);
        for kernel in KernelKind::ALL {
            assert_eq!(kernel.as_str().parse::<KernelKind>().unwrap(), kernel);
            assert_eq!(kernel.to_string(), kernel.as_str());
        }
        assert_eq!(KernelKind::default(), KernelKind::Sparse);
        // Unknown names and the names of removed kernels all fail, naming
        // the input and listing the valid set; a removed kernel is never
        // remapped to a surviving one.
        for name in ["simd", "scalar", "bitsliced256", "auto"] {
            let error = name.parse::<KernelKind>().unwrap_err().to_string();
            assert!(
                error.contains(&format!("'{name}'"))
                    && error.contains("(expected sparse|bitsliced)"),
                "the kernel error must name the input and list the valid set: {error}"
            );
        }
        for removed in ["scalar", "bitsliced256", "auto"] {
            let error = removed.parse::<KernelKind>().unwrap_err().to_string();
            assert!(error.contains("removed"), "{error}");
        }
    }

    #[test]
    fn block_scheduling_matches_the_per_sample_pipeline() {
        // A per-die metric computable from both representations: the die's
        // fault count. The block path must reproduce the per-sample path's
        // samples exactly — indices, weights, metric values, order — for
        // non-multiple-of-block-width plans, any shard split and both map
        // policies.
        use faultmit_memsim::{for_each_die, BackendKind};
        let count_block = |_: &Scheme, block: &DieBlock<'_>, out: &mut [f64]| {
            out[..block.die_count()].fill(0.0);
            for row in block.rows() {
                for cell in row.cells {
                    for_each_die(cell.presence(), |die| out[die] += 1.0);
                }
            }
        };
        let count_sample = |map: &FaultMap, metrics: &mut [f64]| {
            metrics.fill(map.fault_count() as f64);
            Ok::<(), std::convert::Infallible>(())
        };
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        for kind in [BackendKind::Sram, BackendKind::Dram] {
            for policy in [MapPolicy::Unrestricted, MapPolicy::SingleFaultPerRow] {
                let backend =
                    Backend::at_p_cell(kind, MemoryConfig::new(128, 32).unwrap(), 1e-3).unwrap();
                // 7 samples per count × 13 counts = 91 samples: chunks of
                // 70 split into one 64-die block plus a 6-die block, and
                // the last chunk leaves a 21-die block.
                let base = CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(7)
                    .with_max_failures(13)
                    .with_chunk_size(70)
                    .with_map_policy(policy);
                let campaign = Campaign::new(base);
                let reference = campaign.solo(&schemes, 23, |map, metrics| {
                    metrics.fill(map.fault_count() as f64)
                });
                for shard_count in [1usize, 3] {
                    let merged = Joined::of(ShardSpec::all(shard_count).map(|shard| {
                        campaign
                            .run_shard_blocks(&schemes, 23, shard, count_sample, count_block)
                            .unwrap()
                            .0
                    }));
                    assert_eq!(merged, reference, "{kind} {policy:?} {shard_count} shards");
                }
            }
        }
    }

    #[test]
    fn block_scheduling_takes_the_scalar_tail_for_lone_samples() {
        // chunk_size 1 forces every group down the scalar tail; results
        // must still match.
        let campaign = Campaign::new(config().with_chunk_size(1));
        let schemes = [Scheme::unprotected32()];
        let count = |map: &FaultMap, metrics: &mut [f64]| metrics.fill(map.fault_count() as f64);
        let reference = campaign.samples(&schemes, 3, ShardSpec::solo(), count);
        let blocks = campaign
            .run_shard_blocks(
                &schemes,
                3,
                ShardSpec::solo(),
                |map, metrics| {
                    count(map, metrics);
                    Ok::<(), std::convert::Infallible>(())
                },
                |_, _, _| panic!("single-sample groups must use the scalar tail"),
            )
            .unwrap()
            .0;
        assert_eq!(blocks, reference);
    }

    #[test]
    fn generation_seconds_are_the_recorded_generate_stage() {
        // One clock: the stats report exactly the nanoseconds the chunks
        // flush to the Generate stage, for both runners at any worker
        // count.
        use std::sync::Arc;
        let schemes = [Scheme::unprotected32()];
        let count = |map: &FaultMap, metrics: &mut [f64]| {
            metrics.fill(map.fault_count() as f64);
            Ok::<(), std::convert::Infallible>(())
        };
        let count_block = |_: &Scheme, block: &DieBlock<'_>, out: &mut [f64]| {
            out[..block.die_count()].fill(0.0);
        };
        for workers in [1usize, 4] {
            let campaign = Campaign::new(
                config()
                    .with_chunk_size(20)
                    .with_parallelism(Parallelism::threads(workers)),
            );
            for blocks in [false, true] {
                let recorder = Arc::new(obs::Recorder::new());
                let stats = {
                    let _guard = obs::install(&recorder);
                    if blocks {
                        campaign
                            .run_shard_blocks(&schemes, 4, ShardSpec::solo(), count, count_block)
                            .unwrap()
                            .1
                    } else {
                        campaign
                            .run_shard(&schemes, 4, ShardSpec::solo(), count)
                            .unwrap()
                            .1
                    }
                };
                let recorded = recorder.snapshot();
                assert!(stats.generation_seconds > 0.0, "{workers} workers");
                assert_eq!(
                    stats.generation_seconds.to_bits(),
                    recorded.stage_seconds(obs::Stage::Generate).to_bits(),
                    "{workers} workers, blocks {blocks}"
                );
            }
        }
    }

    #[test]
    fn single_fault_per_row_policy_works_for_structured_backends() {
        use faultmit_memsim::DramRetentionBackend;
        // Clustered placement collides often, and so do 4 iid faults in a
        // 32-row array; the redraw budget must still deliver single-fault
        // rows for these low counts.
        let dram = DramRetentionBackend::new(MemoryConfig::new(64, 32).unwrap(), 64.0, 45.0);
        let sram = SramVddBackend::with_p_cell(MemoryConfig::new(32, 32).unwrap(), 1e-3);
        for (backend, samples) in [
            (Backend::Dram(dram.unwrap()), 6),
            (Backend::Sram(sram.unwrap()), 20),
        ] {
            let campaign = Campaign::new(
                CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(samples)
                    .with_max_failures(4)
                    .with_map_policy(MapPolicy::SingleFaultPerRow),
            );
            let result = campaign.solo(&[Scheme::unprotected32()], 3, |map, metrics| {
                metrics.fill(map.max_faults_per_row() as f64)
            });
            for (die, metrics) in result.rows(1) {
                assert!(
                    metrics[0] <= 1.0,
                    "{}: sample {} kept a multi-fault row",
                    backend.name(),
                    die.index
                );
            }
        }
    }
}
