//! # faultmit-obs — allocation-free campaign observability
//!
//! A vendored-style metrics layer for the Monte-Carlo pipeline: typed
//! [`Counter`]s, fixed-bucket [`Histogram`]s and wall-clock [`Stage`] spans,
//! recorded into a [`Recorder`] and read back as immutable
//! [`MetricsSnapshot`]s. The layer is deliberately tiny — plain `u64`
//! arithmetic on fixed-size arrays, no heap allocation on any recording
//! path — so it can sit inside the hottest loops of the engine (per-die
//! generation, per-row observation) without perturbing the throughput it
//! measures.
//!
//! # Recording model
//!
//! A campaign entry point creates one shared [`Recorder`] and makes it the
//! *current* recorder with [`install`]; the guard restores the previous
//! recorder on drop. Instrumented library code never sees the recorder — it
//! calls the free functions [`count`], [`record`] and [`span`], which resolve
//! the current recorder through thread-local storage and are no-ops (a TLS
//! load and a branch) when none is installed. Worker threads spawned by the
//! pipeline executor re-[`install`] the spawning campaign's recorder, so one
//! recorder observes the whole fan-out.
//!
//! Hot loops that cannot afford one TLS resolution per event accumulate into
//! a chunk-local [`MetricsArena`] — a plain struct of `u64`s that lives in
//! the worker's scratch — and [`MetricsArena::flush`] once per chunk. Chunks
//! are the same unit the pipeline's result merge uses, so arena flushes
//! follow the exact parallel structure of the results themselves.
//!
//! # Determinism contract
//!
//! Counter totals are sums of per-event `u64` increments, and every
//! increment is a function of the campaign's deterministic per-sample
//! schedule — never of thread scheduling. Addition of unsigned integers is
//! associative and commutative, so the totals in a snapshot are
//! **bit-identical at any worker count and any shard split**, the same
//! contract the campaign results obey. Two recorded quantities are excluded
//! from that contract and live in the snapshot's *host* section instead:
//!
//! * [`Counter::ReallocEvents`] — each worker warms its own scratch arena,
//!   so the total grows with the worker count;
//! * stage spans — wall-clock time is a property of the host, not of the
//!   campaign.
//!
//! [`MetricsSnapshot::deterministic_counters`] returns exactly the portion
//! the bit-identity gate in `tests/determinism.rs` pins.
//!
//! # Worked example: adding a counter
//!
//! Suppose the DRAM backend grows a row-cluster cache and you want a hit
//! counter. Three steps, all in this workspace:
//!
//! 1. Add a `ClusterCacheHits` variant to [`Counter`], a `"cluster_cache_hits"`
//!    arm to [`Counter::name`], and list it in [`Counter::ALL`]. If the count
//!    depends on worker-local state (like a per-worker cache), also return
//!    `false` from [`Counter::is_deterministic`] so the determinism gate
//!    skips it.
//! 2. At the hit site, call `faultmit_obs::count(Counter::ClusterCacheHits, 1)`
//!    — or, inside a chunk loop that already owns a [`MetricsArena`],
//!    `arena.count(Counter::ClusterCacheHits, 1)`.
//! 3. Done. The counter now appears in every `--metrics` JSON file, shard
//!    checkpoint and cross-shard aggregate under its [`Counter::name`] key —
//!    the serialisers iterate [`Counter::ALL`], so no other code changes.
//!
//! ```
//! use faultmit_obs::{count, install, Counter, Recorder, Stage};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(Recorder::new());
//! {
//!     let _guard = install(&recorder);
//!     let _span = faultmit_obs::span(Stage::Generate);
//!     count(Counter::DiesGenerated, 64);
//! }
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter(Counter::DiesGenerated), 64);
//! assert_eq!(snapshot.stage_calls(Stage::Generate), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A typed event counter. Every variant has a stable snake_case
/// [`name`](Counter::name) used as its key in metrics JSON documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Monte-Carlo dies generated (any kernel, any generation path).
    DiesGenerated,
    /// Faults placed across all generated dies.
    FaultsGenerated,
    /// Samples evaluated through a campaign kernel.
    SamplesEvaluated,
    /// Work chunks executed by the pipeline.
    ChunksExecuted,
    /// Die blocks transposed into lane-sliced form.
    BlocksTransposed,
    /// Campaign shard runs dispatched to the event-driven sparse kernel.
    DispatchSparse,
    /// Campaign shard runs dispatched to the bit-sliced kernel.
    DispatchBitsliced,
    /// Faulty block rows the bit-sliced kernel's catalogue walk visited:
    /// one per row of each transposed block, whatever the catalogue's size.
    ObserveBlockRows,
    /// Faulty block rows a scheme declined lane-parallel evaluation for.
    /// Nothing records it: the block walk declines no row. It stays because
    /// the benchmark harness under `perfbench/` reads it through
    /// [`MetricsSnapshot::observe_fallback_rate`] (vestigial until ROADMAP
    /// item 8).
    ObserveFallbackRows,
    /// The bit-sliced kernel's (die, row) pairs with two or more faults,
    /// whose faults the catalogue walk gathers from the row's lane cells
    /// for every scheme's row evaluator: one per pair, whatever the
    /// catalogue's size.
    ObserveFallbackDies,
    /// ECC reads of fault-free rows that took the `decode_clean` fast
    /// path.
    EccCleanDecodes,
    /// ECC reads of fault-bearing rows that ran the full decoder.
    EccFullDecodes,
    /// Generation calls that grew a scratch container (warm-up, or a
    /// steady-state regression). Per-worker, therefore host-dependent.
    ReallocEvents,
}

/// Number of [`Counter`] variants (the length of [`Counter::ALL`]).
pub const COUNTER_COUNT: usize = 13;

impl Counter {
    /// Every counter, in declaration (and serialisation) order.
    pub const ALL: [Self; COUNTER_COUNT] = [
        Self::DiesGenerated,
        Self::FaultsGenerated,
        Self::SamplesEvaluated,
        Self::ChunksExecuted,
        Self::BlocksTransposed,
        Self::DispatchSparse,
        Self::DispatchBitsliced,
        Self::ObserveBlockRows,
        Self::ObserveFallbackRows,
        Self::ObserveFallbackDies,
        Self::EccCleanDecodes,
        Self::EccFullDecodes,
        Self::ReallocEvents,
    ];

    /// The counter's stable snake_case JSON key.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::DiesGenerated => "dies_generated",
            Self::FaultsGenerated => "faults_generated",
            Self::SamplesEvaluated => "samples_evaluated",
            Self::ChunksExecuted => "chunks_executed",
            Self::BlocksTransposed => "blocks_transposed",
            Self::DispatchSparse => "dispatch_sparse",
            Self::DispatchBitsliced => "dispatch_bitsliced",
            Self::ObserveBlockRows => "observe_block_rows",
            Self::ObserveFallbackRows => "observe_fallback_rows",
            Self::ObserveFallbackDies => "observe_fallback_dies",
            Self::EccCleanDecodes => "ecc_clean_decodes",
            Self::EccFullDecodes => "ecc_full_decodes",
            Self::ReallocEvents => "realloc_events",
        }
    }

    /// Whether the counter's total is a pure function of the campaign's
    /// deterministic per-sample schedule. `false` for per-worker,
    /// host-dependent quantities, which the worker-count bit-identity gate
    /// must skip.
    #[must_use]
    pub const fn is_deterministic(self) -> bool {
        !matches!(self, Self::ReallocEvents)
    }
}

/// A fixed-bucket histogram. Buckets are powers of two:
/// bucket 0 counts zero-valued observations, bucket `i ≥ 1` counts values
/// in `[2^(i-1), 2^i)`, and the last bucket absorbs everything larger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Histogram {
    /// Fault count per generated die.
    FaultsPerDie,
}

/// Number of [`Histogram`] variants.
pub const HISTOGRAM_COUNT: usize = 1;
/// Buckets per histogram (log2-spaced; see [`Histogram`]).
pub const HISTOGRAM_BUCKETS: usize = 16;

impl Histogram {
    /// Every histogram, in declaration (and serialisation) order.
    pub const ALL: [Self; HISTOGRAM_COUNT] = [Self::FaultsPerDie];

    /// The histogram's stable snake_case JSON key.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::FaultsPerDie => "faults_per_die",
        }
    }

    /// The bucket index a value falls into.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }
}

/// A pipeline stage bracketed by wall-clock [`span`]s. Stage times are
/// host-dependent and live in the snapshot's non-deterministic section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Building the campaign's per-sample fault-count plan.
    Plan,
    /// Generating fault maps (per die, or per block for the bit-sliced
    /// kernel).
    Generate,
    /// Transposing generated events into lane-sliced die blocks.
    Transpose,
    /// Evaluating schemes against generated dies.
    Observe,
    /// Folding every evaluated die of a shard into its accumulator, in
    /// plan order, once the chunks are done (one call per die).
    Reduce,
    /// Merging chunk results. A shard's dies are folded into one
    /// accumulator ([`Stage::Reduce`]) instead of merging per-chunk ones,
    /// so nothing records this stage any more; it stays so that metrics
    /// reports and checkpoint snapshots keep their shape.
    Merge,
    /// Reading shard checkpoints back: file read, parse and the cross-shard
    /// merge in the `campaign_merge`/`campaign_run` drivers.
    Persist,
    /// Rendering merged results into the figure document and report
    /// (yield model, CDF grid, yield queries).
    Render,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Self; STAGE_COUNT] = [
        Self::Plan,
        Self::Generate,
        Self::Transpose,
        Self::Observe,
        Self::Reduce,
        Self::Merge,
        Self::Persist,
        Self::Render,
    ];

    /// The stage's stable snake_case JSON key.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Plan => "plan",
            Self::Generate => "generate",
            Self::Transpose => "transpose",
            Self::Observe => "observe",
            Self::Reduce => "reduce",
            Self::Merge => "merge",
            Self::Persist => "persist",
            Self::Render => "render",
        }
    }
}

/// The shared sink all instrumentation feeds: one atomic slot per counter,
/// histogram bucket and stage. Cheap to share across the pipeline's worker
/// threads (relaxed adds only — counter totals are order-independent).
#[derive(Debug, Default)]
pub struct Recorder {
    counters: [AtomicU64; COUNTER_COUNT],
    histograms: [[AtomicU64; HISTOGRAM_BUCKETS]; HISTOGRAM_COUNT],
    stage_nanos: [AtomicU64; STAGE_COUNT],
    stage_calls: [AtomicU64; STAGE_COUNT],
}

impl Recorder {
    /// Creates a zeroed recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&self, histogram: Histogram, value: u64) {
        self.histograms[histogram as usize][Histogram::bucket_of(value)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Adds accumulated wall-clock time (and a call count) to a stage.
    #[inline]
    pub fn add_stage(&self, stage: Stage, nanos: u64, calls: u64) {
        self.stage_nanos[stage as usize].fetch_add(nanos, Ordering::Relaxed);
        self.stage_calls[stage as usize].fetch_add(calls, Ordering::Relaxed);
    }

    /// An immutable copy of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            histograms: std::array::from_fn(|h| {
                std::array::from_fn(|b| self.histograms[h][b].load(Ordering::Relaxed))
            }),
            stage_nanos: std::array::from_fn(|i| self.stage_nanos[i].load(Ordering::Relaxed)),
            stage_calls: std::array::from_fn(|i| self.stage_calls[i].load(Ordering::Relaxed)),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Restores the previously installed recorder when dropped.
#[derive(Debug)]
pub struct InstallGuard {
    previous: Option<Arc<Recorder>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|cell| {
            *cell.borrow_mut() = self.previous.take();
        });
    }
}

/// Makes `recorder` the calling thread's current recorder until the
/// returned guard drops. Nesting is allowed; the guard restores the
/// previous recorder.
#[must_use]
pub fn install(recorder: &Arc<Recorder>) -> InstallGuard {
    CURRENT.with(|cell| InstallGuard {
        previous: cell.borrow_mut().replace(Arc::clone(recorder)),
    })
}

/// The calling thread's current recorder, if any. Pipeline executors use
/// this to propagate the campaign's recorder into their worker threads.
#[must_use]
pub fn current() -> Option<Arc<Recorder>> {
    CURRENT.with(|cell| cell.borrow().clone())
}

/// Adds `n` to `counter` on the current recorder (no-op when none is
/// installed).
#[inline]
pub fn count(counter: Counter, n: u64) {
    CURRENT.with(|cell| {
        if let Some(recorder) = cell.borrow().as_deref() {
            recorder.add(counter, n);
        }
    });
}

/// Records one histogram observation on the current recorder (no-op when
/// none is installed).
#[inline]
pub fn record(histogram: Histogram, value: u64) {
    CURRENT.with(|cell| {
        if let Some(recorder) = cell.borrow().as_deref() {
            recorder.observe(histogram, value);
        }
    });
}

/// Adds pre-accumulated stage time to the current recorder (no-op when none
/// is installed). For call sites that batch their own timing (one flush per
/// chunk instead of one [`span`] per event).
#[inline]
pub fn add_stage(stage: Stage, nanos: u64, calls: u64) {
    CURRENT.with(|cell| {
        if let Some(recorder) = cell.borrow().as_deref() {
            recorder.add_stage(stage, nanos, calls);
        }
    });
}

/// Times one stage execution: the guard measures from creation to drop.
/// When no recorder is installed the clock is never read.
#[must_use]
pub fn span(stage: Stage) -> SpanGuard {
    SpanGuard {
        active: current().map(|recorder| (recorder, Instant::now())),
        stage,
    }
}

/// Guard returned by [`span`]; records the elapsed wall-clock time into its
/// stage on drop.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(Arc<Recorder>, Instant)>,
    stage: Stage,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((recorder, start)) = self.active.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            recorder.add_stage(self.stage, nanos, 1);
        }
    }
}

/// A chunk-local, allocation-free accumulator for hot loops: plain `u64`
/// slots a worker increments without TLS resolution, flushed to the current
/// recorder once per chunk — the same granularity the pipeline merges
/// results at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsArena {
    counters: [u64; COUNTER_COUNT],
    histograms: [[u64; HISTOGRAM_BUCKETS]; HISTOGRAM_COUNT],
    stage_nanos: [u64; STAGE_COUNT],
    stage_calls: [u64; STAGE_COUNT],
}

impl MetricsArena {
    /// Creates a zeroed arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter slot.
    #[inline]
    pub fn count(&mut self, counter: Counter, n: u64) {
        self.counters[counter as usize] += n;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn record(&mut self, histogram: Histogram, value: u64) {
        self.histograms[histogram as usize][Histogram::bucket_of(value)] += 1;
    }

    /// Adds accumulated stage time.
    #[inline]
    pub fn add_stage(&mut self, stage: Stage, nanos: u64, calls: u64) {
        self.stage_nanos[stage as usize] += nanos;
        self.stage_calls[stage as usize] += calls;
    }

    /// Drains the arena into the current recorder (no-op without one) and
    /// zeroes it for the next chunk. Only non-zero slots touch the shared
    /// atomics.
    pub fn flush(&mut self) {
        CURRENT.with(|cell| {
            if let Some(recorder) = cell.borrow().as_deref() {
                for (i, &value) in self.counters.iter().enumerate() {
                    if value != 0 {
                        recorder.counters[i].fetch_add(value, Ordering::Relaxed);
                    }
                }
                for (h, buckets) in self.histograms.iter().enumerate() {
                    for (b, &value) in buckets.iter().enumerate() {
                        if value != 0 {
                            recorder.histograms[h][b].fetch_add(value, Ordering::Relaxed);
                        }
                    }
                }
                for (i, (&nanos, &calls)) in
                    self.stage_nanos.iter().zip(&self.stage_calls).enumerate()
                {
                    if nanos != 0 || calls != 0 {
                        recorder.stage_nanos[i].fetch_add(nanos, Ordering::Relaxed);
                        recorder.stage_calls[i].fetch_add(calls, Ordering::Relaxed);
                    }
                }
            }
        });
        *self = Self::default();
    }
}

/// An immutable copy of a [`Recorder`]'s state: the value threaded through
/// `sim::ShardStats`, shard checkpoints and cross-shard aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter totals, indexed by [`Counter`] discriminant.
    pub counters: [u64; COUNTER_COUNT],
    /// Histogram buckets, indexed by [`Histogram`] discriminant.
    pub histograms: [[u64; HISTOGRAM_BUCKETS]; HISTOGRAM_COUNT],
    /// Accumulated wall-clock nanoseconds per [`Stage`].
    pub stage_nanos: [u64; STAGE_COUNT],
    /// Span / flush count per [`Stage`].
    pub stage_calls: [u64; STAGE_COUNT],
}

impl MetricsSnapshot {
    /// A counter's total.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// A histogram's buckets.
    #[must_use]
    pub fn histogram(&self, histogram: Histogram) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.histograms[histogram as usize]
    }

    /// A stage's accumulated wall-clock seconds, summed over every worker
    /// that recorded it (worker-seconds).
    #[must_use]
    pub fn stage_seconds(&self, stage: Stage) -> f64 {
        self.stage_nanos[stage as usize] as f64 / 1e9
    }

    /// A stage's span / flush count.
    #[must_use]
    pub fn stage_calls(&self, stage: Stage) -> u64 {
        self.stage_calls[stage as usize]
    }

    /// The counters covered by the worker-count bit-identity contract, as
    /// `(counter, total)` pairs — host-dependent counters (see
    /// [`Counter::is_deterministic`]) are omitted.
    #[must_use]
    pub fn deterministic_counters(&self) -> Vec<(Counter, u64)> {
        Counter::ALL
            .iter()
            .filter(|c| c.is_deterministic())
            .map(|&c| (c, self.counter(c)))
            .collect()
    }

    /// Lane utilisation of the removed lane-interleaved generator: always
    /// `None`. Kept so callers that report the rate keep compiling.
    #[must_use]
    pub fn wide_lane_utilisation(&self) -> Option<f64> {
        None
    }

    /// Fraction of faulty block rows that fell back to whole-row scalar
    /// evaluation (`None` when no block rows were observed). The block
    /// walk declines no row, so it reads 0 whenever it reads at all.
    #[must_use]
    pub fn observe_fallback_rate(&self) -> Option<f64> {
        let block = self.counter(Counter::ObserveBlockRows);
        let fallback = self.counter(Counter::ObserveFallbackRows);
        let total = block + fallback;
        (total != 0).then(|| fallback as f64 / total as f64)
    }

    /// Element-wise accumulation (cross-shard / cross-panel aggregation).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.wrapping_add(*b);
        }
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            for (a, b) in a.iter_mut().zip(b) {
                *a = a.wrapping_add(*b);
            }
        }
        for (a, b) in self.stage_nanos.iter_mut().zip(&other.stage_nanos) {
            *a = a.wrapping_add(*b);
        }
        for (a, b) in self.stage_calls.iter_mut().zip(&other.stage_calls) {
            *a = a.wrapping_add(*b);
        }
    }

    /// Whether nothing at all was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_without_a_recorder_is_a_no_op() {
        assert!(current().is_none());
        count(Counter::DiesGenerated, 5);
        record(Histogram::FaultsPerDie, 3);
        add_stage(Stage::Generate, 10, 1);
        drop(span(Stage::Observe));
        // Nothing to observe — the calls must simply not panic.
    }

    #[test]
    fn install_scopes_and_nests() {
        let outer = Arc::new(Recorder::new());
        let inner = Arc::new(Recorder::new());
        {
            let _a = install(&outer);
            count(Counter::DiesGenerated, 1);
            {
                let _b = install(&inner);
                assert!(current().is_some());
                count(Counter::DiesGenerated, 10);
            }
            count(Counter::DiesGenerated, 1);
        }
        assert!(current().is_none());
        assert_eq!(outer.snapshot().counter(Counter::DiesGenerated), 2);
        assert_eq!(inner.snapshot().counter(Counter::DiesGenerated), 10);
    }

    #[test]
    fn arena_flushes_to_the_current_recorder() {
        let recorder = Arc::new(Recorder::new());
        let mut arena = MetricsArena::new();
        arena.count(Counter::FaultsGenerated, 7);
        arena.record(Histogram::FaultsPerDie, 7);
        arena.add_stage(Stage::Observe, 1_000, 2);
        {
            let _g = install(&recorder);
            arena.flush();
        }
        assert_eq!(arena, MetricsArena::default());
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter(Counter::FaultsGenerated), 7);
        assert_eq!(snapshot.histogram(Histogram::FaultsPerDie)[3], 1);
        assert_eq!(snapshot.stage_calls(Stage::Observe), 2);
        assert_eq!(snapshot.stage_nanos[Stage::Observe as usize], 1_000);
    }

    #[test]
    fn histogram_buckets_are_log2_spaced() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1 << 13), 14);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn snapshots_merge() {
        // Two recorders' snapshots merge into what one recorder that saw
        // both runs holds.
        let (early, late, both) = (Recorder::new(), Recorder::new(), Recorder::new());
        for recorder in [&early, &both] {
            recorder.add(Counter::DiesGenerated, 3);
        }
        for recorder in [&late, &both] {
            recorder.add(Counter::DiesGenerated, 4);
            recorder.observe(Histogram::FaultsPerDie, 0);
            recorder.add_stage(Stage::Merge, 500, 1);
        }
        let mut merged = early.snapshot();
        merged.merge(&late.snapshot());
        assert_eq!(merged.counter(Counter::DiesGenerated), 7);
        assert_eq!(merged.histogram(Histogram::FaultsPerDie)[0], 1);
        assert_eq!(merged.stage_calls(Stage::Merge), 1);
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn deterministic_counters_exclude_host_dependent_ones() {
        let recorder = Recorder::new();
        recorder.add(Counter::ReallocEvents, 9);
        recorder.add(Counter::DiesGenerated, 2);
        let deterministic = recorder.snapshot().deterministic_counters();
        assert!(deterministic
            .iter()
            .all(|&(c, _)| c != Counter::ReallocEvents));
        assert!(deterministic.contains(&(Counter::DiesGenerated, 2)));
        assert_eq!(deterministic.len(), COUNTER_COUNT - 1);
    }

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), COUNTER_COUNT);
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(*counter as usize, i);
        }
    }

    #[test]
    fn derived_rates() {
        let recorder = Recorder::new();
        assert_eq!(recorder.snapshot().observe_fallback_rate(), None);
        recorder.add(Counter::ObserveBlockRows, 3);
        recorder.add(Counter::ObserveFallbackRows, 1);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.observe_fallback_rate(), Some(0.25));
        assert_eq!(snapshot.wide_lane_utilisation(), None);
    }

    #[test]
    fn workers_share_one_recorder() {
        let recorder = Arc::new(Recorder::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    let _g = install(&recorder);
                    for _ in 0..100 {
                        count(Counter::SamplesEvaluated, 1);
                    }
                });
            }
        });
        assert_eq!(recorder.snapshot().counter(Counter::SamplesEvaluated), 400);
    }
}
