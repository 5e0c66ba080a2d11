//! Criterion benchmark of the parallel fault-injection pipeline: serial vs.
//! multi-worker campaign throughput (samples/sec) at a reduced Fig. 5
//! operating point (16 KB memory, `P_cell = 5·10⁻⁶` — the paper's memory
//! model with a trimmed Monte-Carlo budget so one iteration stays cheap).
//!
//! On a multi-core host the `workers/N` series should scale towards N× the
//! serial throughput; on a single-core host the parallel path only measures
//! the (small) orchestration overhead. Either way the results are
//! bit-identical across all worker counts — that invariant is pinned by the
//! `determinism` integration test, while this bench tracks the speed.

//! Besides the Criterion groups, `bench_throughput_json` measures the
//! worker-count sweep 1/2/4/8 plus the kernel comparison (`sparse` →
//! `bitsliced`, plus the density-resolved `auto` row) and writes
//! `BENCH_pipeline.json` (path overridable via the `BENCH_PIPELINE_JSON`
//! environment variable) through the in-tree JSON emitter, so throughput can
//! be re-measured and tracked on any host. Worker counts above the host's
//! CPU count only measure oversubscription noise, so they are skipped by
//! default; pass `--force-worker-sweep` (the vendored harness ignores
//! unknown flags) to measure the full 1/2/4/8 sweep regardless, and read
//! the `host_cpus` stamp inside each JSON section to interpret the rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use faultmit_analysis::{
    block_mse_into, memory_mse_sparse_with, CatalogueMse, MonteCarloConfig, MonteCarloEngine,
};
use faultmit_bench::json::{JsonValue, ToJson};
use faultmit_core::Scheme;
use faultmit_memsim::{DieBlock, FaultKindLaw, FaultMap, ImageSpec, MemoryConfig, SramVddBackend};
use faultmit_obs as obs;
use faultmit_sim::{
    Accumulator, Campaign, CampaignConfig, KernelKind, PairedSample, Parallelism, ShardSpec,
};
use std::time::Instant;

/// Reduced Fig. 5 operating point: same geometry and failure counts that
/// dominate the paper's campaign, small enough per-iteration budget for a
/// stable benchmark.
fn operating_point(parallelism: Parallelism) -> MonteCarloEngine {
    let config = MonteCarloConfig::new(MemoryConfig::paper_16kb(), 5e-6)
        .expect("valid paper P_cell")
        .with_samples_per_count(10)
        .with_max_failures(12)
        .with_parallelism(parallelism);
    MonteCarloEngine::new(config)
}

fn bench_campaign_throughput(c: &mut Criterion) {
    let schemes = Scheme::fig5_catalogue();
    let samples_per_run = 12u64 * 10;

    let mut group = c.benchmark_group("pipeline_fig5");
    group.sample_size(10);
    group.throughput(Throughput::Elements(samples_per_run));

    group.bench_function("serial", |b| {
        let engine = operating_point(Parallelism::Serial);
        b.iter(|| engine.run_catalogue(&schemes, 0xF165).unwrap())
    });

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for workers in [2usize, 4, cpus] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let engine = operating_point(Parallelism::threads(workers));
                b.iter(|| engine.run_catalogue(&schemes, 0xF165).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_single_scheme_vs_paired(c: &mut Criterion) {
    // The paired catalogue pass amortises die sampling over all schemes;
    // this quantifies the win over running the catalogue scheme-by-scheme.
    let schemes = Scheme::fig5_catalogue();
    let engine = operating_point(Parallelism::Serial);

    let mut group = c.benchmark_group("paired_vs_sequential");
    group.sample_size(10);

    group.bench_function("paired_catalogue", |b| {
        b.iter(|| engine.run_catalogue(&schemes, 7).unwrap())
    });
    group.bench_function("scheme_by_scheme", |b| {
        b.iter(|| {
            schemes
                .iter()
                .map(|scheme| engine.run(scheme, 7).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// One row of the `BENCH_pipeline.json` worker-count sweep.
struct WorkerScalingRow {
    workers: usize,
    mean_seconds_per_campaign: f64,
    samples_per_second: f64,
    words_per_second: f64,
    speedup_vs_serial: f64,
}

impl ToJson for WorkerScalingRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("workers", self.workers.to_json()),
            (
                "mean_seconds_per_campaign",
                self.mean_seconds_per_campaign.to_json(),
            ),
            ("samples_per_second", self.samples_per_second.to_json()),
            ("words_per_second", self.words_per_second.to_json()),
            ("speedup_vs_serial", self.speedup_vs_serial.to_json()),
        ])
    }
}

/// One row of the kernel comparison (`speedup_vs_sparse` is relative to the
/// default `sparse` kernel at the same operating point).
struct KernelRow {
    config: &'static str,
    kernel: &'static str,
    mean_seconds_per_campaign: f64,
    samples_per_second: f64,
    words_per_second: f64,
    speedup_vs_sparse: f64,
    /// Fraction of wide-generation lane steps with the lane still live
    /// (from the per-row metrics delta; absent for kernels that never
    /// enter the wide path).
    widegen_lane_utilisation: Option<f64>,
    /// Fraction of observed rows that fell back off the bit-sliced block
    /// path (absent for the sparse kernel, which has no block path to fall
    /// back from).
    observe_fallback_rate: Option<f64>,
}

impl ToJson for KernelRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("config", self.config.to_json()),
            ("kernel", self.kernel.to_json()),
            (
                "mean_seconds_per_campaign",
                self.mean_seconds_per_campaign.to_json(),
            ),
            ("samples_per_second", self.samples_per_second.to_json()),
            ("words_per_second", self.words_per_second.to_json()),
            ("speedup_vs_sparse", self.speedup_vs_sparse.to_json()),
            (
                "widegen_lane_utilisation",
                self.widegen_lane_utilisation.to_json(),
            ),
            (
                "observe_fallback_rate",
                self.observe_fallback_rate.to_json(),
            ),
        ])
    }
}

/// Minimal accumulator for kernel timing: folds every metric into one sum
/// (no per-sample allocation, and the sum doubles as an equality witness
/// that both kernels computed the same MSEs).
#[derive(Default)]
struct SumMetrics {
    total: f64,
    samples: u64,
}

impl Accumulator for SumMetrics {
    fn record(&mut self, sample: &PairedSample) {
        self.samples += 1;
        for metric in &sample.metrics {
            self.total += metric;
        }
    }

    fn merge(&mut self, other: Self) {
        self.total += other.total;
        self.samples += other.samples;
    }
}

/// Seed of the kernel-comparison campaigns (arbitrary fixed constant).
const KERNEL_SEED: u64 = 0x5E1F_F165;

/// Times `reps` runs of a single-threaded campaign and returns
/// `(mean seconds per campaign, metric-sum witness, samples per campaign)`.
///
/// The metric sum is accumulated identically for every kernel, so matching
/// witnesses prove the timed kernels computed the same MSEs.
fn time_campaign<F>(
    config: CampaignConfig<SramVddBackend>,
    schemes: &[Scheme],
    evaluate: F,
    reps: u32,
) -> (f64, f64, u64)
where
    F: Fn(&FaultMap, &mut [f64]) + Sync,
{
    let campaign = Campaign::new(config);
    // One warm-up campaign, then the mean of the timed repetitions.
    campaign
        .run(schemes, KERNEL_SEED, &evaluate, SumMetrics::default)
        .unwrap();
    let started = Instant::now();
    let mut witness = 0.0;
    let mut samples = 0;
    for _ in 0..reps {
        let acc = campaign
            .run(schemes, KERNEL_SEED, &evaluate, SumMetrics::default)
            .unwrap();
        witness = acc.total;
        samples = acc.samples;
    }
    (
        started.elapsed().as_secs_f64() / f64::from(reps),
        witness,
        samples,
    )
}

/// Times `reps` runs of the bit-sliced block scheduler (64-die
/// [`DieBlock`]s with a scalar tail) and returns the same
/// `(mean seconds, witness, samples)` triple as [`time_campaign`], so the
/// witness proves the block kernel reproduced the sparse MSEs bit for bit.
fn time_campaign_blocks<F, G>(
    config: CampaignConfig<SramVddBackend>,
    schemes: &[Scheme],
    evaluate_sample: F,
    evaluate_block: G,
    reps: u32,
) -> (f64, f64, u64)
where
    F: Fn(&Scheme, &FaultMap) -> f64 + Sync,
    G: Fn(&Scheme, &DieBlock<'_>, &mut [f64]) + Sync,
{
    let campaign = Campaign::new(config);
    let run = || {
        campaign
            .run_shard_blocks(
                schemes,
                KERNEL_SEED,
                ShardSpec::solo(),
                &evaluate_sample,
                &evaluate_block,
                SumMetrics::default,
            )
            .unwrap()
    };
    // One warm-up campaign, then the mean of the timed repetitions.
    run();
    let started = Instant::now();
    let mut witness = 0.0;
    let mut samples = 0;
    for _ in 0..reps {
        let acc = run();
        witness = acc.total;
        samples = acc.samples;
    }
    (
        started.elapsed().as_secs_f64() / f64::from(reps),
        witness,
        samples,
    )
}

/// Times every kernel at one operating point and appends the rows, with
/// each witness sum cross-checked bit for bit against the `sparse` kernel.
///
/// `config` is the point's campaign configuration and `written(row)`
/// supplies its stored words, so each kernel times the identical campaign.
/// The `auto` row runs the kernel the density policy of
/// [`KernelKind::resolve`] picks for this configuration — resolution happens
/// once per campaign, before any sampling — and its `kernel` stamp records
/// the resolved choice (`auto:sparse` / `auto:bitsliced`), the same
/// telemetry the sharded CLI writes into checkpoints.
fn push_point<W>(
    rows: &mut Vec<KernelRow>,
    label: &'static str,
    memory: MemoryConfig,
    config: CampaignConfig<SramVddBackend>,
    schemes: &[Scheme],
    written: W,
    reps: u32,
) where
    W: Fn(usize) -> u64 + Sync,
{
    let words_per_sample = memory.rows() as f64;

    let walk = CatalogueMse::new(schemes, memory.word_bits());
    let time_sparse = || {
        time_campaign(
            config,
            schemes,
            |map, metrics| walk.mse_into(map, &written, metrics),
            reps,
        )
    };
    let time_blocks = || {
        time_campaign_blocks(
            config,
            schemes,
            |scheme, map| memory_mse_sparse_with(scheme, map, &written),
            |scheme, block: &DieBlock<'_>, out: &mut [f64]| {
                block_mse_into(scheme, block, &written, out);
            },
            reps,
        )
    };

    // Per-row metrics delta: when the bench runner installed a recorder,
    // each kernel's timed window is bracketed by snapshots so the lane
    // utilisation and fallback rates belong to that kernel alone.
    let timed = |run: &dyn Fn() -> (f64, f64, u64)| {
        let recorder = obs::current();
        let before = recorder.as_ref().map(|r| r.snapshot()).unwrap_or_default();
        let triple = run();
        let delta = recorder
            .map(|r| r.snapshot().since(&before))
            .unwrap_or_default();
        (triple, delta)
    };

    let (sparse, sparse_metrics) = timed(&time_sparse);
    let (bitsliced, bitsliced_metrics) = timed(&time_blocks);
    let resolved =
        KernelKind::Auto.resolve(config.expected_faults_per_die().unwrap(), memory.rows());
    // The auto row re-times the resolved kernel end to end, so any gap
    // between `auto` and its fixed twin is pure measurement noise.
    let (auto_name, (auto, auto_metrics)) = match resolved {
        KernelKind::Bitsliced => ("auto:bitsliced", timed(&time_blocks)),
        _ => ("auto:sparse", timed(&time_sparse)),
    };

    for (kernel, (seconds, witness, samples), metrics) in [
        ("sparse", sparse, sparse_metrics),
        ("bitsliced", bitsliced, bitsliced_metrics),
        (auto_name, auto, auto_metrics),
    ] {
        assert_eq!(
            sparse.1.to_bits(),
            witness.to_bits(),
            "{label}: sparse and {kernel} kernels disagree on the MSE sum"
        );
        rows.push(KernelRow {
            config: label,
            kernel,
            mean_seconds_per_campaign: seconds,
            samples_per_second: samples as f64 / seconds,
            words_per_second: samples as f64 * words_per_sample / seconds,
            speedup_vs_sparse: sparse.0 / seconds,
            widegen_lane_utilisation: metrics.wide_lane_utilisation(),
            observe_fallback_rate: metrics.observe_fallback_rate(),
        });
    }
}

/// Measures the evaluation kernels at three single-threaded operating
/// points:
///
/// * `sparse` — the event-driven kernel: reusable `DieScratch` arena,
///   `observe_sparse` row slices, per-faulty-row image gather;
/// * `bitsliced` — the lane-parallel kernel: 64 dies transposed into
///   `u64` lanes per `DieBlock`, `observe_block` scheme transforms and the
///   `block_mse_into` reduction, with a scalar (`sparse`) tail for the
///   final partial block;
/// * `auto` — the density-adaptive kernel, stamped with what it resolved
///   to at this operating point.
///
/// Operating points:
///
/// * `fig5`: the paper's 16 KB array at `P_cell = 1e-4` (Fig. 9's matched
///   density on the Fig. 5 axis), all-zeros background, Fig. 5 catalogue;
/// * `fig9`: same array and density with the uniform-random data image and
///   the decay-style stuck-at law — the data-dependent path;
/// * `dense_ecc`: the deep-voltage-scaling end of the Fig. 5 axis — 8192
///   faults per die (`P_cell = 1/16`), benched on the ECC design space
///   (unprotected, the P-ECC protected-width sweep `4, 8, …, 28`, full
///   SECDED) whose block paths are fully lane-parallel. Here ~4 of a
///   block's 64 dies share every faulty *cell*, so one lane operation does
///   the work the sparse kernel repeats per die.
fn kernel_rows() -> Vec<KernelRow> {
    const REPS: u32 = 5;
    let memory = MemoryConfig::paper_16kb();
    let schemes = Scheme::fig5_catalogue();

    let config = |law: FaultKindLaw| {
        let backend = SramVddBackend::with_p_cell(memory, 1e-4)
            .unwrap()
            .with_kind_law(law)
            .unwrap();
        CampaignConfig::for_backend(backend)
            .unwrap()
            .with_samples_per_count(10)
            .with_max_failures(24)
            .with_parallelism(Parallelism::Serial)
            // Blocks are grouped within chunks, so the default 32-sample
            // chunk would cap the bit-sliced kernel at half lane occupancy;
            // 64 gives full blocks (results are chunk-size-independent —
            // pinned by `chunk_size_does_not_change_results`). The sparse
            // kernel is insensitive to this knob.
            .with_chunk_size(64)
    };
    let stuck = FaultKindLaw::AsymmetricStuckAt {
        p_stuck_at_zero: 0.9,
    };
    let image = ImageSpec::UniformRandom { seed: 0xF169_DA7A }
        .try_materialise(memory)
        .unwrap();
    let words = image.materialise(memory.rows());

    let mut rows = Vec::new();
    push_point(
        &mut rows,
        "fig5_p1e-4",
        memory,
        config(FaultKindLaw::AlwaysFlip),
        &schemes,
        |_| 0,
        REPS,
    );
    push_point(
        &mut rows,
        "fig9_random_stuck",
        memory,
        config(stuck),
        &schemes,
        |row| words[row],
        REPS,
    );

    // Deep-scaling density: exactly 8192 faults in every die (one cell in
    // sixteen), 256 samples in one chunk so the block kernel packs four
    // full 64-die blocks. Every faulty cell is shared by ~4 of any 64 dies,
    // which is the regime the transposed lanes were built for. The shuffle
    // schemes' FM-LUT vote falls back to the scalar path for multi-fault
    // dies (dominant at this density), so this point measures the ECC
    // design space instead: the P-ECC protected-width sweep between the
    // unprotected and full-SECDED endpoints, whose block paths stay
    // lane-parallel at any density.
    let ecc_schemes: Vec<Scheme> = std::iter::once(Scheme::unprotected32())
        .chain((1..=7).map(|i| Scheme::PriorityEcc {
            word_bits: 32,
            protected_bits: 4 * i,
        }))
        .chain(std::iter::once(Scheme::secded32()))
        .collect();
    let cells = (memory.rows() * 32) as f64;
    let backend = SramVddBackend::with_p_cell(memory, 8192.0 / cells).unwrap();
    let dense_config = CampaignConfig::for_backend(backend)
        .unwrap()
        .with_samples_per_count(256)
        .with_exact_failures(8192)
        .with_parallelism(Parallelism::Serial)
        .with_chunk_size(256);
    push_point(
        &mut rows,
        "dense_ecc_p6.3e-2",
        memory,
        dense_config,
        &ecc_schemes,
        |_| 0,
        REPS,
    );
    rows
}

/// Times the reduced Fig. 5 campaign at 1/2/4/8 workers plus the kernel
/// comparison and writes both series as
/// `BENCH_pipeline.json` — the ROADMAP's throughput baseline, reproducible
/// on any host.
///
/// Worker counts above `host_cpus` are skipped by default (they only
/// measure oversubscription, not scaling); `--force-worker-sweep` restores
/// the full fixed sweep so hosts of different widths can be compared
/// row-for-row.
fn bench_throughput_json(_c: &mut Criterion) {
    const REPS: u32 = 3;
    let schemes = Scheme::fig5_catalogue();
    let samples_per_run = 12u64 * 10;
    let words_per_sample = MemoryConfig::paper_16kb().rows() as f64;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let force_sweep = std::env::args().any(|arg| arg == "--force-worker-sweep");

    let measure = |parallelism: Parallelism| {
        let engine = operating_point(parallelism);
        // One warm-up campaign, then the mean of the timed repetitions.
        engine.run_catalogue(&schemes, 0xF165).unwrap();
        let started = Instant::now();
        for _ in 0..REPS {
            engine.run_catalogue(&schemes, 0xF165).unwrap();
        }
        started.elapsed().as_secs_f64() / f64::from(REPS)
    };

    // One recorder spans the whole bench: the kernel rows bracket their own
    // windows with snapshot deltas, and the final aggregate snapshot is
    // written next to the throughput series.
    let recorder = std::sync::Arc::new(obs::Recorder::new());
    let _metrics_guard = obs::install(&recorder);

    println!("\n== group: pipeline_worker_scaling (BENCH_pipeline.json) ==");
    let serial_seconds = measure(Parallelism::Serial);
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        if workers > host_cpus && !force_sweep {
            println!(
                "workers/{workers:<2} skipped (host has {host_cpus} CPU(s); \
                 pass --force-worker-sweep to measure oversubscription)"
            );
            continue;
        }
        let seconds = if workers == 1 {
            serial_seconds
        } else {
            measure(Parallelism::threads(workers))
        };
        let row = WorkerScalingRow {
            workers,
            mean_seconds_per_campaign: seconds,
            samples_per_second: samples_per_run as f64 / seconds,
            words_per_second: samples_per_run as f64 * words_per_sample / seconds,
            speedup_vs_serial: serial_seconds / seconds,
        };
        println!(
            "workers/{:<2} {:>10.2} ms/campaign   ({:>8.1} samples/s, {:.3e} words/s, {:.2}x vs serial)",
            row.workers,
            row.mean_seconds_per_campaign * 1e3,
            row.samples_per_second,
            row.words_per_second,
            row.speedup_vs_serial,
        );
        rows.push(row);
    }

    println!("\n== group: pipeline_kernels (BENCH_pipeline.json) ==");
    let kernels = kernel_rows();
    for row in &kernels {
        // The counter-derived rates print next to the throughput numbers:
        // lane utilisation says how full the wide-generation lanes ran,
        // the fallback rate how often observation left the block path.
        let mut rates = String::new();
        if let Some(utilisation) = row.widegen_lane_utilisation {
            rates.push_str(&format!(", lanes {:.0}%", 100.0 * utilisation));
        }
        if let Some(fallback) = row.observe_fallback_rate {
            rates.push_str(&format!(", fallback {:.1}%", 100.0 * fallback));
        }
        println!(
            "{:<18} {:<6} {:>10.2} ms/campaign   ({:>8.1} samples/s, {:.3e} words/s, {:.2}x vs sparse{rates})",
            row.config,
            row.kernel,
            row.mean_seconds_per_campaign * 1e3,
            row.samples_per_second,
            row.words_per_second,
            row.speedup_vs_sparse,
        );
    }

    // Each section carries its own `host_cpus` stamp so a row set stays
    // interpretable when sections from different hosts are compared side by
    // side (and so the worker sweep records why rows above the CPU count
    // are absent unless the sweep was forced).
    let mut document = JsonValue::object([
        ("bench", "pipeline_throughput".to_json()),
        ("host_cpus", host_cpus.to_json()),
        ("samples_per_campaign", samples_per_run.to_json()),
        (
            "worker_scaling",
            JsonValue::object([
                ("host_cpus", host_cpus.to_json()),
                ("forced_full_sweep", force_sweep.to_json()),
                ("rows", rows.to_json()),
            ]),
        ),
        (
            "kernels",
            JsonValue::object([
                ("host_cpus", host_cpus.to_json()),
                ("rows", kernels.to_json()),
            ]),
        ),
        (
            "metrics",
            faultmit_bench::metrics::snapshot_to_json(&recorder.snapshot()),
        ),
    ]);
    let path =
        std::env::var("BENCH_PIPELINE_JSON").unwrap_or_else(|_| "BENCH_pipeline.json".into());
    // The datapath bench owns the `"datapath"` section of the same file;
    // carry it over so whichever bench ran last doesn't discard the other's
    // series.
    let datapath = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .and_then(|existing| existing.get("datapath").cloned());
    if let (Some(section), JsonValue::Object(fields)) = (datapath, &mut document) {
        fields.push(("datapath".to_owned(), section));
    }
    match std::fs::write(&path, document.to_pretty_string()) {
        Ok(()) => println!("wrote throughput series to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_campaign_throughput,
    bench_single_scheme_vs_paired,
    bench_throughput_json
);
criterion_main!(benches);
