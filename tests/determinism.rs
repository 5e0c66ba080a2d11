//! Determinism regression tests of the parallel fault-injection pipeline:
//! the same campaign seed must produce **bit-identical** results whether the
//! campaign runs serially or on N worker threads, at any chunk size, across
//! every layer that feeds the figures (raw samples, per-count CDFs, combined
//! `EmpiricalCdf`s, application quality).

mod common;
#[path = "common/strata.rs"]
mod strata;

use common::{per_scheme, Samples};
use faultmit::analysis::{memory_mse, MonteCarloEngine};
use faultmit::apps::{Benchmark, QualityEvaluator};
use faultmit::core::Scheme;
use faultmit::memsim::{Backend, BackendKind, MemoryConfig, SramVddBackend};
use faultmit::sim::{Campaign, CampaignConfig, Parallelism, ShardSpec};
use strata::assert_same_strata;

const SEED: u64 = 0xD373_1213;

fn engine(parallelism: Parallelism) -> MonteCarloEngine {
    let config = CampaignConfig::new(MemoryConfig::new(512, 32).unwrap(), 5e-4)
        .unwrap()
        .with_samples_per_count(20)
        .with_max_failures(12)
        .with_parallelism(parallelism);
    MonteCarloEngine::new(config)
}

#[test]
fn mse_campaign_is_bit_identical_serial_vs_threaded() {
    let schemes = Scheme::fig5_catalogue();
    let baseline = engine(Parallelism::Serial)
        .run_catalogue(&schemes, SEED)
        .unwrap();

    for workers in [2usize, 4, 8] {
        let threaded = engine(Parallelism::threads(workers))
            .run_catalogue(&schemes, SEED)
            .unwrap();
        for (a, b) in baseline.iter().zip(&threaded) {
            // Bit-identical: every observation and every (order-sensitive)
            // floating-point weight sum matches exactly.
            assert_same_strata(a, b, &format!("{workers} workers"));
        }
    }
}

#[test]
fn raw_record_stream_is_independent_of_chunking_and_workers() {
    let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
    let base = CampaignConfig::new(MemoryConfig::new(256, 32).unwrap(), 1e-3)
        .unwrap()
        .with_samples_per_count(15)
        .with_max_failures(8);

    let reference = Campaign::new(base.with_parallelism(Parallelism::Serial)).samples(
        &schemes,
        SEED,
        ShardSpec::solo(),
        per_scheme(&schemes, memory_mse),
    );

    for (workers, chunk_size) in [(2usize, 1usize), (3, 7), (8, 64), (4, 1000)] {
        let variant = Campaign::new(
            base.with_parallelism(Parallelism::threads(workers))
                .with_chunk_size(chunk_size),
        )
        .samples(
            &schemes,
            SEED,
            ShardSpec::solo(),
            per_scheme(&schemes, memory_mse),
        );
        assert_eq!(
            reference, variant,
            "{workers} workers, chunk size {chunk_size}"
        );
    }
}

#[test]
fn different_seeds_produce_different_populations() {
    let scheme = [Scheme::unprotected32()];
    let config = CampaignConfig::new(MemoryConfig::new(256, 32).unwrap(), 1e-3)
        .unwrap()
        .with_samples_per_count(10)
        .with_max_failures(5);
    let a = Campaign::new(config).samples(
        &scheme,
        1,
        ShardSpec::solo(),
        per_scheme(&scheme, memory_mse),
    );
    let b = Campaign::new(config).samples(
        &scheme,
        2,
        ShardSpec::solo(),
        per_scheme(&scheme, memory_mse),
    );
    assert_ne!(a, b);
}

#[test]
fn every_backend_is_bit_identical_serial_vs_threaded_at_any_chunk_size() {
    // The backend-generic determinism gate: for SRAM voltage scaling, DRAM
    // retention (clustered maps) and MLC NVM (level-weighted maps) alike,
    // the same campaign seed must reproduce the exact record stream, CDFs
    // and weights regardless of worker count and chunking.
    let memory = MemoryConfig::new(512, 32).unwrap();
    let schemes = Scheme::fig5_catalogue();
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 5e-4).unwrap();
        let base = CampaignConfig::for_backend(backend)
            .unwrap()
            .with_samples_per_count(12)
            .with_max_failures(10);

        let reference = Campaign::new(base.with_parallelism(Parallelism::Serial)).samples(
            &schemes,
            SEED,
            ShardSpec::solo(),
            per_scheme(&schemes, memory_mse),
        );
        assert_eq!(reference.dies.len(), 120, "{kind}");

        for (workers, chunk_size) in [(2usize, 1usize), (4, 7), (8, 64)] {
            let variant = Campaign::new(
                base.with_parallelism(Parallelism::threads(workers))
                    .with_chunk_size(chunk_size),
            )
            .samples(
                &schemes,
                SEED,
                ShardSpec::solo(),
                per_scheme(&schemes, memory_mse),
            );
            assert_eq!(
                reference, variant,
                "{kind}: {workers} workers, chunk size {chunk_size}"
            );
        }
    }
}

#[test]
fn backend_engine_cdfs_are_bit_identical_serial_vs_threaded() {
    // Same gate one layer up: the MSE-specialised engine's combined and
    // per-count CDFs, per backend.
    let memory = MemoryConfig::new(256, 32).unwrap();
    let schemes = [Scheme::unprotected32(), Scheme::shuffle32(2).unwrap()];
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
        let build = |parallelism| {
            MonteCarloEngine::new(
                CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(10)
                    .with_max_failures(8)
                    .with_parallelism(parallelism),
            )
        };
        let serial = build(Parallelism::Serial)
            .run_catalogue(&schemes, SEED)
            .unwrap();
        let threaded = build(Parallelism::threads(4))
            .run_catalogue(&schemes, SEED)
            .unwrap();
        for (a, b) in serial.iter().zip(&threaded) {
            assert_same_strata(a, b, &format!("{kind}"));
        }
    }
}

#[test]
fn data_image_campaigns_are_bit_identical_serial_vs_threaded() {
    // The image axis joins the determinism gate: data-aware MSE campaigns
    // (stuck-at faults applied relative to the stored word) must reproduce
    // the exact CDFs and weights at any worker count, for every image kind.
    use faultmit::memsim::{FaultKindLaw, ImageSpec};
    let memory = MemoryConfig::new(256, 32).unwrap();
    let schemes = [Scheme::unprotected32(), Scheme::shuffle32(2).unwrap()];
    let backend = Backend::at_p_cell(BackendKind::Mlc, memory, 1e-3)
        .unwrap()
        .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 0.8,
        })
        .unwrap();
    for image in [
        ImageSpec::Zeros,
        ImageSpec::Ones,
        ImageSpec::UniformRandom { seed: 3 },
        ImageSpec::Sparse { seed: 3 },
    ] {
        let build = |parallelism| {
            MonteCarloEngine::new(
                CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(10)
                    .with_max_failures(8)
                    .with_image(image)
                    .with_parallelism(parallelism),
            )
        };
        let serial = build(Parallelism::Serial)
            .run_catalogue(&schemes, SEED)
            .unwrap();
        let threaded = build(Parallelism::threads(4))
            .run_catalogue(&schemes, SEED)
            .unwrap();
        for (a, b) in serial.iter().zip(&threaded) {
            assert_same_strata(a, b, &format!("{image}"));
        }
    }
}

#[test]
fn application_quality_campaign_is_bit_identical_serial_vs_threaded() {
    // The slowest per-sample evaluator (model training) exercises the
    // fallible pipeline path end to end; keep the budget small.
    let build = |parallelism| {
        QualityEvaluator::builder(Benchmark::Elasticnet)
            .samples(96)
            .memory_rows(128)
            .parallelism(parallelism)
            .build()
            .unwrap()
    };
    let schemes = [Scheme::unprotected32(), Scheme::secded32()];
    let run = |eval: QualityEvaluator| {
        let sram = Backend::Sram(SramVddBackend::with_p_cell(eval.memory_config(), 1e-3).unwrap());
        let (state, _) = eval
            .quality_shard_on(&schemes, &sram, 5, 3, SEED, ShardSpec::solo())
            .unwrap();
        eval.quality_results_from_state(&schemes, &sram, state)
            .unwrap()
    };
    let serial = run(build(Parallelism::Serial));
    let threaded = run(build(Parallelism::threads(4)));
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(a.scheme_name, b.scheme_name);
        assert_eq!(a.baseline_quality.to_bits(), b.baseline_quality.to_bits());
        assert_eq!(a.cdf, b.cdf);
    }
}

#[test]
fn metrics_counter_snapshots_are_bit_identical_serial_vs_threaded() {
    // The observability gate: every deterministic counter (dies and faults
    // generated, kernel dispatches, observe rows, ECC decodes — everything
    // except the host-dependent realloc and wall-clock channels) must be
    // bit-identical whether the campaign runs serially or on N workers,
    // for every backend and evaluation kernel. Counter sums are
    // order-independent u64 adds, so worker scheduling cannot move them.
    use faultmit::obs;
    use faultmit::sim::KernelKind;
    let memory = MemoryConfig::new(256, 32).unwrap();
    let schemes = [Scheme::unprotected32(), Scheme::shuffle32(2).unwrap()];
    for kind in BackendKind::ALL {
        for kernel in KernelKind::ALL {
            let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
            let run = |parallelism| {
                let recorder = std::sync::Arc::new(obs::Recorder::new());
                let guard = obs::install(&recorder);
                MonteCarloEngine::new(
                    CampaignConfig::for_backend(backend)
                        .unwrap()
                        .with_samples_per_count(10)
                        .with_max_failures(8)
                        .with_kernel(kernel)
                        .with_parallelism(parallelism),
                )
                .run_catalogue(&schemes, SEED)
                .unwrap();
                drop(guard);
                recorder.snapshot()
            };
            let serial = run(Parallelism::Serial);
            assert!(
                serial.counter(obs::Counter::SamplesEvaluated) > 0,
                "{kind}/{kernel}: the pipeline must actually record samples"
            );
            for workers in [2usize, 4] {
                let threaded = run(Parallelism::threads(workers));
                assert_eq!(
                    serial.deterministic_counters(),
                    threaded.deterministic_counters(),
                    "{kind}/{kernel}: {workers} workers"
                );
                // Histogram buckets are order-independent sums too.
                assert_eq!(
                    serial.histograms, threaded.histograms,
                    "{kind}/{kernel}: {workers} workers"
                );
            }
        }
    }
}
