//! Equivalence suite for the evaluation kernels: the sparse MSE kernels
//! (the per-scheme `memory_mse_sparse*`, built on `observe_sparse` and the
//! flat fault map's row groups, and the `CatalogueMse` walk that scores a
//! whole catalogue per die from its single-fault table) and the bit-sliced
//! block kernel (`block_mse_into` over 64-die `DieBlock` lanes with a scalar
//! tail, with lane-interleaved wide fault generation on or off) must be
//! **bit-identical** to the dense `observe`-based evaluators (`memory_mse`,
//! `memory_mse_for_data`) on every backend, image, and fault-kind law,
//! including dies with multi-fault rows; the campaign's reusable arenas —
//! per-die and transposed alike — must reach zero steady-state heap
//! traffic; and `--kernel auto` must resolve to the documented kernel at
//! every benched operating point.

mod common;

use common::per_scheme;
use faultmit::analysis::{
    block_mse_into, memory_mse, memory_mse_for_data, memory_mse_sparse, memory_mse_sparse_with,
    CatalogueMse,
};
use faultmit::core::Scheme;
use faultmit::memsim::{
    Backend, BackendKind, BlockScratch, DieBlock, DieScratch, FaultKindLaw, ImageSpec,
    MemoryConfig, PlannedSample, SramVddBackend, StreamSeeder, BLOCK_DIES,
};
use faultmit::sim::{
    Campaign, CampaignConfig, CollectRecords, KernelKind, MapPolicy, Parallelism, ShardSpec,
    AUTO_FAULTS_PER_ROW_THRESHOLD,
};

const SEED: u64 = 0x5AB5_EED6;

fn geometries() -> Vec<MemoryConfig> {
    // Deliberately irregular row counts: power-of-two, prime, and the
    // paper's 16 KB array.
    vec![
        MemoryConfig::new(64, 32).unwrap(),
        MemoryConfig::new(233, 32).unwrap(),
        MemoryConfig::paper_16kb(),
    ]
}

fn kind_laws() -> Vec<FaultKindLaw> {
    vec![
        FaultKindLaw::AlwaysFlip,
        FaultKindLaw::RandomStuckAt,
        FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 0.35,
        },
    ]
}

fn images() -> Vec<ImageSpec> {
    vec![
        ImageSpec::Zeros,
        ImageSpec::Ones,
        ImageSpec::UniformRandom { seed: 3 },
        ImageSpec::Sparse { seed: 3 },
    ]
}

fn campaign_config(backend: Backend) -> CampaignConfig<Backend> {
    CampaignConfig::for_backend(backend)
        .unwrap()
        .with_samples_per_count(5)
        .with_max_failures(6)
        .with_parallelism(Parallelism::Serial)
}

fn assert_records_bit_identical(a: &CollectRecords, b: &CollectRecords, context: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{context}: record count");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.sample_index, y.sample_index, "{context}");
        assert_eq!(x.n_faults, y.n_faults, "{context}");
        assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{context}");
        assert_eq!(x.metrics.len(), y.metrics.len(), "{context}");
        for (m, n) in x.metrics.iter().zip(&y.metrics) {
            // to_bits: -0.0 vs +0.0 and NaN payloads must match exactly.
            assert_eq!(
                m.to_bits(),
                n.to_bits(),
                "{context}: sample {} metric {m} vs {n}",
                x.sample_index
            );
        }
    }
}

/// The tentpole guarantee: the sparse MSE kernels — per scheme and as one
/// catalogue walk — and the dense scalar evaluator agree bit for bit on
/// every (geometry × backend × kind-law × image) combination, sample for
/// sample — so the sparse kernel cannot move any figure by even one ULP.
#[test]
fn sparse_mse_kernel_is_bit_identical_to_the_scalar_kernel() {
    let schemes = Scheme::fig5_catalogue();
    for memory in geometries() {
        let walk = CatalogueMse::new(&schemes, memory.word_bits());
        for kind in BackendKind::ALL {
            for law in kind_laws() {
                for spec in images() {
                    let backend = Backend::at_p_cell(kind, memory, 1e-3)
                        .unwrap()
                        .with_kind_law(law)
                        .unwrap();
                    let context = format!("{kind} {law:?} {spec:?} rows={}", memory.rows());
                    let image = spec.try_materialise(memory).unwrap();
                    let words = image.materialise(memory.rows());

                    // Dense baseline: the generic observe path over a dense
                    // image vector.
                    let scalar = Campaign::new(campaign_config(backend))
                        .run(
                            &schemes,
                            SEED,
                            per_scheme(&schemes, |scheme, map| {
                                memory_mse_for_data(scheme, map, &words)
                            }),
                            CollectRecords::new,
                        )
                        .unwrap();

                    // Sparse kernel: row-group walk, observe_sparse,
                    // per-faulty-row image gather.
                    let sparse = Campaign::new(campaign_config(backend))
                        .run(
                            &schemes,
                            SEED,
                            per_scheme(&schemes, |scheme, map| {
                                memory_mse_sparse_with(scheme, map, |row| image.word(row))
                            }),
                            CollectRecords::new,
                        )
                        .unwrap();

                    // The same walk fused over the catalogue: one pass per
                    // die, single-fault rows scored from the table.
                    let fused = Campaign::new(campaign_config(backend))
                        .run(
                            &schemes,
                            SEED,
                            |map, metrics| walk.mse_into(map, |row| image.word(row), metrics),
                            CollectRecords::new,
                        )
                        .unwrap();

                    assert_records_bit_identical(&scalar, &sparse, &context);
                    assert_records_bit_identical(
                        &scalar,
                        &fused,
                        &format!("{context} (catalogue walk)"),
                    );
                }
            }
        }
    }
}

/// The zeros-background kernels (the historical Fig. 5 path) agree too,
/// including through the single-fault-per-row redraw policy.
#[test]
fn zeros_background_kernels_agree_under_every_map_policy() {
    let schemes = Scheme::fig5_catalogue();
    let memory = MemoryConfig::new(128, 32).unwrap();
    let walk = CatalogueMse::new(&schemes, memory.word_bits());
    for kind in BackendKind::ALL {
        for policy in [
            MapPolicy::Unrestricted,
            MapPolicy::SingleFaultPerRow { max_redraws: 100 },
        ] {
            let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
            let config = campaign_config(backend).with_map_policy(policy);
            let scalar = Campaign::new(config)
                .run(
                    &schemes,
                    SEED,
                    per_scheme(&schemes, memory_mse),
                    CollectRecords::new,
                )
                .unwrap();
            let sparse = Campaign::new(config)
                .run(
                    &schemes,
                    SEED,
                    per_scheme(&schemes, memory_mse_sparse),
                    CollectRecords::new,
                )
                .unwrap();
            let fused = Campaign::new(config)
                .run(
                    &schemes,
                    SEED,
                    |map, metrics| walk.mse_into(map, |_| 0, metrics),
                    CollectRecords::new,
                )
                .unwrap();
            assert_records_bit_identical(&scalar, &sparse, &format!("{kind} {policy:?}"));
            assert_records_bit_identical(&scalar, &fused, &format!("{kind} {policy:?} walk"));
        }
    }
}

/// The catalogue walk against the dense evaluator on dies crowded enough
/// that most fault rows hold several faults: every backend, every kind law,
/// zeros and data images. Multi-fault rows leave the single-fault table for
/// `observe_sparse`, so this pins the mixed path of the walk.
#[test]
fn catalogue_walk_is_bit_identical_on_multi_fault_dies() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let mut schemes = Scheme::fig5_catalogue();
    schemes.push(Scheme::secded32());
    let memory = MemoryConfig::new(24, 32).unwrap();
    let walk = CatalogueMse::new(&schemes, memory.word_bits());
    for kind in BackendKind::ALL {
        for law in kind_laws() {
            for spec in images() {
                let backend = Backend::at_p_cell(kind, memory, 2e-2)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                let context = format!("{kind} {law:?} {spec:?}");
                let image = spec.try_materialise(memory).unwrap();
                let words = image.materialise(memory.rows());
                let config = CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(3)
                    .with_max_failures(40)
                    .with_parallelism(Parallelism::Serial);
                let dense = Campaign::new(config)
                    .run(
                        &schemes,
                        SEED,
                        per_scheme(&schemes, |scheme, map| {
                            memory_mse_for_data(scheme, map, &words)
                        }),
                        CollectRecords::new,
                    )
                    .unwrap();
                let (single_rows, multi_rows) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let fused = Campaign::new(config)
                    .run(
                        &schemes,
                        SEED,
                        |map, metrics| {
                            for (_, row_faults) in map.rows_with_faults() {
                                let counter = if row_faults.len() == 1 {
                                    &single_rows
                                } else {
                                    &multi_rows
                                };
                                counter.fetch_add(1, Ordering::Relaxed);
                            }
                            walk.mse_into(map, |row| image.word(row), metrics);
                        },
                        CollectRecords::new,
                    )
                    .unwrap();
                assert_records_bit_identical(&dense, &fused, &context);
                assert!(
                    single_rows.into_inner() > 0 && multi_rows.into_inner() > 0,
                    "{context}: the sweep must mix single- and multi-fault rows"
                );
            }
        }
    }
}

/// Arena reuse stays bit-identical at any worker count (per-worker arenas
/// must not leak state between chunks).
#[test]
fn arena_reuse_is_bit_identical_across_worker_counts() {
    let schemes = Scheme::fig7_catalogue();
    let memory = MemoryConfig::new(512, 32).unwrap();
    let backend = Backend::at_p_cell(BackendKind::Sram, memory, 1e-3).unwrap();
    let walk = CatalogueMse::new(&schemes, memory.word_bits());
    let evaluate = |map: &_, metrics: &mut [f64]| walk.mse_into(map, |_| 0, metrics);
    let reference = Campaign::new(campaign_config(backend))
        .run(&schemes, SEED, evaluate, CollectRecords::new)
        .unwrap();
    for workers in [2usize, 4, 8] {
        let threaded = Campaign::new(
            campaign_config(backend)
                .with_parallelism(Parallelism::threads(workers))
                .with_chunk_size(3),
        )
        .run(&schemes, SEED, evaluate, CollectRecords::new)
        .unwrap();
        assert_records_bit_identical(&reference, &threaded, &format!("{workers} workers"));
    }
}

/// A tiny deterministic xorshift for the sweep parameters below — the
/// vendored `rand` streams stay reserved for the RNG-authority fault
/// sampling, so test-plan randomisation uses its own generator.
struct SweepRng(u64);

impl SweepRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A value in `lo..=hi`.
    fn pick(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo + 1)
    }
}

/// The bit-sliced block kernel joins the equivalence family: across a
/// randomized sweep of backend × image × kind-law × campaign shape —
/// including budgets that are **not** multiples of the 64-die block width,
/// so the scalar tail and partial trailing blocks are exercised — the
/// `sparse` and `bitsliced` kernels agree bit for bit, sample for sample,
/// with the dense `memory_mse_for_data` evaluator. The block runs generate
/// faults through the lane-interleaved wide RNG path by default (on
/// backends that opt in), so the sweep also pins wide generation to the
/// scalar RNG schedule; an explicit wide-generation-off run closes the loop
/// by checking the pure scalar generation path against the same baseline.
#[test]
fn bitsliced_kernel_is_bit_identical_across_a_randomized_sweep() {
    let schemes = Scheme::fig5_catalogue();
    let mut sweep = SweepRng(SEED | 1);
    for kind in BackendKind::ALL {
        for law in kind_laws() {
            for spec in images() {
                // Odd budgets on both axes keep the total sample count an
                // odd number: never a multiple of 64, frequently below one
                // full block, sometimes several blocks plus a tail.
                let samples_per_count = 2 * sweep.pick(1, 4) + 1;
                let max_failures = 2 * sweep.pick(2, 5) as u64 + 1;
                let chunk_size = sweep.pick(1, 17);
                let memory = MemoryConfig::new(64 + sweep.pick(0, 192), 32).unwrap();
                let backend = Backend::at_p_cell(kind, memory, 2e-3)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                let context = format!(
                    "{kind} {law:?} {spec:?} rows={} spc={samples_per_count} \
                     max={max_failures} chunk={chunk_size}",
                    memory.rows()
                );
                let image = spec.try_materialise(memory).unwrap();
                let words = image.materialise(memory.rows());
                let config = |wide_generation: bool| {
                    CampaignConfig::for_backend(backend)
                        .unwrap()
                        .with_samples_per_count(samples_per_count)
                        .with_max_failures(max_failures)
                        .with_parallelism(Parallelism::Serial)
                        .with_chunk_size(chunk_size)
                        .with_wide_generation(wide_generation)
                };

                let scalar = Campaign::new(config(true))
                    .run(
                        &schemes,
                        SEED,
                        per_scheme(&schemes, |scheme, map| {
                            memory_mse_for_data(scheme, map, &words)
                        }),
                        CollectRecords::new,
                    )
                    .unwrap();
                let walk = CatalogueMse::new(&schemes, memory.word_bits());
                let sparse = Campaign::new(config(true))
                    .run(
                        &schemes,
                        SEED,
                        |map, metrics| walk.mse_into(map, |row| image.word(row), metrics),
                        CollectRecords::new,
                    )
                    .unwrap();
                let bitsliced = Campaign::new(config(true))
                    .run_shard_blocks(
                        &schemes,
                        SEED,
                        ShardSpec::solo(),
                        |scheme, map| memory_mse_sparse_with(scheme, map, |row| image.word(row)),
                        |scheme, block: &DieBlock<'_>, out: &mut [f64]| {
                            block_mse_into(scheme, block, |row| image.word(row), out);
                        },
                        CollectRecords::new,
                    )
                    .unwrap();
                // Same kernel, wide generation forced off: the scalar
                // per-die generation path must reproduce the exact same
                // records, proving the wide path changed nothing.
                let scalar_generation = Campaign::new(config(false))
                    .run_shard_blocks(
                        &schemes,
                        SEED,
                        ShardSpec::solo(),
                        |scheme, map| memory_mse_sparse_with(scheme, map, |row| image.word(row)),
                        |scheme, block: &DieBlock<'_>, out: &mut [f64]| {
                            block_mse_into(scheme, block, |row| image.word(row), out);
                        },
                        CollectRecords::new,
                    )
                    .unwrap();

                assert_records_bit_identical(&scalar, &sparse, &context);
                assert_records_bit_identical(&scalar, &bitsliced, &context);
                assert_records_bit_identical(
                    &scalar,
                    &scalar_generation,
                    &format!("{context} (wide generation off)"),
                );
            }
        }
    }
}

/// Steady-state die generation through the arena performs **zero** heap
/// allocation: after a warm-up at the largest fault count, the arena's
/// reallocation counter stays flat for hundreds of dies on every backend.
#[test]
fn die_generation_reaches_zero_allocation_steady_state() {
    let memory = MemoryConfig::new(256, 32).unwrap();
    let seeder = StreamSeeder::new(SEED);
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
        let mut scratch = DieScratch::new(memory);
        // Warm-up: let every buffer grow to the campaign's peak demand.
        for sample in 0..8u64 {
            let mut rng = seeder.rng_for_sample(sample);
            scratch.generate(&backend, &mut rng, 48).unwrap();
        }
        let after_warmup = scratch.realloc_events();
        for sample in 8..308u64 {
            let mut rng = seeder.rng_for_sample(sample);
            let n = 1 + (sample as usize * 7) % 48;
            scratch.generate(&backend, &mut rng, n).unwrap();
        }
        assert_eq!(
            scratch.realloc_events(),
            after_warmup,
            "{kind}: steady-state generation must not touch the heap"
        );
    }
}

/// The transposed block path holds the same guarantee: once the lane
/// buffers have grown to the campaign's peak demand (`BLOCK_DIES` dies at
/// the largest fault count), steady-state `generate_block` calls — full
/// blocks and partial tails alike — never touch the heap. The gate runs
/// with lane-interleaved wide generation both on (the default, exercising
/// the `WideRng` batch path on backends that opt in) and off (the per-die
/// scalar path), since the two paths use different working buffers.
fn block_zero_alloc_gate(label: &str, wide_generation: bool) {
    let memory = MemoryConfig::new(256, 32).unwrap();
    let seeder = StreamSeeder::new(SEED);
    let lanes = BLOCK_DIES as u64;
    let block_plan = |start: u64, len: usize, n_faults: &dyn Fn(u64) -> u64| {
        (0..len as u64)
            .map(|j| PlannedSample {
                index: start + j,
                n_faults: n_faults(start + j),
            })
            .collect::<Vec<_>>()
    };
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
        let mut scratch = BlockScratch::new(memory);
        scratch.set_wide_generation(wide_generation);
        // Warm-up: full blocks at the peak fault count grow every lane
        // buffer to the campaign's maximum demand.
        for block in 0..4u64 {
            let plan = block_plan(block * lanes, BLOCK_DIES, &|_| 48);
            scratch
                .generate_block(&backend, &seeder, &plan, None)
                .unwrap();
        }
        let after_warmup = scratch.realloc_events();
        for block in 0..64u64 {
            let start = 4 * lanes + block * lanes;
            // Partial tails (any length up to the block width) and varying
            // per-die fault counts must all stay inside grown capacity.
            let len = 1 + (block as usize * 13) % BLOCK_DIES;
            let plan = block_plan(start, len, &|index| 1 + index % 48);
            scratch
                .generate_block(&backend, &seeder, &plan, None)
                .unwrap();
        }
        assert_eq!(
            scratch.realloc_events(),
            after_warmup,
            "{kind} ({label}, wide_generation={wide_generation}): \
             steady-state block generation must not touch the heap"
        );
    }
}

#[test]
fn block_generation_reaches_zero_allocation_steady_state() {
    block_zero_alloc_gate("metrics off", true);
    block_zero_alloc_gate("metrics off", false);
}

/// The zero-allocation guarantee holds with metrics recording switched on:
/// an installed recorder turns the hot-path counter hooks into relaxed
/// atomic adds on preallocated slots, so steady-state generation still
/// never touches the heap — and the recorder's realloc counter agrees with
/// the arenas' own (only warm-up growth events, none in steady state).
#[test]
fn zero_allocation_steady_state_holds_with_metrics_recording_on() {
    use faultmit::obs;
    let recorder = std::sync::Arc::new(obs::Recorder::new());
    let guard = obs::install(&recorder);

    die_generation_reaches_zero_allocation_steady_state();
    block_zero_alloc_gate("metrics on", true);

    drop(guard);
    let snapshot = recorder.snapshot();
    // The gates really were recorded: dies flowed through the counters and
    // the only realloc events are the warm-up growth the gates tolerate.
    assert!(snapshot.counter(obs::Counter::DiesGenerated) > 0);
    assert!(snapshot.counter(obs::Counter::WideGenLaneSteps) > 0);
    assert!(snapshot.counter(obs::Counter::ReallocEvents) > 0);
    assert!(
        snapshot
            .histogram(obs::Histogram::FaultsPerDie)
            .iter()
            .sum::<u64>()
            > 0
    );
}

/// `--kernel auto` resolves to the documented kernel at each benched
/// operating point of `BENCH_pipeline.json`: the Fig. 5 / Fig. 9 densities
/// (a 16 KB array simulated up to 24 faults per die) sit far below the
/// block kernel's break-even and stay on the sparse kernel, while the
/// dense-ECC point (8192 faults per die, `P_cell ≈ 6.3e-2`) crosses it and
/// picks the bit-sliced kernel. Fixed kernels resolve to themselves.
#[test]
fn auto_kernel_resolves_to_the_documented_kernel_at_each_benched_point() {
    let memory = MemoryConfig::paper_16kb();
    let threshold = memory.rows() as f64 * AUTO_FAULTS_PER_ROW_THRESHOLD;

    // `fig5_p1e-4` and `fig9_random_stuck` share the campaign shape: only
    // the kind law and stored image differ, neither of which feeds the
    // density policy.
    let sparse_point = {
        let backend = SramVddBackend::with_p_cell(memory, 1e-4).unwrap();
        CampaignConfig::for_backend(backend)
            .unwrap()
            .with_samples_per_count(10)
            .with_max_failures(24)
    };
    let expected = sparse_point.expected_faults_per_die().unwrap();
    assert_eq!(expected, 12.5, "mean of the 1..=24 failure-count sweep");
    assert!(expected < threshold);
    assert_eq!(
        KernelKind::Auto.resolve(expected, memory.rows()),
        KernelKind::Sparse
    );

    // `dense_ecc_p6.3e-2` plans every die at exactly 8192 faults.
    let cells = (memory.rows() * 32) as f64;
    let dense_point = {
        let backend = SramVddBackend::with_p_cell(memory, 8192.0 / cells).unwrap();
        CampaignConfig::for_backend(backend)
            .unwrap()
            .with_samples_per_count(256)
            .with_exact_failures(8192)
    };
    let expected = dense_point.expected_faults_per_die().unwrap();
    assert_eq!(expected, 8192.0, "exact-failure plans pin the density");
    assert!(expected >= threshold);
    assert_eq!(
        KernelKind::Auto.resolve(expected, memory.rows()),
        KernelKind::Bitsliced
    );

    // Fixed kernels ignore the density entirely.
    for kernel in [KernelKind::Sparse, KernelKind::Bitsliced] {
        assert_eq!(kernel.resolve(expected, memory.rows()), kernel);
    }
}
