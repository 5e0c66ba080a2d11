//! Equivalence suite for the evaluation kernels: the sparse MSE kernel
//! (the `CatalogueMse` walk over the flat fault map's row groups, which
//! scores a whole catalogue per die from its single-fault table and
//! `observe_sparse`) and the bit-sliced block kernel (`block_mse_into` over
//! 64-die `DieBlock` lanes with a per-die tail) must be
//! **bit-identical** to the dense `observe`-based evaluators (`memory_mse`,
//! `memory_mse_for_data`) on every backend, image, and fault-kind law,
//! including dies with multi-fault rows and the shift ablation's naive vote
//! (`Scheme::NaiveShuffle`); the campaign's reusable arenas —
//! per-die and transposed alike — must reach zero steady-state heap
//! traffic.

mod common;

use common::{per_scheme, Joined, Samples};
use faultmit::analysis::{memory_mse, memory_mse_for_data, CatalogueMse};
use faultmit::core::{Scheme, SegmentGeometry};
use faultmit::memsim::{
    Backend, BackendKind, BlockScratch, DieBlock, DieScratch, FaultKindLaw, FaultMap, ImageSpec,
    MemoryConfig, PlannedSample, StreamSeeder, BLOCK_DIES,
};
use faultmit::sim::{Campaign, CampaignConfig, MapPolicy, Parallelism, ShardSpec};

use std::convert::Infallible;

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

/// `schemes` plus the shift ablation's naive vote at each of its `n_FM`.
fn with_naive_votes(mut schemes: Vec<Scheme>) -> Vec<Scheme> {
    schemes.extend(
        [1, 2, 3, 5].map(|n_fm| Scheme::NaiveShuffle(SegmentGeometry::new(32, n_fm).unwrap())),
    );
    schemes
}

fn campaign_config(backend: Backend) -> CampaignConfig {
    CampaignConfig::for_backend(backend)
        .unwrap()
        .with_samples_per_count(5)
        .with_max_failures(6)
        .with_parallelism(Parallelism::Serial)
}

fn assert_samples_bit_identical(a: &Joined, b: &Joined, context: &str) {
    assert_eq!(a.dies, b.dies, "{context}: dies");
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.weights), bits(&b.weights), "{context}: weights");
    assert_eq!(a.metrics.len(), b.metrics.len(), "{context}: metric count");
    // to_bits: -0.0 vs +0.0 and NaN payloads must match exactly.
    let (x, y) = (bits(&a.metrics), bits(&b.metrics));
    if let Some(i) = (0..x.len()).find(|&i| x[i] != y[i]) {
        let die = &a.dies[i * a.dies.len() / x.len()];
        panic!(
            "{context}: sample {} metric {} vs {}",
            die.index, a.metrics[i], b.metrics[i]
        );
    }
}

/// The tentpole guarantee: the sparse MSE kernel (one catalogue walk per
/// die) and the dense scalar evaluator agree bit for bit on every
/// (geometry × backend × kind-law × image) combination, sample for sample
/// — so the sparse kernel cannot move any figure by even one ULP.
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
                    let words = spec.words(memory).unwrap();

                    // Dense baseline: the generic observe path over a dense
                    // image vector.
                    let scalar = Campaign::new(campaign_config(backend)).samples(
                        &schemes,
                        SEED,
                        ShardSpec::solo(),
                        per_scheme(&schemes, |scheme, map| {
                            memory_mse_for_data(scheme, map, &words)
                        }),
                    );

                    // Sparse kernel: one row-group walk per die over the
                    // catalogue, single-fault rows scored from the table,
                    // per-faulty-row image gather.
                    let fused = Campaign::new(campaign_config(backend)).samples(
                        &schemes,
                        SEED,
                        ShardSpec::solo(),
                        |map, metrics| walk.mse_into(map, |row| words[row], metrics),
                    );

                    assert_samples_bit_identical(
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
        for policy in [MapPolicy::Unrestricted, MapPolicy::SingleFaultPerRow] {
            let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
            let config = campaign_config(backend).with_map_policy(policy);
            let scalar = Campaign::new(config).samples(
                &schemes,
                SEED,
                ShardSpec::solo(),
                per_scheme(&schemes, memory_mse),
            );
            let fused =
                Campaign::new(config).samples(&schemes, SEED, ShardSpec::solo(), |map, metrics| {
                    walk.mse_into(map, |_| 0, metrics)
                });
            assert_samples_bit_identical(&scalar, &fused, &format!("{kind} {policy:?} walk"));
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
    let mut schemes = with_naive_votes(Scheme::fig5_catalogue());
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
                let words = spec.words(memory).unwrap();
                let config = CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(3)
                    .with_max_failures(40)
                    .with_parallelism(Parallelism::Serial);
                let dense = Campaign::new(config).samples(
                    &schemes,
                    SEED,
                    ShardSpec::solo(),
                    per_scheme(&schemes, |scheme, map| {
                        memory_mse_for_data(scheme, map, &words)
                    }),
                );
                let (single_rows, multi_rows) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let fused = Campaign::new(config).samples(
                    &schemes,
                    SEED,
                    ShardSpec::solo(),
                    |map, metrics| {
                        for (_, row_faults) in map.rows_with_faults() {
                            let counter = if row_faults.len() == 1 {
                                &single_rows
                            } else {
                                &multi_rows
                            };
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                        walk.mse_into(map, |row| words[row], metrics);
                    },
                );
                assert_samples_bit_identical(&dense, &fused, &context);
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
    let reference = Campaign::new(campaign_config(backend)).samples(
        &schemes,
        SEED,
        ShardSpec::solo(),
        evaluate,
    );
    for workers in [2usize, 4, 8] {
        let threaded = Campaign::new(
            campaign_config(backend)
                .with_parallelism(Parallelism::threads(workers))
                .with_chunk_size(3),
        )
        .samples(&schemes, SEED, ShardSpec::solo(), evaluate);
        assert_samples_bit_identical(&reference, &threaded, &format!("{workers} workers"));
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

/// Runs `campaign` on `spec`'s image through the dense evaluator, the
/// sparse catalogue walk and the bit-sliced block kernel, and requires the
/// three sample streams to agree bit for bit, sample for sample.
fn assert_kernels_agree(
    campaign: &Campaign,
    schemes: &[Scheme],
    memory: MemoryConfig,
    spec: ImageSpec,
    context: &str,
) {
    let words = spec.words(memory).unwrap();
    let scalar = campaign.samples(
        schemes,
        SEED,
        ShardSpec::solo(),
        per_scheme(schemes, |scheme, map| {
            memory_mse_for_data(scheme, map, &words)
        }),
    );
    let walk = CatalogueMse::new(schemes, memory.word_bits());
    let walk_die = |map: &FaultMap, metrics: &mut [f64]| {
        walk.mse_into(map, |row| words[row], metrics);
        Ok::<(), Infallible>(())
    };
    let sparse = Joined::of([campaign
        .run_shard(schemes, SEED, ShardSpec::solo(), walk_die)
        .unwrap()
        .0]);
    let bitsliced = Joined::of([campaign
        .run_shard_blocks(
            schemes,
            SEED,
            ShardSpec::solo(),
            walk_die,
            |block: &DieBlock<'_>, out: &mut [f64]| {
                walk.block_mse_into(block, |row| words[row], out);
            },
        )
        .unwrap()
        .0]);

    assert_samples_bit_identical(&scalar, &sparse, context);
    assert_samples_bit_identical(&scalar, &bitsliced, context);
}

/// The bit-sliced block kernel joins the equivalence family: across a
/// randomized sweep of backend × image × kind-law × campaign shape —
/// including budgets that are **not** multiples of the 64-die block width,
/// so the scalar tail and partial trailing blocks are exercised — the
/// `sparse` and `bitsliced` kernels agree bit for bit, sample for sample,
/// with the dense `memory_mse_for_data` evaluator. So they do at a dense
/// ECC point, where every die holds one fault per four cells.
#[test]
fn bitsliced_kernel_is_bit_identical_across_a_randomized_sweep() {
    let schemes = with_naive_votes(Scheme::fig5_catalogue());
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
                let campaign = Campaign::new(
                    CampaignConfig::for_backend(backend)
                        .unwrap()
                        .with_samples_per_count(samples_per_count)
                        .with_max_failures(max_failures)
                        .with_parallelism(Parallelism::Serial)
                        .with_chunk_size(chunk_size),
                );
                assert_kernels_agree(&campaign, &schemes, memory, spec, &context);
            }
        }
    }

    // The dense ECC point: 512 faults in every die of a 64 × 32 array, two
    // full blocks and a lone tail in one chunk, over unprotected, SECDED
    // and the P-ECC protected widths.
    let memory = MemoryConfig::new(64, 32).unwrap();
    let mut ecc_schemes = vec![Scheme::unprotected32(), Scheme::secded32()];
    ecc_schemes.extend((1..=8).map(|i| Scheme::PriorityEcc {
        word_bits: 32,
        protected_bits: 4 * i,
    }));
    let samples = 2 * BLOCK_DIES + 1;
    let campaign = Campaign::new(
        CampaignConfig::for_backend(Backend::at_p_cell(BackendKind::Sram, memory, 0.25).unwrap())
            .unwrap()
            .with_samples_per_count(samples)
            .with_exact_failures(512)
            .with_parallelism(Parallelism::Serial)
            .with_chunk_size(samples),
    );
    assert_kernels_agree(
        &campaign,
        &ecc_schemes,
        memory,
        ImageSpec::Zeros,
        "dense ECC, 512 faults per die",
    );
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
            scratch
                .generate_with_policy(&backend, &mut rng, 48, MapPolicy::Unrestricted)
                .unwrap();
        }
        let after_warmup = scratch.realloc_events();
        for sample in 8..308u64 {
            let mut rng = seeder.rng_for_sample(sample);
            let n = 1 + (sample as usize * 7) % 48;
            scratch
                .generate_with_policy(&backend, &mut rng, n, MapPolicy::Unrestricted)
                .unwrap();
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
/// blocks and partial tails alike — never touch the heap.
fn block_zero_alloc_gate(label: &str) {
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
            "{kind} ({label}): steady-state block generation must not touch the heap"
        );
    }
}

#[test]
fn block_generation_reaches_zero_allocation_steady_state() {
    block_zero_alloc_gate("metrics off");
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
    block_zero_alloc_gate("metrics on");

    drop(guard);
    let snapshot = recorder.snapshot();
    // The gates really were recorded: dies flowed through the counters and
    // the only realloc events are the warm-up growth the gates tolerate.
    assert!(snapshot.counter(obs::Counter::DiesGenerated) > 0);
    assert!(snapshot.counter(obs::Counter::BlocksTransposed) > 0);
    assert!(snapshot.counter(obs::Counter::ReallocEvents) > 0);
    assert!(
        snapshot
            .histogram(obs::Histogram::FaultsPerDie)
            .iter()
            .sum::<u64>()
            > 0
    );
}
