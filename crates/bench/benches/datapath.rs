//! Criterion micro-benchmarks of the protection-scheme datapaths: barrel
//! shifter rotation, Hamming SECDED encode/decode, P-ECC decode, the
//! bit-shuffling write/read path, the March BIST, and the two halves of the
//! Monte-Carlo inner loop (die generation vs. catalogue evaluation) timed
//! separately. These quantify the software-simulation cost backing the §5.1
//! overhead discussion and show where each campaign millisecond goes.
//!
//! Besides the Criterion groups, `bench_datapath_json` measures the
//! generation-vs-evaluation split in campaign units (dies/s, single
//! thread): per-backend block generation (per-die RNG streams, then the
//! transposition) plus fig5-catalogue evaluation over a fixed die. The rows are merged into `BENCH_pipeline.json` (path
//! overridable via the `BENCH_PIPELINE_JSON` environment variable) as a
//! `"datapath"` section, preserving the sections the pipeline bench wrote.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use faultmit_analysis::CatalogueMse;
use faultmit_bench::json::{JsonValue, ToJson};
use faultmit_core::{rotate_left, rotate_right, Scheme, SegmentGeometry, ShuffledMemory};
use faultmit_ecc::{HammingSecded, PriorityEcc, SecdedCode};
use faultmit_memsim::{
    Backend, BackendKind, BlockScratch, DieScratch, Fault, FaultMap, MarchBist, MemoryConfig,
    PlannedSample, SramArray, SramVddBackend, StreamSeeder, BLOCK_DIES,
};
use std::time::Instant;

fn bench_shifter(c: &mut Criterion) {
    let mut group = c.benchmark_group("shifter");
    group.bench_function("rotate_right_32", |b| {
        b.iter(|| rotate_right(black_box(0xDEAD_BEEF), black_box(13), 32))
    });
    group.bench_function("rotate_round_trip_32", |b| {
        b.iter(|| {
            let stored = rotate_right(black_box(0xDEAD_BEEF), black_box(29), 32);
            rotate_left(stored, 29, 32)
        })
    });
    group.finish();
}

fn bench_ecc_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc");
    let h39 = HammingSecded::h39_32();
    let h22 = HammingSecded::h22_16();
    let pecc = PriorityEcc::paper_32bit().unwrap();
    let cw39 = h39.encode(0x1234_5678).unwrap();
    let cw22 = h22.encode(0x5678).unwrap();
    let cw_pecc = pecc.encode(0x1234_5678).unwrap();

    group.bench_function("h39_32_encode", |b| {
        b.iter(|| h39.encode(black_box(0x1234_5678)).unwrap())
    });
    group.bench_function("h39_32_decode_clean", |b| {
        b.iter(|| h39.decode(black_box(cw39)).unwrap())
    });
    group.bench_function("h39_32_decode_corrupted", |b| {
        b.iter(|| h39.decode(black_box(cw39 ^ (1 << 17))).unwrap())
    });
    group.bench_function("h22_16_decode_clean", |b| {
        b.iter(|| h22.decode(black_box(cw22)).unwrap())
    });
    group.bench_function("pecc_decode_clean", |b| {
        b.iter(|| pecc.decode(black_box(cw_pecc)).unwrap())
    });
    group.finish();
}

fn bench_shuffled_memory(c: &mut Criterion) {
    let mut group = c.benchmark_group("shuffled_memory");
    let config = MemoryConfig::new(1024, 32).unwrap();
    let faults = FaultMap::from_faults(
        config,
        (0..64).map(|i| Fault::bit_flip(i * 16, (i * 7) % 32)),
    )
    .unwrap();

    for n_fm in [1usize, 3, 5] {
        let geometry = SegmentGeometry::new(32, n_fm).unwrap();
        let mut memory = ShuffledMemory::from_fault_map(geometry, faults.clone()).unwrap();
        group.bench_with_input(
            BenchmarkId::new("write_read", format!("nFM={n_fm}")),
            &n_fm,
            |b, _| {
                b.iter(|| {
                    memory.write(black_box(16), black_box(0xCAFE_BABE)).unwrap();
                    memory.read(black_box(16)).unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_bist(c: &mut Criterion) {
    let mut group = c.benchmark_group("bist");
    group.sample_size(20);
    for rows in [256usize, 1024] {
        let config = MemoryConfig::new(rows, 32).unwrap();
        let faults = FaultMap::from_faults(
            config,
            [Fault::bit_flip(3, 31), Fault::stuck_at_one(rows / 2, 5)],
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("march_c_minus", rows), &rows, |b, _| {
            b.iter(|| {
                let mut array = SramArray::with_faults(config, faults.clone());
                MarchBist::new().run(&mut array).unwrap()
            })
        });
    }
    group.finish();
}

/// The Monte-Carlo inner loop, split into its two halves so regressions can
/// be attributed: arena-backed die generation alone, and sparse catalogue
/// evaluation alone over a fixed die (12 faults — the mean failure count of
/// the kernel bench's `P_cell = 1e-4` operating point on the 16 KB array).
fn bench_die_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("die_pipeline");
    let memory = MemoryConfig::paper_16kb();
    let backend = SramVddBackend::with_p_cell(memory, 1e-4).unwrap();
    let seeder = StreamSeeder::new(0xD1E5);

    group.bench_function("generate_die_n12", |b| {
        let mut scratch = DieScratch::new(memory);
        let mut sample = 0u64;
        b.iter(|| {
            let mut rng = seeder.rng_for_sample(sample);
            sample = sample.wrapping_add(1);
            scratch.generate(&backend, &mut rng, black_box(12)).unwrap();
            scratch.map().fault_count()
        })
    });

    let schemes = Scheme::fig5_catalogue();
    let mut scratch = DieScratch::new(memory);
    let mut rng = seeder.rng_for_sample(0);
    scratch.generate(&backend, &mut rng, 12).unwrap();
    let map = scratch.map();
    let walk = CatalogueMse::new(&schemes, memory.word_bits());
    let mut out = vec![0.0; schemes.len()];
    group.bench_function("evaluate_catalogue_n12", |b| {
        b.iter(|| {
            walk.mse_into(black_box(map), |_| 0, &mut out);
            out.iter().sum::<f64>()
        })
    });
    group.finish();
}

/// One generation row of the `BENCH_pipeline.json` `"datapath"` section:
/// how many dies per second one thread can *generate* (fault sampling and
/// block transposition, no evaluation) for one backend and configuration.
struct GenerationRow {
    config: &'static str,
    backend: String,
    faults_per_die: u64,
    dies_per_second: f64,
}

impl ToJson for GenerationRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("config", self.config.to_json()),
            ("backend", self.backend.to_json()),
            ("faults_per_die", self.faults_per_die.to_json()),
            ("dies_per_second", self.dies_per_second.to_json()),
        ])
    }
}

/// Dies generated per second through a [`BLOCK_DIES`]-die `BlockScratch`,
/// single-threaded: a warm-up pass grows the arena, then `reps × blocks`
/// full blocks are timed.
fn measure_generation(
    memory: MemoryConfig,
    backend: &Backend,
    n_faults: u64,
    blocks: u64,
    reps: u32,
) -> f64 {
    let seeder = StreamSeeder::new(0xD1E5);
    let mut scratch = BlockScratch::new(memory);
    let lanes = BLOCK_DIES as u64;
    let plan_for = |block: u64| {
        (0..lanes)
            .map(|j| PlannedSample {
                index: block * lanes + j,
                n_faults,
            })
            .collect::<Vec<_>>()
    };
    let run = |scratch: &mut BlockScratch, first: u64| {
        for block in first..first + blocks {
            let plan = plan_for(block);
            let die_block = scratch
                .generate_block(backend, &seeder, &plan, None)
                .unwrap();
            black_box(die_block.die_count());
        }
    };
    run(&mut scratch, 0); // warm-up: grow every lane buffer
    let started = Instant::now();
    for rep in 0..reps {
        run(&mut scratch, (1 + u64::from(rep)) * blocks);
    }
    let seconds = started.elapsed().as_secs_f64();
    (u64::from(reps) * blocks * lanes) as f64 / seconds
}

/// Measures the generation-vs-evaluation split in dies/s on one thread and
/// merges the rows into `BENCH_pipeline.json` under a `"datapath"` key,
/// preserving whatever sections the pipeline bench already wrote there.
fn bench_datapath_json(_c: &mut Criterion) {
    let memory = MemoryConfig::paper_16kb();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // The benched operating points mirror the kernel section's configs:
    // the Fig. 5 `P_cell = 1e-4` density (12 faults per die — its mean
    // failure count) on every backend, and the dense-ECC point (8192
    // faults per die). Fewer blocks at the dense point keep the run short;
    // the per-rep die count stays in the thousands either way.
    let cells = (memory.rows() * 32) as f64;
    let points: [(&'static str, BackendKind, f64, u64, u64); 4] = [
        ("fig5_p1e-4", BackendKind::Sram, 1e-4, 12, 96),
        ("fig5_p1e-4", BackendKind::Dram, 1e-4, 12, 96),
        ("fig5_p1e-4", BackendKind::Mlc, 1e-4, 12, 96),
        (
            "dense_ecc_p6.3e-2",
            BackendKind::Sram,
            8192.0 / cells,
            8192,
            16,
        ),
    ];

    println!("\n== group: datapath_generation (BENCH_pipeline.json) ==");
    const REPS: u32 = 3;
    let mut rows = Vec::new();
    for (config, kind, p_cell, n_faults, blocks) in points {
        let backend = Backend::at_p_cell(kind, memory, p_cell).unwrap();
        let row = GenerationRow {
            config,
            backend: kind.to_string(),
            faults_per_die: n_faults,
            dies_per_second: measure_generation(memory, &backend, n_faults, blocks, REPS),
        };
        println!(
            "{:<18} {:<9} n={:<5} {:>12.0} dies/s",
            row.config, row.backend, row.faults_per_die, row.dies_per_second,
        );
        rows.push(row);
    }

    // Evaluation half of the split, in the same units: fig5-catalogue
    // sparse MSE (one catalogue walk) over a fixed 12-fault die (the
    // generation rows' sparse operating point), so generation and
    // evaluation cost are directly comparable per die.
    let schemes = Scheme::fig5_catalogue();
    let backend = SramVddBackend::with_p_cell(memory, 1e-4).unwrap();
    let mut scratch = DieScratch::new(memory);
    let mut rng = StreamSeeder::new(0xD1E5).rng_for_sample(0);
    scratch.generate(&backend, &mut rng, 12).unwrap();
    let map = scratch.map();
    let walk = CatalogueMse::new(&schemes, memory.word_bits());
    let mut out = vec![0.0; schemes.len()];
    let mut evaluate = || {
        walk.mse_into(black_box(map), |_| 0, &mut out);
        out.iter().sum::<f64>()
    };
    let eval_dies = 4096u64;
    black_box(evaluate()); // warm-up
    let started = Instant::now();
    for _ in 0..eval_dies {
        black_box(evaluate());
    }
    let eval_dies_per_second = eval_dies as f64 / started.elapsed().as_secs_f64();
    println!(
        "{:<18} {:<9} n={:<5} {:>12.0} dies/s   (evaluation: fig5 catalogue, sparse kernel)",
        "fig5_p1e-4", "sram", 12, eval_dies_per_second,
    );

    let section = JsonValue::object([
        ("host_cpus", host_cpus.to_json()),
        ("threads", 1u64.to_json()),
        ("generation", JsonValue::object([("rows", rows.to_json())])),
        (
            "evaluation",
            JsonValue::object([(
                "rows",
                JsonValue::Array(vec![JsonValue::object([
                    ("config", "fig5_p1e-4".to_json()),
                    ("backend", "sram".to_json()),
                    ("kernel", "sparse".to_json()),
                    ("faults_per_die", 12u64.to_json()),
                    ("dies_per_second", eval_dies_per_second.to_json()),
                ])]),
            )]),
        ),
    ]);

    // Read-merge-write: replace (or append) only the `"datapath"` key so
    // the worker-scaling and kernel sections survive whichever bench ran
    // last. A missing or unparseable file degrades to a fresh document.
    let path =
        std::env::var("BENCH_PIPELINE_JSON").unwrap_or_else(|_| "BENCH_pipeline.json".into());
    let mut fields = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .and_then(|doc| match doc {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        })
        .unwrap_or_else(|| vec![("bench".to_owned(), "pipeline_throughput".to_json())]);
    match fields.iter_mut().find(|(key, _)| key == "datapath") {
        Some((_, value)) => *value = section,
        None => fields.push(("datapath".to_owned(), section)),
    }
    match std::fs::write(&path, JsonValue::Object(fields).to_pretty_string()) {
        Ok(()) => println!("merged datapath series into {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_shifter,
    bench_ecc_codecs,
    bench_shuffled_memory,
    bench_bist,
    bench_die_pipeline,
    bench_datapath_json
);
criterion_main!(benches);
