//! Criterion benchmarks of the Monte-Carlo analysis pipeline behind Fig. 5:
//! fault-map sampling, Eq. (6) MSE evaluation per scheme, and a reduced
//! end-to-end campaign.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use faultmit_analysis::{memory_mse, MonteCarloEngine};
use faultmit_core::Scheme;
use faultmit_memsim::{FaultMapSampler, MemoryConfig};
use faultmit_sim::CampaignConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_fault_map_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_map_sampling");
    let sampler = FaultMapSampler::new(MemoryConfig::paper_16kb());
    for n_faults in [1usize, 16, 150] {
        group.bench_with_input(
            BenchmarkId::new("sample_with_count", n_faults),
            &n_faults,
            |b, &n| {
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| sampler.sample_with_count(&mut rng, black_box(n)).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_mse_per_scheme(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_mse");
    let sampler = FaultMapSampler::new(MemoryConfig::paper_16kb());
    let mut rng = StdRng::seed_from_u64(2);
    let faults = sampler.sample_with_count(&mut rng, 150).unwrap();

    for scheme in [
        Scheme::unprotected32(),
        Scheme::secded32(),
        Scheme::pecc32(),
        Scheme::shuffle32(1).unwrap(),
        Scheme::shuffle32(5).unwrap(),
    ] {
        group.bench_with_input(
            BenchmarkId::new("eq6", faultmit_core::MitigationScheme::name(&scheme)),
            &scheme,
            |b, scheme| b.iter(|| memory_mse(black_box(scheme), black_box(&faults))),
        );
    }
    group.finish();
}

fn bench_small_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_campaign");
    group.sample_size(10);
    let config = CampaignConfig::new(MemoryConfig::new(512, 32).unwrap(), 1e-4)
        .unwrap()
        .with_samples_per_count(10)
        .with_max_failures(6);
    let engine = MonteCarloEngine::new(config);
    let schemes = [Scheme::shuffle32(2).unwrap()];
    group.bench_function("fig5_reduced_single_scheme", |b| {
        b.iter(|| engine.run_catalogue(&schemes, black_box(7)).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_map_sampling,
    bench_mse_per_scheme,
    bench_small_campaign
);
criterion_main!(benches);
