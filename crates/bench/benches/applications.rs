//! Criterion benchmarks of the application benchmarks behind Table 1 /
//! Fig. 7: model training on clean data and one full quality evaluation
//! through the faulty-memory storage path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use faultmit_apps::datasets::{HarDataset, MadelonDataset, WineQualityDataset};
use faultmit_apps::preprocessing::{train_test_split, Standardizer};
use faultmit_apps::{Benchmark, ElasticNet, KnnClassifier, Pca, QualityEvaluator};
use faultmit_core::Scheme;
use faultmit_memsim::{FaultBackend, SramVddBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_model_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_training");
    group.sample_size(20);

    let wine = WineQualityDataset::new(300, 1).generate();
    let wine_split = train_test_split(&wine.features, &wine.targets, 0.8).unwrap();
    let wine_x = Standardizer::fit(&wine_split.train_x)
        .transform(&wine_split.train_x)
        .unwrap();
    group.bench_function("elasticnet_fit_300x11", |b| {
        b.iter(|| {
            let mut model = ElasticNet::paper_default().unwrap();
            model
                .fit(black_box(&wine_x), black_box(&wine_split.train_y))
                .unwrap();
            model
        })
    });

    let madelon = MadelonDataset::new(200, 5, 15, 20, 2).generate();
    let scaled = Standardizer::fit(&madelon.features)
        .transform(&madelon.features)
        .unwrap();
    group.bench_function("pca_fit_200x40", |b| {
        b.iter(|| {
            let mut pca = Pca::new(5).unwrap();
            pca.fit(black_box(&scaled)).unwrap();
            pca
        })
    });

    let har = HarDataset::new(400, 3).generate();
    let labels: Vec<usize> = har.labels.clone();
    group.bench_function("knn_fit_predict_400x5", |b| {
        b.iter(|| {
            let mut knn = KnnClassifier::paper_default().unwrap();
            knn.fit(black_box(&har.features), black_box(&labels))
                .unwrap();
            knn.predict(&har.features).unwrap()
        })
    });

    group.finish();
}

fn bench_quality_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("quality_evaluation");
    group.sample_size(10);
    for benchmark in Benchmark::ALL {
        let evaluator = QualityEvaluator::builder(benchmark)
            .samples(160)
            .memory_rows(512)
            .build()
            .unwrap();
        let scheme = Scheme::shuffle32(2).unwrap();
        let sram = SramVddBackend::with_p_cell(evaluator.memory_config(), 1e-3).unwrap();
        group.bench_function(format!("fig7_single_run_{}", benchmark.name()), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                let faults = sram.sample_with_count(&mut rng, black_box(32)).unwrap();
                evaluator
                    .quality_with_fault_map(black_box(&scheme), &faults)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_model_training, bench_quality_evaluation);
criterion_main!(benches);
