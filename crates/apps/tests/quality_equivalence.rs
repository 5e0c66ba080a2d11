//! The fault-sparse quality path against a dense reference.
//!
//! `QualityEvaluator::quality_with_fault_map` prepares each benchmark once,
//! through the same prepared state a campaign uses, reads back only the
//! words that live in fault-bearing rows, and returns the baseline without
//! a refit when no word changes. KNN scores both the baseline and every
//! refit from its cached clean neighbour rankings, re-ranking only the
//! training samples a read-back changed. This suite recomputes every
//! quality the dense way — regenerate the dataset, round-trip every stored
//! word through the scheme with `FaultyStore::round_trip_matrix`, fit
//! afresh with `KnnClassifier`, `Pca` and `ElasticNet` — and requires both
//! to agree bit for bit, for the three benchmarks, the Fig. 7 scheme
//! catalogue, and fault maps that reach each branch of the sparse path:
//! no changed sample, every sample changed, and a few.

use faultmit_apps::datasets::{HarDataset, MadelonDataset, WineQualityDataset};
use faultmit_apps::metrics::explained_variance_score;
use faultmit_apps::preprocessing::{train_test_split, Standardizer};
use faultmit_apps::{
    Benchmark, ElasticNet, FaultyStore, FixedPointFormat, KnnClassifier, Matrix, Pca,
    QualityEvaluator, StoredMatrix,
};
use faultmit_core::{MitigationScheme, Scheme};
use faultmit_memsim::{Backend, BackendKind, Fault, FaultMap, MemoryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SAMPLES: usize = 100;
/// The evaluator's fixed dataset seed and PCA width, rebuilt by hand here.
const DATASET_SEED: u64 = 0xF167;
const PCA_COMPONENTS: usize = 5;

/// The standardised partitions the dense reference rebuilds on every call.
struct DenseSplit {
    train: Matrix,
    train_y: Vec<f64>,
    test_x: Matrix,
    test_y: Vec<f64>,
}

fn dense_split(benchmark: Benchmark) -> DenseSplit {
    let (features, targets) = match benchmark {
        Benchmark::Elasticnet => {
            let dataset = WineQualityDataset::new(SAMPLES, DATASET_SEED).generate();
            (dataset.features, dataset.targets)
        }
        Benchmark::Pca => {
            let dataset = MadelonDataset::new(SAMPLES, 5, 15, 20, DATASET_SEED).generate();
            let labels = dataset.labels.iter().map(|&l| l as f64).collect();
            (dataset.features, labels)
        }
        Benchmark::Knn => {
            let dataset = HarDataset::new(SAMPLES, DATASET_SEED).generate();
            let labels = dataset.labels.iter().map(|&l| l as f64).collect();
            (dataset.features, labels)
        }
    };
    let split = train_test_split(&features, &targets, 0.8).unwrap();
    let scaler = Standardizer::fit(&split.train_x);
    DenseSplit {
        train: scaler.transform(&split.train_x).unwrap(),
        train_y: split.train_y,
        test_x: scaler.transform(&split.test_x).unwrap(),
        test_y: split.test_y,
    }
}

/// The dense reference: a fresh dataset, every word through the scheme, a
/// fresh fit.
fn dense_quality(benchmark: Benchmark, scheme: &Scheme, faults: &FaultMap) -> f64 {
    let split = dense_split(benchmark);
    let train = FaultyStore::new(scheme, faults, FixedPointFormat::q15_16())
        .unwrap()
        .round_trip_matrix(&split.train)
        .unwrap();
    match benchmark {
        Benchmark::Elasticnet => {
            let mut model = ElasticNet::paper_default().unwrap();
            model.fit(&train, &split.train_y).unwrap();
            model.score(&split.test_x, &split.test_y).unwrap()
        }
        Benchmark::Pca => {
            let mut pca = Pca::new(PCA_COMPONENTS).unwrap();
            pca.fit(&train).unwrap();
            let projected = pca.transform(&split.test_x).unwrap();
            let reconstructed = pca.inverse_transform(&projected).unwrap();
            explained_variance_score(split.test_x.as_slice(), reconstructed.as_slice()).unwrap()
        }
        Benchmark::Knn => {
            let labels = |y: &[f64]| y.iter().map(|&l| l as usize).collect::<Vec<_>>();
            let mut knn = KnnClassifier::paper_default().unwrap();
            knn.fit(&train, &labels(&split.train_y)).unwrap();
            knn.score(&split.test_x, &labels(&split.test_y)).unwrap()
        }
    }
}

/// A memory with about three training words per row, so every row wraps
/// and a stuck-at cell that agrees with all of a row's words exists in
/// most rows.
fn memory_config(benchmark: Benchmark) -> MemoryConfig {
    let train = dense_split(benchmark).train;
    MemoryConfig::new(train.rows() * train.cols() / 3, 32).unwrap()
}

/// Maps that reach every branch of the sparse read-back, scheme-independent.
fn fault_maps(config: MemoryConfig, rng: &mut StdRng) -> Vec<(String, FaultMap)> {
    let rows = config.rows();
    let mut maps = vec![("empty".to_owned(), FaultMap::new(config))];
    // One flip in every row: each word is exposed, and SECDED corrects all
    // of them (clean path).
    let one_per_row = (0..rows).map(|row| Fault::bit_flip(row, rng.gen_range(0usize..32)));
    maps.push((
        "one fault per row".to_owned(),
        FaultMap::from_faults(config, one_per_row).unwrap(),
    ));
    // Two flips in a few rows: SECDED reads those rows dirty.
    let mut multi = Vec::new();
    for _ in 0..6 {
        let row = rng.gen_range(0..rows);
        let col = rng.gen_range(0usize..32);
        let other = (col + rng.gen_range(1usize..32)) % 32;
        multi.extend([Fault::bit_flip(row, col), Fault::bit_flip(row, other)]);
    }
    maps.push((
        "multi-fault rows".to_owned(),
        FaultMap::from_faults(config, multi).unwrap(),
    ));
    // Each technology's spatial law (DRAM clusters faults into rows).
    for kind in [BackendKind::Sram, BackendKind::Dram, BackendKind::Mlc] {
        let backend = Backend::at_p_cell(kind, config, 1e-3).unwrap();
        for n_faults in [4, 16] {
            let faults = backend.sample_with_count(rng, n_faults).unwrap();
            maps.push((format!("{kind} n={n_faults}"), faults));
        }
    }
    maps
}

/// Stuck-at cells that agree with what `scheme` stores: in every row where
/// one exists, the first single cell that leaves each of the row's words
/// intact.
fn agreeing_stuck_at(scheme: &Scheme, config: MemoryConfig, words: &[u64]) -> FaultMap {
    let rows = config.rows();
    let faults = (0..rows).filter_map(|row| {
        (0..32)
            .flat_map(|col| {
                [
                    Fault::stuck_at_zero(row, col),
                    Fault::stuck_at_one(row, col),
                ]
            })
            .find(|&fault| {
                let single = FaultMap::from_faults(config, [fault]).unwrap();
                words
                    .iter()
                    .skip(row)
                    .step_by(rows)
                    .all(|&word| scheme.observe(&single, row, word).value == word)
            })
    });
    FaultMap::from_faults(config, faults).unwrap()
}

/// Training samples (rows) that `scheme` reads back changed on `faults`.
fn changed_samples(scheme: &Scheme, faults: &FaultMap, stored: &StoredMatrix) -> usize {
    let store = FaultyStore::new(scheme, faults, FixedPointFormat::q15_16()).unwrap();
    let Some(patched) = store.read_back(stored) else {
        return 0;
    };
    let cols = patched.cols();
    patched
        .as_slice()
        .chunks_exact(cols)
        .zip(stored.clean().as_slice().chunks_exact(cols))
        .filter(|(patched, clean)| patched != clean)
        .count()
}

#[test]
fn sparse_quality_is_bit_identical_to_the_dense_reference() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let format = FixedPointFormat::q15_16();
    for benchmark in Benchmark::ALL {
        let config = memory_config(benchmark);
        let evaluator = QualityEvaluator::builder(benchmark)
            .samples(SAMPLES)
            .memory_rows(config.rows())
            .build()
            .unwrap();
        let clean = FaultMap::new(config);
        let baseline = evaluator.baseline_quality().unwrap();
        assert_eq!(
            baseline.to_bits(),
            dense_quality(benchmark, &Scheme::unprotected32(), &clean).to_bits(),
            "{benchmark:?} baseline"
        );

        let stored = StoredMatrix::new(&dense_split(benchmark).train, format);
        let maps = fault_maps(config, &mut rng);
        if benchmark == Benchmark::Knn {
            // Without protection the maps reach every case of the neighbour
            // cache's merge: no changed sample, all of them, and a few.
            let samples = stored.clean().rows();
            for (label, faults) in &maps {
                let changed = changed_samples(&Scheme::unprotected32(), faults, &stored);
                match label.as_str() {
                    "empty" => assert_eq!(changed, 0, "{label}"),
                    "one fault per row" => assert_eq!(changed, samples, "{label}"),
                    _ => assert!(
                        changed > 0 && changed < samples,
                        "{label}: {changed} of {samples} samples changed"
                    ),
                }
            }
        }
        for scheme in Scheme::fig7_catalogue() {
            let agreeing = agreeing_stuck_at(&scheme, config, stored.words());
            assert!(
                agreeing.faulty_row_count() * 2 > config.rows(),
                "{benchmark:?} {}: only {} agreeing rows",
                scheme.name(),
                agreeing.faulty_row_count()
            );
            // The agreeing map takes the clean path despite its faults.
            let store = FaultyStore::new(&scheme, &agreeing, format).unwrap();
            assert_eq!(store.read_back(&stored), None, "{}", scheme.name());

            let cases = maps
                .iter()
                .map(|(label, faults)| (label.as_str(), faults))
                .chain([("agreeing stuck-at", &agreeing)]);
            for (label, faults) in cases {
                let sparse = evaluator.quality_with_fault_map(&scheme, faults).unwrap();
                let dense = dense_quality(benchmark, &scheme, faults);
                assert_eq!(
                    sparse.to_bits(),
                    dense.to_bits(),
                    "{benchmark:?} {} on {label}: sparse {sparse} vs dense {dense}",
                    scheme.name()
                );
            }
        }
    }
}
