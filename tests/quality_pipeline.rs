//! Integration tests of the application-quality pipeline (Table 1 / Fig. 7):
//! dataset generation → fixed-point storage in a faulty memory → training →
//! quality metric, across protection schemes.

use faultmit::apps::{Benchmark, QualityEvaluator};
use faultmit::core::Scheme;
use faultmit::memsim::{Backend, Fault, FaultMap, SramVddBackend};
use faultmit::sim::ShardSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evaluator(benchmark: Benchmark) -> QualityEvaluator {
    QualityEvaluator::builder(benchmark)
        .samples(160)
        .memory_rows(512)
        .build()
        .unwrap()
}

#[test]
fn every_benchmark_has_a_meaningful_baseline() {
    for benchmark in Benchmark::ALL {
        let eval = evaluator(benchmark);
        let baseline = eval.baseline_quality().unwrap();
        assert!(
            baseline > 0.2 && baseline <= 1.0,
            "{benchmark:?}: baseline {baseline}"
        );
    }
}

#[test]
fn secded_reference_keeps_quality_at_baseline_for_single_fault_rows() {
    // The Fig. 7 plots normalise so that H(39,32) SECDED sits at 1.0; with at
    // most one fault per word the SECDED-protected run must match the
    // fault-free baseline bit-for-bit.
    for benchmark in Benchmark::ALL {
        let eval = evaluator(benchmark);
        let baseline = eval.baseline_quality().unwrap();
        let config = eval.memory_config();
        // One fault per row in distinct rows.
        let faults = FaultMap::from_faults(
            config,
            (0..64).map(|r| Fault::bit_flip(r * 7 % config.rows(), (r * 5) % 32)),
        )
        .unwrap();
        let quality = eval
            .quality_with_fault_map(&Scheme::secded32(), &faults)
            .unwrap();
        assert!(
            (quality - baseline).abs() < 1e-9,
            "{benchmark:?}: SECDED quality {quality} vs baseline {baseline}"
        );
    }
}

#[test]
fn shuffling_beats_no_protection_under_heavy_msb_corruption() {
    for benchmark in Benchmark::ALL {
        let eval = evaluator(benchmark);
        let baseline = eval.baseline_quality().unwrap();
        let config = eval.memory_config();
        // Sign-bit faults in every fourth row: catastrophic without
        // protection.
        let faults = FaultMap::from_faults(
            config,
            (0..config.rows())
                .step_by(4)
                .map(|r| Fault::bit_flip(r, 31)),
        )
        .unwrap();

        let unprotected = eval
            .quality_with_fault_map(&Scheme::unprotected32(), &faults)
            .unwrap();
        let shuffled = eval
            .quality_with_fault_map(&Scheme::shuffle32(5).unwrap(), &faults)
            .unwrap();

        assert!(
            shuffled >= unprotected,
            "{benchmark:?}: shuffled {shuffled} vs unprotected {unprotected}"
        );
        assert!(
            (baseline - shuffled).abs() < 0.1,
            "{benchmark:?}: shuffled quality {shuffled} should stay near baseline {baseline}"
        );
    }
}

#[test]
fn fig7_ordering_no_correction_vs_shuffle_on_random_fault_maps() {
    // Average over a handful of random fault maps at a high fault count: the
    // bit-shuffling quality must dominate the unprotected quality, and the
    // nFM=2 configuration must be at least as good as P-ECC on average (the
    // paper's observation that nFM=2 already beats P-ECC).
    let eval = evaluator(Benchmark::Elasticnet);
    let baseline = eval.baseline_quality().unwrap();
    let sram = Backend::Sram(SramVddBackend::with_p_cell(eval.memory_config(), 1e-3).unwrap());
    let mut rng = StdRng::seed_from_u64(31);

    let mut sums = [0.0f64; 3]; // unprotected, pecc, shuffle2
    let runs = 6;
    for _ in 0..runs {
        let faults = sram.sample_with_count(&mut rng, 96).unwrap();
        sums[0] += eval
            .quality_with_fault_map(&Scheme::unprotected32(), &faults)
            .unwrap();
        sums[1] += eval
            .quality_with_fault_map(&Scheme::pecc32(), &faults)
            .unwrap();
        sums[2] += eval
            .quality_with_fault_map(&Scheme::shuffle32(2).unwrap(), &faults)
            .unwrap();
    }
    let unprotected = sums[0] / runs as f64;
    let pecc = sums[1] / runs as f64;
    let shuffle2 = sums[2] / runs as f64;

    assert!(
        shuffle2 > unprotected,
        "shuffle2 {shuffle2} vs unprotected {unprotected}"
    );
    assert!(
        shuffle2 + 1e-6 >= pecc,
        "shuffle2 {shuffle2} should not lose to P-ECC {pecc}"
    );
    assert!(
        (baseline - shuffle2).abs() < 0.15,
        "shuffle2 {shuffle2} vs baseline {baseline}"
    );
}

#[test]
fn quality_cdf_campaign_produces_weighted_distributions() {
    let eval = QualityEvaluator::builder(Benchmark::Knn)
        .samples(120)
        .memory_rows(256)
        .build()
        .unwrap();
    let schemes = [Scheme::shuffle32(1).unwrap()];
    let sram = Backend::Sram(SramVddBackend::with_p_cell(eval.memory_config(), 1e-3).unwrap());
    let (state, _) = eval
        .quality_shard_on(&schemes, &sram, 4, 3, 17, ShardSpec::solo())
        .unwrap();
    let result = eval
        .quality_results_from_state(&schemes, &sram, state)
        .unwrap()
        .remove(0);
    assert!(result.baseline_quality > 0.5);
    assert!(!result.cdf.is_empty());
    // Normalised quality lives in [0, 1].
    assert!(result.cdf.max().unwrap() <= 1.0 + 1e-12);
    assert!(result.cdf.min().unwrap() >= 0.0);
    // Yield at a trivially low quality bar is essentially 1.
    assert!(result.yield_at_min_quality(0.0) > 0.99);
}
