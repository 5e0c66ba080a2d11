//! The data-dependence property gates of the data-image subsystem: faults
//! applied *relative to the stored word* must be silent exactly when they
//! agree with the data, the all-zeros image must stay bit-identical to the
//! legacy evaluation path, and asymmetric stuck-at campaigns must show a
//! measurable quality gap between data images.

#[path = "common/strata.rs"]
mod strata;

use faultmit::analysis::{memory_mse, memory_mse_for_data, MonteCarloEngine};
use faultmit::core::{MitigationScheme, Scheme};
use faultmit::memsim::{Backend, BackendKind, FaultKindLaw, ImageSpec, MemoryConfig, StreamSeeder};
use faultmit::sim::CampaignConfig;
use strata::assert_same_strata;

const SEED: u64 = 0x1_DA7A;

fn memory() -> MemoryConfig {
    MemoryConfig::new(256, 32).unwrap()
}

fn stuck_at_zero_backend(kind: BackendKind) -> Backend {
    Backend::at_p_cell(kind, memory(), 1e-3)
        .unwrap()
        .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 1.0,
        })
        .unwrap()
}

#[test]
fn stuck_at_zero_faults_are_invisible_on_a_zeros_image_for_every_scheme() {
    // Draw real fault maps from every backend under the all-stuck-at-0 law
    // and check the per-map property directly: a zeros image observes no
    // error under any scheme, while a ones image observes errors on the
    // unprotected memory for every non-empty map.
    let seeder = StreamSeeder::new(SEED);
    let zeros = vec![0u64; memory().rows()];
    let ones = ImageSpec::Ones.words(memory()).unwrap();
    for kind in BackendKind::ALL {
        let backend = stuck_at_zero_backend(kind);
        for index in 0..20 {
            let n_faults = 1 + index as usize % 5;
            let map = backend
                .sample_with_count(&mut seeder.rng_for_sample(index), n_faults)
                .unwrap();
            for scheme in Scheme::fig5_catalogue() {
                assert_eq!(
                    memory_mse_for_data(&scheme, &map, &zeros),
                    0.0,
                    "{kind}, sample {index}, {}: stuck-at-0 corrupted a zeros image",
                    scheme.name()
                );
            }
            assert!(
                memory_mse_for_data(&Scheme::unprotected32(), &map, &ones) > 0.0,
                "{kind}, sample {index}: stuck-at-0 must corrupt a ones image"
            );
        }
    }
}

#[test]
fn zeros_image_campaigns_are_bit_identical_to_the_legacy_all_zeros_path() {
    // The fig5 protocol at a fixed seed: the legacy engine, the engine with
    // an explicit Zeros image, and the data-aware path fed an explicit
    // all-zeros word vector must accumulate identical bits.
    let schemes = Scheme::fig5_catalogue();
    let build = |image: Option<ImageSpec>| {
        let mut config = CampaignConfig::new(MemoryConfig::paper_16kb(), 5e-6)
            .unwrap()
            .with_samples_per_count(6)
            .with_max_failures(8);
        if let Some(image) = image {
            config = config.with_image(image);
        }
        MonteCarloEngine::new(config)
    };
    let legacy = build(None).run_catalogue(&schemes, SEED).unwrap();
    let imaged = build(Some(ImageSpec::Zeros))
        .run_catalogue(&schemes, SEED)
        .unwrap();
    for (a, b) in legacy.iter().zip(&imaged) {
        assert_same_strata(a, b, "legacy vs explicit zeros");
    }
    // Per-map: memory_mse and memory_mse_for_data on zeros agree exactly.
    let map = stuck_at_zero_backend(BackendKind::Mlc)
        .sample_with_count(&mut StreamSeeder::new(SEED).rng_for_sample(0), 7)
        .unwrap();
    let zeros = vec![0u64; memory().rows()];
    for scheme in Scheme::fig5_catalogue() {
        assert_eq!(
            memory_mse(&scheme, &map).to_bits(),
            memory_mse_for_data(&scheme, &map, &zeros).to_bits(),
            "{}",
            scheme.name()
        );
    }
}

#[test]
fn asymmetric_campaigns_show_a_measurable_gap_between_images() {
    // The acceptance property: under a decay-style stuck-at law (90% of
    // faulty cells read 0) the ones image suffers far more than the zeros
    // image, with the uniform-random image strictly in between.
    let backend = Backend::at_p_cell(BackendKind::Mlc, memory(), 1e-3)
        .unwrap()
        .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 0.9,
        })
        .unwrap();
    let mean_for = |image: ImageSpec| {
        let engine = MonteCarloEngine::new(
            CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(20)
                .with_max_failures(8)
                .with_image(image),
        );
        engine
            .run_catalogue(&[Scheme::unprotected32()], SEED)
            .unwrap()[0]
            .yield_model
            .combined_mean(0.0)
            .unwrap()
    };
    let zeros = mean_for(ImageSpec::Zeros);
    let ones = mean_for(ImageSpec::Ones);
    let random = mean_for(ImageSpec::UniformRandom { seed: 11 });
    assert!(
        ones > 3.0 * zeros,
        "no measurable gap: zeros = {zeros}, ones = {ones}"
    );
    assert!(
        zeros < random && random < ones,
        "random image must sit between the extremes: {zeros} / {random} / {ones}"
    );
}

#[test]
fn sparse_images_behave_like_near_zero_backgrounds() {
    // A low-entropy image stores almost no 1 bits, so a stuck-at-0-heavy
    // law barely hurts it — the application-data property the
    // heterogeneous-reliability line of work exploits.
    let backend = Backend::at_p_cell(BackendKind::Dram, memory(), 1e-3)
        .unwrap()
        .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 1.0,
        })
        .unwrap();
    let mean_for = |image: ImageSpec| {
        MonteCarloEngine::new(
            CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(12)
                .with_max_failures(6)
                .with_image(image),
        )
        .run_catalogue(&[Scheme::unprotected32()], SEED)
        .unwrap()[0]
            .yield_model
            .combined_mean(0.0)
            .unwrap()
    };
    let sparse = mean_for(ImageSpec::Sparse { seed: 5 });
    let ones = mean_for(ImageSpec::Ones);
    assert!(
        sparse < ones / 10.0,
        "sparse data must be nearly immune to stuck-at-0 decay: {sparse} vs {ones}"
    );
}
