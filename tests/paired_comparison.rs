//! Property tests of the pipeline's paired scheme comparison: on a *shared*
//! fault map, bit-shuffling's per-die MSE must never exceed the unprotected
//! scheme's MSE — for any memory geometry, any segment granularity and any
//! fault density. The guarantee is structural: `FmLut::choose_shift`
//! searches all `2^{n_FM}` candidate rotations and the identity rotation is
//! always among them, so the chosen rotation can only lower the summed
//! squared error magnitude.
//!
//! These properties are exactly what the paired pipeline makes testable:
//! with per-scheme resampling (the pre-pipeline engine) the comparison would
//! only hold in distribution, not per die.

mod common;

use common::{per_scheme, Records};
use faultmit::analysis::memory_mse;
use faultmit::core::{Scheme, SegmentGeometry};
use faultmit::memsim::{Backend, BackendKind, MemoryConfig};
use faultmit::sim::{Campaign, CampaignConfig, Parallelism, ShardSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random geometries: power-of-two word widths 8..=64, every legal `n_FM`.
fn random_geometry(rng: &mut StdRng) -> (MemoryConfig, SegmentGeometry) {
    let word_bits = 1usize << rng.gen_range(3u32..=6);
    let log2_w = word_bits.trailing_zeros() as usize;
    let n_fm = rng.gen_range(1usize..=log2_w);
    let rows = 1usize << rng.gen_range(4u32..=8);
    (
        MemoryConfig::new(rows, word_bits).unwrap(),
        SegmentGeometry::new(word_bits, n_fm).unwrap(),
    )
}

#[test]
fn shuffling_never_exceeds_unprotected_mse_on_shared_dies() {
    let mut rng = StdRng::seed_from_u64(0x9A12ED);
    for case in 0..40 {
        let (memory, geometry) = random_geometry(&mut rng);
        let samples_per_count = rng.gen_range(3usize..8);
        let max_failures = rng.gen_range(1u64..=(memory.total_cells() as u64 / 4).clamp(1, 24));

        let schemes = [
            Scheme::Unprotected {
                word_bits: memory.word_bits(),
            },
            Scheme::BitShuffle(geometry),
        ];
        let config = CampaignConfig::new(memory, 1e-3)
            .unwrap()
            .with_samples_per_count(samples_per_count)
            .with_max_failures(max_failures)
            .with_parallelism(Parallelism::threads(2));
        let records = Campaign::new(config).records(
            &schemes,
            0xBEEF ^ case,
            ShardSpec::solo(),
            per_scheme(&schemes, memory_mse),
        );

        assert!(!records.records.is_empty());
        for record in &records.records {
            let (unprotected, shuffled) = (record.metrics[0], record.metrics[1]);
            assert!(
                shuffled <= unprotected * (1.0 + 1e-12) + 1e-12,
                "case {case}: W={} nFM={} die {} with {} faults: \
                 shuffle MSE {shuffled} > unprotected {unprotected}",
                memory.word_bits(),
                geometry.n_fm(),
                record.sample_index,
                record.n_faults,
            );
        }
    }
}

#[test]
fn shuffling_never_exceeds_unprotected_mse_on_any_backend() {
    // The structural guarantee is backend-agnostic: whatever spatial law
    // placed the faults — iid SRAM flips, clustered DRAM retention bursts,
    // level-weighted MLC errors — `FmLut::choose_shift` includes the
    // identity rotation in its search, so on every shared die the shuffled
    // MSE is bounded by the unprotected MSE.
    let memory = MemoryConfig::new(256, 32).unwrap();
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 2e-3).unwrap();
        for n_fm in [1usize, 3, 5] {
            let schemes = [Scheme::unprotected32(), Scheme::shuffle32(n_fm).unwrap()];
            let config = CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(6)
                .with_max_failures(16)
                .with_parallelism(Parallelism::threads(2));
            let records = Campaign::new(config).records(
                &schemes,
                0xBAC2 + n_fm as u64,
                ShardSpec::solo(),
                per_scheme(&schemes, memory_mse),
            );

            assert!(!records.records.is_empty(), "{kind}");
            for record in &records.records {
                let (unprotected, shuffled) = (record.metrics[0], record.metrics[1]);
                assert!(
                    shuffled <= unprotected * (1.0 + 1e-12) + 1e-12,
                    "{kind} nFM={n_fm}: die {} with {} faults: \
                     shuffle MSE {shuffled} > unprotected {unprotected}",
                    record.sample_index,
                    record.n_faults,
                );
            }
        }
    }
}

#[test]
fn finer_segments_never_lose_on_shared_single_fault_dies() {
    // For dies whose rows each hold at most one fault, the worst-case error
    // bound 2^(S-1) shrinks monotonically with n_FM; verify the realised
    // per-die MSE is monotone too when every scheme sees the same die.
    let schemes: Vec<Scheme> = (1..=5).map(|n| Scheme::shuffle32(n).unwrap()).collect();
    let config = CampaignConfig::new(MemoryConfig::new(512, 32).unwrap(), 1e-4)
        .unwrap()
        .with_samples_per_count(10)
        .with_max_failures(6)
        .with_map_policy(faultmit::sim::MapPolicy::SingleFaultPerRow { max_redraws: 1000 });
    let records = Campaign::new(config).records(
        &schemes,
        0x51CE,
        ShardSpec::solo(),
        per_scheme(&schemes, memory_mse),
    );

    for record in &records.records {
        for pair in record.metrics.windows(2) {
            assert!(
                pair[1] <= pair[0] * (1.0 + 1e-12) + 1e-12,
                "die {}: finer segments regressed ({:?})",
                record.sample_index,
                record.metrics,
            );
        }
    }
}
