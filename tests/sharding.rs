//! Shard-merge bit-identity gates for the distributed campaign path: for
//! every fault backend, a campaign split into K shards and merged in shard
//! order must be **bit-identical** to the monolithic run — raw sample
//! streams, per-count CDF sketches and their order-sensitive floating-point
//! weight sums alike — at any worker count. Monolithic execution must
//! itself be the 0/1 shard, not a separate code path.

mod common;
#[path = "common/strata.rs"]
mod strata;

use common::{per_scheme, Joined, Samples};
use faultmit::analysis::{memory_mse, CatalogueAccumulator, MonteCarloEngine};
use faultmit::core::Scheme;
use faultmit::memsim::{Backend, BackendKind, MemoryConfig};
use faultmit::sim::{Campaign, CampaignConfig, Parallelism, ShardSpec};
use strata::assert_same_strata;

const SEED: u64 = 0x5AAD_0003;
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

#[test]
fn every_backend_shards_bit_identically_at_every_split() {
    // The raw-sample layer: the shard union must reproduce the exact global
    // sample stream for iid (SRAM), clustered (DRAM) and level-weighted
    // (MLC) fault processes alike.
    let memory = MemoryConfig::new(512, 32).unwrap();
    let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 5e-4).unwrap();
        let campaign = Campaign::new(
            CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(12)
                .with_max_failures(10)
                .with_chunk_size(5),
        );
        let evaluate = |map: &_, metrics: &mut [f64]| {
            per_scheme(&schemes, memory_mse)(map, metrics);
            Ok::<(), std::convert::Infallible>(())
        };
        let run = |shard| {
            campaign
                .run_shard(&schemes, SEED, shard, evaluate)
                .unwrap()
                .0
        };
        let monolithic = Joined::of([run(ShardSpec::solo())]);
        assert_eq!(monolithic.dies.len(), 120, "{kind}");

        for shard_count in SHARD_COUNTS {
            let merged = Joined::of(ShardSpec::all(shard_count).map(run));
            assert_eq!(merged, monolithic, "{kind}: {shard_count} shards diverge");
        }
    }
}

#[test]
fn engine_shard_states_merge_bit_identically_for_every_backend() {
    // One layer up: the MSE engine's accumulator states, CDFs and
    // order-sensitive weight sums, per backend and per shard split.
    let memory = MemoryConfig::new(256, 32).unwrap();
    let schemes = [Scheme::unprotected32(), Scheme::secded32()];
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
        let engine = MonteCarloEngine::new(
            CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(10)
                .with_max_failures(8),
        );
        let monolithic = engine.run_catalogue(&schemes, SEED).unwrap();

        for shard_count in SHARD_COUNTS {
            let mut merged = CatalogueAccumulator::new(schemes.len());
            for index in 0..shard_count {
                let shard = ShardSpec::new(index, shard_count).unwrap();
                merged.merge(
                    engine
                        .run_catalogue_shard_on_image_stats(&schemes, SEED, shard, None)
                        .unwrap()
                        .0,
                );
            }
            let results = engine.results_from_state(&schemes, merged).unwrap();
            for (a, b) in monolithic.iter().zip(&results) {
                assert_same_strata(a, b, &format!("{kind}: {shard_count} shards"));
            }
        }
    }
}

#[test]
fn data_image_campaigns_shard_bit_identically() {
    // The image axis joins the shard-merge gate: for every image kind, a
    // data-aware stuck-at campaign split into K shards and merged in shard
    // order must reproduce the monolithic accumulation exactly.
    use faultmit::memsim::{FaultKindLaw, ImageSpec};
    let memory = MemoryConfig::new(256, 32).unwrap();
    let schemes = [Scheme::unprotected32(), Scheme::secded32()];
    let backend = Backend::at_p_cell(BackendKind::Dram, memory, 1e-3)
        .unwrap()
        .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 0.9,
        })
        .unwrap();
    for image in [
        ImageSpec::Zeros,
        ImageSpec::Ones,
        ImageSpec::UniformRandom { seed: 7 },
        ImageSpec::Sparse { seed: 7 },
    ] {
        let engine = MonteCarloEngine::new(
            CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(9)
                .with_max_failures(7)
                .with_image(image),
        );
        let monolithic = engine.run_catalogue(&schemes, SEED).unwrap();
        for shard_count in SHARD_COUNTS {
            let mut merged = CatalogueAccumulator::new(schemes.len());
            for index in 0..shard_count {
                let shard = ShardSpec::new(index, shard_count).unwrap();
                merged.merge(
                    engine
                        .run_catalogue_shard_on_image_stats(&schemes, SEED, shard, None)
                        .unwrap()
                        .0,
                );
            }
            let results = engine.results_from_state(&schemes, merged).unwrap();
            for (a, b) in monolithic.iter().zip(&results) {
                assert_same_strata(a, b, &format!("{image}: {shard_count} shards"));
            }
        }
    }
}

#[test]
fn shards_are_worker_count_independent() {
    // Shard boundaries come from the global plan, so a shard computed
    // serially must equal the same shard computed on 4 workers.
    let memory = MemoryConfig::new(256, 32).unwrap();
    let schemes = [Scheme::unprotected32()];
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
        let base = CampaignConfig::for_backend(backend)
            .unwrap()
            .with_samples_per_count(9)
            .with_max_failures(6)
            .with_chunk_size(3);
        let shard = ShardSpec::new(1, 3).unwrap();
        let serial = Campaign::new(base.with_parallelism(Parallelism::Serial)).samples(
            &schemes,
            SEED,
            shard,
            per_scheme(&schemes, memory_mse),
        );
        let threaded = Campaign::new(base.with_parallelism(Parallelism::threads(4))).samples(
            &schemes,
            SEED,
            shard,
            per_scheme(&schemes, memory_mse),
        );
        assert_eq!(serial, threaded, "{kind}");
        // The shard evaluated exactly its own sample range.
        let range = Campaign::new(base).shard_sample_range(shard).unwrap();
        let indices: Vec<u64> = serial.dies.iter().map(|die| die.index).collect();
        assert_eq!(indices, range.collect::<Vec<u64>>(), "{kind}");
    }
}
