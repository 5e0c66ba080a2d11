//! End-to-end integration tests spanning the whole workspace: BIST → FM-LUT
//! → shuffled memory → quality analysis, compared against the ECC baselines
//! on identical dies.

use faultmit::analysis::{memory_mse, MonteCarloEngine};
use faultmit::core::{Scheme, SegmentGeometry, ShuffledMemory};
use faultmit::ecc::{DecodeOutcome, EccMemory, PeccMemory};
use faultmit::memsim::{
    Backend, Fault, FaultMap, MarchBist, MemoryConfig, SramArray, SramVddBackend,
};
use faultmit::sim::CampaignConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One die: a binomial failure count, then that many iid faults.
fn sample_die(rows: usize, p_cell: f64, seed: u64) -> FaultMap {
    let config = MemoryConfig::new(rows, 32).unwrap();
    let backend = Backend::Sram(SramVddBackend::with_p_cell(config, p_cell).unwrap());
    let mut rng = StdRng::seed_from_u64(seed);
    let n_faults = backend.failure_distribution().unwrap().sample(&mut rng) as usize;
    backend.sample_with_count(&mut rng, n_faults).unwrap()
}

#[test]
fn bist_driven_shuffled_memory_bounds_errors_on_a_random_die() {
    let config = MemoryConfig::new(512, 32).unwrap();
    let faults = sample_die(512, 2e-3, 11);
    assert!(!faults.is_empty(), "the sampled die should have faults");

    let array = SramArray::with_faults(config, faults);
    for n_fm in 1..=5usize {
        let geometry = SegmentGeometry::new(32, n_fm).unwrap();
        let mut memory = ShuffledMemory::from_bist(geometry, array.clone()).unwrap();
        let bound = geometry.max_error_magnitude();

        let mut violations = 0usize;
        for row in 0..config.rows() {
            let value = (row as u64).wrapping_mul(0x9E37_79B9) & config.word_mask();
            memory.write(row, value).unwrap();
            let read = memory.read(row).unwrap();
            // The single-fault bound can be exceeded only on rows with more
            // than one faulty cell.
            if read.abs_diff(value) > bound
                && memory.array().faults().faulty_columns(row).len() <= 1
            {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "n_FM = {n_fm}");
    }
}

#[test]
fn scheme_observe_matches_real_shuffled_memory_datapath() {
    // The stateless `Scheme::BitShuffle` model used by the analyses must agree
    // with the actual ShuffledMemory write/read datapath for single-fault rows.
    let config = MemoryConfig::new(64, 32).unwrap();
    for col in [0usize, 7, 15, 23, 31] {
        let faults = FaultMap::from_faults(config, [Fault::bit_flip(9, col)]).unwrap();
        for n_fm in 1..=5usize {
            let geometry = SegmentGeometry::new(32, n_fm).unwrap();
            let scheme = Scheme::BitShuffle(geometry);
            let mut memory = ShuffledMemory::from_fault_map(geometry, faults.clone()).unwrap();
            for &value in &[0u64, 0xFFFF_FFFF, 0x1234_5678, 0x8000_0001] {
                memory.write(9, value).unwrap();
                let hardware = memory.read(9).unwrap();
                let model = scheme.observe(&faults, 9, value).value;
                assert_eq!(hardware, model, "col {col}, n_FM {n_fm}, value {value:#x}");
            }
        }
    }
}

#[test]
fn ecc_memories_and_scheme_models_agree_on_correctability() {
    // Single fault per codeword: both the real ECC memory and the analysis
    // model deliver the original data.
    let storage_config = MemoryConfig::new(32, 39).unwrap();
    let faults = FaultMap::from_faults(storage_config, [Fault::bit_flip(5, 31)]).unwrap();
    let mut ecc = EccMemory::h39_32(32, faults).unwrap();
    ecc.write(5, 0xCAFE_F00D).unwrap();
    let decoded = ecc.read(5).unwrap();
    assert_eq!(decoded.data, 0xCAFE_F00D);
    assert_eq!(decoded.outcome, DecodeOutcome::CorrectedSingle);

    let data_config = MemoryConfig::new(32, 32).unwrap();
    let data_faults = FaultMap::from_faults(data_config, [Fault::bit_flip(5, 31)]).unwrap();
    let observed = Scheme::secded32().observe(&data_faults, 5, 0xCAFE_F00D);
    assert_eq!(observed.value, 0xCAFE_F00D);
    assert!(observed.reliable);
}

#[test]
fn pecc_memory_and_scheme_model_agree_on_lsb_exposure() {
    let storage_config = MemoryConfig::new(16, 38).unwrap();
    let faults = FaultMap::from_faults(storage_config, [Fault::bit_flip(2, 7)]).unwrap();
    let mut pecc = PeccMemory::paper_32bit(16, faults).unwrap();
    pecc.write(2, 0xAAAA_0000).unwrap();
    assert_eq!(pecc.read(2).unwrap().data, 0xAAAA_0000 ^ (1 << 7));

    let data_config = MemoryConfig::new(16, 32).unwrap();
    let data_faults = FaultMap::from_faults(data_config, [Fault::bit_flip(2, 7)]).unwrap();
    let observed = Scheme::pecc32().observe(&data_faults, 2, 0xAAAA_0000);
    assert_eq!(observed.value, 0xAAAA_0000 ^ (1 << 7));
}

#[test]
fn fig5_ordering_holds_on_a_sampled_die_population() {
    // On the same die population, the per-scheme MSE at a fixed yield target
    // must follow the paper's ordering: unprotected is orders of magnitude
    // worse than any shuffling configuration, and finer segments help.
    // 256 × 32 = 8192 cells at P_cell = 5e-4: mean ≈ 4 failures; 16 failure
    // counts cover well beyond the 99.9 % yield target queried below.
    let config = CampaignConfig::new(MemoryConfig::new(256, 32).unwrap(), 5e-4)
        .unwrap()
        .with_samples_per_count(25)
        .with_max_failures(16);
    let engine = MonteCarloEngine::new(config);

    let schemes = [
        Scheme::unprotected32(),
        Scheme::shuffle32(1).unwrap(),
        Scheme::shuffle32(5).unwrap(),
    ];
    let [unprotected, shuffle1, shuffle5]: [_; 3] = engine
        .run_catalogue(&schemes, 99)
        .unwrap()
        .try_into()
        .unwrap();

    // 0.99 rather than 0.999: with 25 samples per count the 99.9th
    // percentile is a single order statistic and its value is dominated by
    // whether the worst sampled die happens to contain a double-fault row
    // (which no shuffling granularity can fully protect).
    let target = 0.99;
    let mse_unprotected = unprotected.mse_for_yield(target);
    let mse_shuffle1 = shuffle1.mse_for_yield(target);
    let mse_shuffle5 = shuffle5.mse_for_yield(target);

    // All three are reachable on this small population.
    let (u, s1, s5) = (
        mse_unprotected.expect("unprotected yield target reachable"),
        mse_shuffle1.expect("nFM=1 yield target reachable"),
        mse_shuffle5.expect("nFM=5 yield target reachable"),
    );
    assert!(
        s1 * 30.0 <= u,
        "paper claims ≥30x MSE reduction even for nFM=1: unprotected {u:.3e}, nFM=1 {s1:.3e}"
    );
    assert!(s5 <= s1);
}

#[test]
fn mse_is_consistent_between_scheme_model_and_memory_simulation() {
    // For bit-flip faults and an all-zeros background, the Eq. (6) MSE
    // computed through the Scheme model matches a direct simulation through
    // the unprotected SramArray.
    let config = MemoryConfig::new(128, 32).unwrap();
    let faults = sample_die(128, 1e-3, 5);
    let scheme_mse = memory_mse(&Scheme::unprotected32(), &faults);

    let mut array = SramArray::with_faults(config, faults);
    let mut direct = 0.0;
    for row in 0..config.rows() {
        array.write(row, 0).unwrap();
        let observed = array.read(row).unwrap();
        let mut diff = observed;
        while diff != 0 {
            let bit = diff.trailing_zeros();
            direct += 4.0_f64.powi(bit as i32);
            diff &= diff - 1;
        }
    }
    direct /= config.rows() as f64;
    assert!((scheme_mse - direct).abs() <= 1e-9 * direct.max(1.0));
}

#[test]
fn bist_report_and_fault_map_describe_the_same_die() {
    let config = MemoryConfig::new(256, 32).unwrap();
    let faults = sample_die(256, 2e-3, 21);
    let mut array = SramArray::with_faults(config, faults.clone());
    let report = MarchBist::new().run(&mut array).unwrap();
    assert_eq!(report.fault_count(), faults.fault_count());
    for fault in faults.iter() {
        assert!(report.faulty_columns(fault.row).contains(&fault.col));
    }
}
