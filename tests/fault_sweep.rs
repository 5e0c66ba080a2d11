//! Failure-injection sweep across fault densities and fault kinds: the
//! quality ordering between protection schemes must hold from the
//! single-fault regime the paper analyses up to heavily degraded dies, and
//! for stuck-at as well as bit-flip cell behaviour.

use faultmit::analysis::memory_mse;
use faultmit::core::{MitigationScheme, Scheme, SegmentGeometry, ShuffledMemory};
use faultmit::memsim::{Backend, FaultKindLaw, MemoryConfig, SramVddBackend, VddSweep};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 256;

/// The paper's iid placement with the given cell behaviour.
fn sampler(law: FaultKindLaw) -> Backend {
    Backend::Sram(SramVddBackend::with_p_cell(MemoryConfig::new(ROWS, 32).unwrap(), 1e-3).unwrap())
        .with_kind_law(law)
        .unwrap()
}

#[test]
fn mse_ordering_holds_across_fault_densities() {
    let mut rng = StdRng::seed_from_u64(101);
    let sampler = sampler(FaultKindLaw::AlwaysFlip);
    for &n_faults in &[1usize, 4, 16, 64, 256, 1024] {
        let mut unprotected_sum = 0.0;
        let mut shuffle1_sum = 0.0;
        let mut shuffle5_sum = 0.0;
        let runs = 10;
        for _ in 0..runs {
            let faults = sampler.sample_with_count(&mut rng, n_faults).unwrap();
            unprotected_sum += memory_mse(&Scheme::unprotected32(), &faults);
            shuffle1_sum += memory_mse(&Scheme::shuffle32(1).unwrap(), &faults);
            shuffle5_sum += memory_mse(&Scheme::shuffle32(5).unwrap(), &faults);
        }
        // Finer segments are never worse, and both beat no protection at
        // every density. The advantage shrinks as rows accumulate several
        // faults (only one fault per row can be steered into the LSB
        // segment), so the strict orders-of-magnitude requirement applies
        // only to the low-density regime the paper operates in.
        assert!(
            shuffle5_sum <= shuffle1_sum + 1e-9,
            "{n_faults} faults: nFM=5 {shuffle5_sum} vs nFM=1 {shuffle1_sum}"
        );
        assert!(
            shuffle1_sum < unprotected_sum / 2.0,
            "{n_faults} faults: nFM=1 {shuffle1_sum} vs unprotected {unprotected_sum}"
        );
        // At 16+ faults over 256 rows the occasional double-fault row (which
        // nFM=1 cannot fully protect: one fault stays in the high segment)
        // dominates the sum, so the strict factor applies below that density.
        if n_faults <= 4 {
            assert!(
                shuffle1_sum < unprotected_sum / 100.0,
                "{n_faults} faults: nFM=1 {shuffle1_sum} vs unprotected {unprotected_sum}"
            );
        }
    }
}

#[test]
fn stuck_at_fault_populations_are_also_mitigated() {
    // The paper injects bit-flips; real cells are often stuck-at. The bound
    // still holds because a silent stuck-at fault causes no error at all and
    // an active one behaves like a flip.
    let mut rng = StdRng::seed_from_u64(202);
    for law in [
        FaultKindLaw::RandomStuckAt,
        FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 0.9,
        },
    ] {
        let sampler = sampler(law);
        let faults = sampler.sample_with_count(&mut rng, 128).unwrap();
        for n_fm in [1usize, 3, 5] {
            let geometry = SegmentGeometry::new(32, n_fm).unwrap();
            let mut memory = ShuffledMemory::from_fault_map(geometry, faults.clone()).unwrap();
            let bound = geometry.max_error_magnitude();
            for row in 0..ROWS {
                let value = (row as u64).wrapping_mul(0xDEAD_BEEF) & 0xFFFF_FFFF;
                memory.write(row, value).unwrap();
                let read = memory.read(row).unwrap();
                if memory.array().faults().faulty_columns(row).len() <= 1 {
                    assert!(
                        read.abs_diff(value) <= bound,
                        "law {law}, nFM={n_fm}, row {row}"
                    );
                }
            }
        }
    }
}

#[test]
fn scheme_error_bound_survives_saturated_fault_rows() {
    // Even when *every* row has a fault (far beyond the paper's operating
    // point), the per-row error of the single-bit-segment scheme stays at 1
    // for single-fault rows — the protection degrades gracefully rather than
    // collapsing.
    let config = MemoryConfig::new(ROWS, 32).unwrap();
    let faults = faultmit::memsim::FaultMap::from_faults(
        config,
        (0..ROWS).map(|r| faultmit::memsim::Fault::bit_flip(r, (r * 13) % 32)),
    )
    .unwrap();
    let scheme = Scheme::shuffle32(5).unwrap();
    for row in (0..ROWS).step_by(17) {
        let observed = scheme.observe(&faults, row, 0x7FFF_FFFF);
        assert!(observed.value.abs_diff(0x7FFF_FFFF) <= 1);
    }
    assert!(memory_mse(&scheme, &faults) <= 1.0 + 1e-9);
}

#[test]
fn voltage_sweep_keeps_protected_mse_bounded_per_fault() {
    // Along a V_DD sweep of one die, the shuffled memory's MSE grows at most
    // linearly with the number of faults (bounded contribution per fault),
    // while the unprotected MSE can jump by orders of magnitude.
    let mut rng = StdRng::seed_from_u64(303);
    let model = faultmit::memsim::FailureModelBuilder::new()
        .anchor(1.0, 1e-5)
        .anchor(0.6, 1e-2)
        .build()
        .unwrap();
    let die = faultmit::memsim::VoltageScaledDie::manufacture(
        MemoryConfig::new(1024, 32).unwrap(),
        model,
        &mut rng,
    );
    let scheme = Scheme::shuffle32(5).unwrap();
    for vdd in VddSweep::new(0.6, 1.0, 5).unwrap().voltages() {
        let faults = die.fault_map_at(vdd).unwrap();
        let mse = memory_mse(&scheme, &faults);
        // The per-fault bound of 4^0 = 1 applies when each row has at most
        // one fault; at the lowest voltages some rows accumulate several
        // faults, where the scheme still beats no protection but cannot
        // bound every fault.
        if faults.max_faults_per_row() <= 1 {
            assert!(
                mse <= faults.fault_count() as f64 / 1024.0 + 1e-9,
                "V_DD {vdd}: MSE {mse} with {} faults",
                faults.fault_count()
            );
        } else {
            let unprotected = memory_mse(&Scheme::unprotected32(), &faults);
            assert!(
                mse < unprotected,
                "V_DD {vdd}: shuffled MSE {mse} vs unprotected {unprotected}"
            );
        }
    }
}
