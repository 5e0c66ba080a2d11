//! Randomized property tests of the bit-shuffling invariants — the heart of
//! the paper's claim: for any single fault and any stored value, the error
//! magnitude is bounded by `2^(S-1)`.
//!
//! The offline build has no `proptest`, so each property is exercised over a
//! seeded random sweep.

use faultmit_core::{rotate_left, rotate_right, FmLut, Scheme, SegmentGeometry, ShuffledMemory};
use faultmit_memsim::{Fault, FaultKind, FaultMap, MemoryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const CASES: usize = 256;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn random_kind(rng: &mut StdRng) -> FaultKind {
    match rng.gen_range(0..3) {
        0 => FaultKind::StuckAtZero,
        1 => FaultKind::StuckAtOne,
        _ => FaultKind::BitFlip,
    }
}

/// Rotation is a bijection: rotate right then left restores the word for
/// any width, shift and value.
#[test]
fn rotation_round_trips() {
    let mut rng = rng(201);
    for _ in 0..CASES {
        let width = 1usize << rng.gen_range(0u32..7); // 1, 2, 4, ..., 64
        let shift = rng.gen_range(0usize..256);
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let value = rng.gen::<u64>() & mask;
        let stored = rotate_right(value, shift, width);
        assert_eq!(rotate_left(stored, shift, width), value);
        assert_eq!(stored & !mask, 0);
        assert_eq!(stored.count_ones(), value.count_ones());
    }
}

/// The headline invariant: a single fault anywhere in the word, any fault
/// kind, any stored value, any segment size — the observed error is at
/// most `2^(S-1)`.
#[test]
fn single_fault_error_is_bounded_for_all_geometries() {
    let mut rng = rng(202);
    for _ in 0..CASES {
        let value = rng.gen::<u32>() as u64;
        let col = rng.gen_range(0usize..32);
        let n_fm = rng.gen_range(1usize..=5);
        let kind = random_kind(&mut rng);
        let row = rng.gen_range(0usize..16);

        let geometry = SegmentGeometry::new(32, n_fm).unwrap();
        let config = MemoryConfig::new(16, 32).unwrap();
        let faults = FaultMap::from_faults(config, [Fault::new(row, col, kind)]).unwrap();
        let mut memory = ShuffledMemory::from_fault_map(geometry, faults).unwrap();
        memory.write(row, value).unwrap();
        let read = memory.read(row).unwrap();
        assert!(
            read.abs_diff(value) <= geometry.max_error_magnitude(),
            "error {} exceeds bound {}",
            read.abs_diff(value),
            geometry.max_error_magnitude()
        );
    }
}

/// The stateless analysis model (`Scheme::BitShuffle`) agrees with the
/// stateful ShuffledMemory datapath for single-fault rows.
#[test]
fn scheme_model_matches_hardware_datapath() {
    let mut rng = rng(203);
    for _ in 0..CASES {
        let value = rng.gen::<u32>() as u64;
        let col = rng.gen_range(0usize..32);
        let n_fm = rng.gen_range(1usize..=5);

        let geometry = SegmentGeometry::new(32, n_fm).unwrap();
        let config = MemoryConfig::new(8, 32).unwrap();
        let faults = FaultMap::from_faults(config, [Fault::bit_flip(2, col)]).unwrap();
        let mut memory = ShuffledMemory::from_fault_map(geometry, faults.clone()).unwrap();
        memory.write(2, value).unwrap();
        let hardware = memory.read(2).unwrap();
        let model = Scheme::BitShuffle(geometry).observe(&faults, 2, value);
        assert_eq!(hardware, model.value);
        assert!(model.reliable);
    }
}

/// Bit-shuffling never makes things worse than no protection for
/// single-fault rows: the per-bit worst-case error magnitude is bounded by
/// the unprotected one for every scheme in the catalogue.
#[test]
fn worst_case_error_never_exceeds_unprotected() {
    let unprotected = Scheme::unprotected32();
    for bit in 0usize..32 {
        for scheme in Scheme::fig5_catalogue() {
            assert!(
                scheme.worst_case_error_magnitude(bit)
                    <= unprotected.worst_case_error_magnitude(bit)
            );
        }
    }
}

/// The FM-LUT shift choice places the faulty cell inside the least
/// significant shifted segment for single-fault rows: the affected data
/// bit is always below the segment size.
#[test]
fn chosen_shift_maps_fault_to_lsb_segment() {
    for col in 0usize..32 {
        for n_fm in 1usize..=5 {
            let geometry = SegmentGeometry::new(32, n_fm).unwrap();
            let x = FmLut::choose_shift(geometry, 1 << col);
            let shift = geometry.shift_amount(x).unwrap();
            // Data bit stored in the faulty physical column after the write
            // rotation: (col + shift) mod W must be a low-significance bit.
            let affected = (col + shift) % 32;
            assert!(affected < geometry.segment_bits());
        }
    }
}

/// The u128 reference of the FM-LUT vote: candidate `x`'s summed squared
/// error magnitude, `Σ 4^b` over the data bits `b` the faulty columns store
/// after a right rotation by `x·S` (every term fits: `4^63 < 2^127`).
fn shift_cost(geometry: SegmentGeometry, faulty: u64, x: usize) -> u128 {
    let width = geometry.word_bits();
    let shift = x * geometry.segment_bits();
    (0..width)
        .filter(|&col| (faulty >> col) & 1 == 1)
        .map(|col| 1u128 << (2 * ((col + width - shift) % width)))
        .sum()
}

/// The cheapest candidate by [`shift_cost`], ties to the smaller index.
fn reference_shift(geometry: SegmentGeometry, faulty: u64) -> usize {
    (0..geometry.segment_count())
        .min_by_key(|&x| (shift_cost(geometry, faulty, x), x))
        .expect("a geometry has at least two segments")
}

/// Multi-fault rows: the optimised shift choice is never worse (in summed
/// squared error magnitude) than naively aligning to the most significant
/// faulty bit, and it is exactly the u128 cost argmin with ties going to the
/// smaller index — at every power-of-two width up to 64 and every `n_FM`,
/// over every mask at `W ≤ 8`, and over random, clustered and periodic
/// masks (whose rotations tie) above.
#[test]
fn multi_fault_shift_choice_is_optimal_enough() {
    let mut rng = rng(204);
    for _ in 0..CASES {
        let n_fm = rng.gen_range(1usize..=5);
        let n_cols = rng.gen_range(1usize..5);
        let cols: BTreeSet<usize> = (0..n_cols).map(|_| rng.gen_range(0usize..32)).collect();

        let geometry = SegmentGeometry::new(32, n_fm).unwrap();
        let faulty = cols.iter().fold(0u64, |mask, &col| mask | 1 << col);
        let chosen = FmLut::choose_shift(geometry, faulty);
        let naive = geometry.segment_of_bit(*cols.iter().max().unwrap());
        assert!(shift_cost(geometry, faulty, chosen) <= shift_cost(geometry, faulty, naive));
    }

    for log2_width in 1..=6u32 {
        let width = 1usize << log2_width;
        let word_mask = u64::MAX >> (64 - width);
        let mut masks: Vec<u64> = Vec::new();
        if width <= 8 {
            masks.extend(0..=word_mask);
        } else {
            masks.extend([0, word_mask, 1, 1 << (width - 1), word_mask - 1]);
            for _ in 0..CASES {
                // Any density, from two faults to a full row.
                let n_faults = rng.gen_range(2..=width);
                let cols: BTreeSet<usize> =
                    (0..n_faults).map(|_| rng.gen_range(0..width)).collect();
                masks.push(cols.iter().fold(0, |mask, &col| mask | 1 << col));
                // A cluster: a run of neighbouring columns, wrapping round.
                let start = rng.gen_range(0..width);
                let run = rng.gen_range(2usize..=8);
                masks.push((0..run).fold(0, |mask, i| mask | 1 << ((start + i) % width)));
            }
            // Periodic masks: rotating by a multiple of the period gives
            // the same mask, so several candidates tie exactly.
            for log2_period in 0..log2_width {
                let period = 1usize << log2_period;
                for _ in 0..8 {
                    let pattern = rng.gen_range(1u64..=u64::MAX >> (64 - period));
                    masks.push(
                        (0..width / period).fold(0, |mask, i| mask | pattern << (i * period)),
                    );
                }
            }
        }
        for n_fm in 1..=log2_width as usize {
            let geometry = SegmentGeometry::new(width, n_fm).unwrap();
            for &faulty in &masks {
                assert_eq!(
                    FmLut::choose_shift(geometry, faulty),
                    reference_shift(geometry, faulty),
                    "W = {width}, nFM = {n_fm}, faulty = {faulty:#x}"
                );
            }
        }
    }
}
