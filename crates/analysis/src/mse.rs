//! The local mean-square-error quality function (Eq. (6) of the paper).
//!
//! The paper uses the MSE over the error magnitudes of all words in the
//! memory as a fast, application-agnostic proxy for output quality:
//!
//! ```text
//!   MSE = (1/R) · Σ_i (2^{b_i})²         0 ≤ b_i < W
//! ```
//!
//! where `b_i` is the data-bit position affected by the `i`-th failure after
//! the protection scheme has done its work (a corrected failure contributes
//! nothing; an unprotected failure at the MSB contributes `4^{W-1}`).
//!
//! The implementation evaluates each faulty row through the scheme with an
//! all-zeros background so that every bit-flip fault is observable, and sums
//! `4^b` over the bit positions that differ — identical to Eq. (6) for the
//! paper's bit-flip injection model.
//!
//! The dense evaluators ([`memory_mse`], [`memory_mse_for_data`]) read
//! each row through [`Scheme::observe`], the dense reference the two
//! campaign kernels are gated against. The sparse kernel, [`CatalogueMse`],
//! scores a whole scheme catalogue in one walk over a die's sorted row
//! groups: it scores single-fault rows from a table of every scheme's
//! [`Scheme::single_fault`] entries, hands each scheme the slice of a row
//! with several faults through the row evaluator [`Scheme::observe_sparse`],
//! and gathers written words only for fault-bearing rows. The bit-sliced
//! kernel, [`block_mse_into`], evaluates a whole transposed die block at
//! once through [`Scheme::observe_block`]. All accumulate per-row
//! contributions in ascending row order, so their results are
//! **bit-identical** (the `kernel_equivalence` integration suite pins
//! this).

use faultmit_core::{Scheme, SingleFault};
use faultmit_memsim::{for_each_die, DieBlock, FaultKind, FaultMap, ResidualLanes, BLOCK_DIES};
use faultmit_obs as obs;

/// Exact `4^b` for every data-bit position, precomputed so the hot
/// squared-error loop avoids `powi`.
///
/// `4^b = 2^(2b)` is a power of two, so the entry is just the IEEE-754
/// exponent field `1023 + 2b` — bit-identical to `4.0f64.powi(b)`, which
/// multiplies exactly representable powers of two.
const POW4: [f64; 64] = {
    let mut table = [0.0f64; 64];
    let mut b = 0;
    while b < 64 {
        table[b] = f64::from_bits(((1023 + 2 * b) as u64) << 52);
        b += 1;
    }
    table
};

/// Squared error magnitude of one corrupted word: `Σ 4^b` over the bit
/// positions where `observed` differs from `written`.
///
/// # Example
///
/// ```
/// use faultmit_analysis::word_squared_error;
///
/// assert_eq!(word_squared_error(0b0000, 0b0001), 1.0);        // bit 0
/// assert_eq!(word_squared_error(0b0000, 0b1000), 64.0);       // bit 3 → 4^3
/// assert_eq!(word_squared_error(0b0000, 0b1001), 65.0);       // both
/// assert_eq!(word_squared_error(42, 42), 0.0);
/// ```
#[must_use]
pub fn word_squared_error(written: u64, observed: u64) -> f64 {
    let mut diff = written ^ observed;
    let mut total = 0.0;
    while diff != 0 {
        let bit = diff.trailing_zeros();
        total += POW4[bit as usize];
        diff &= diff - 1;
    }
    total
}

/// The memory-wide MSE of Eq. (6): the mean over all `R` rows of the squared
/// error magnitude each row exhibits under the given protection scheme,
/// assuming an all-zeros data background (every bit-flip fault is
/// observable, matching the paper's injection model).
///
/// Rows without faults contribute zero, so only faulty rows are visited.
#[must_use]
pub fn memory_mse(scheme: &Scheme, faults: &FaultMap) -> f64 {
    let rows = faults.config().rows() as f64;
    let total: f64 = faults
        .faulty_rows()
        .map(|row| word_squared_error(0, scheme.observe(faults, row, 0).value))
        .sum();
    total / rows
}

/// The memory-wide MSE for a specific data image (one value per row), using
/// the actual written values instead of the all-zeros background. Stuck-at
/// faults that happen to agree with the stored data then contribute nothing.
///
/// # Panics
///
/// Panics if `data` has fewer entries than the memory has rows.
#[must_use]
pub fn memory_mse_for_data(scheme: &Scheme, faults: &FaultMap, data: &[u64]) -> f64 {
    let rows = faults.config().rows();
    assert!(
        data.len() >= rows,
        "data image has {} entries but the memory has {rows} rows",
        data.len()
    );
    let total: f64 = faults
        .faulty_rows()
        .map(|row| {
            let observed = scheme.observe(faults, row, data[row]);
            word_squared_error(data[row], observed.value)
        })
        .sum();
    total / rows as f64
}

/// The data bits a fault of `kind` corrupts when `stored` is written,
/// wherever a scheme makes it surface: all of them for a flip, and for a
/// stuck-at cell those the word holds opposite to the stuck value.
#[inline]
fn exposed_bits(kind: FaultKind, stored: u64) -> u64 {
    match kind {
        FaultKind::BitFlip => u64::MAX,
        FaultKind::StuckAtZero => stored,
        FaultKind::StuckAtOne => !stored,
    }
}

/// The sparse MSE kernel for a whole scheme catalogue: one walk over a
/// die's fault-bearing rows scores every scheme, with rows in the outer
/// loop and schemes in the inner one.
///
/// A row holding a single fault — about 98 % of fault rows at Fig. 5
/// densities — is scored from a table built once per catalogue through
/// [`Scheme::single_fault`]: the row adds `4^b` when the fault surfaces at
/// data bit `b` (a stuck-at cell only when the written bit differs from its
/// stuck value) and `+0.0` otherwise. Rows with several faults go through
/// each scheme's row evaluator, [`Scheme::observe_sparse`].
///
/// Each scheme's total starts at `-0.0` (the IEEE additive identity, which
/// `Iterator::sum::<f64>` folds from, so a fault-free die yields the dense
/// evaluators' bits) and folds its rows in ascending row order, and every
/// table entry adds the exact term `word_squared_error` would, so `out[s]`
/// is bit-identical to [`memory_mse_for_data`] of `schemes[s]` on the same
/// words.
#[derive(Debug)]
pub struct CatalogueMse<'a> {
    schemes: &'a [Scheme],
    /// Slot `col * schemes.len() + s` belongs to `schemes[s]` and a lone
    /// fault at column `col`, so one row reads one contiguous run. `terms`
    /// holds what the row adds when the fault corrupts the bit it surfaces
    /// at: `4^b`, or `+0.0` when the scheme corrects it.
    terms: Vec<f64>,
    /// The data bit each slot's fault surfaces at (0 when corrected).
    bits: Vec<u8>,
}

impl<'a> CatalogueMse<'a> {
    /// Builds the single-fault table of `schemes` over the `word_bits`
    /// columns of the memory the dies are drawn for.
    ///
    /// # Panics
    ///
    /// Panics if a scheme's word is narrower than `word_bits`.
    #[must_use]
    pub fn new(schemes: &'a [Scheme], word_bits: usize) -> Self {
        let (terms, bits) = (0..word_bits)
            .flat_map(|col| schemes.iter().map(move |scheme| scheme.single_fault(col)))
            .map(|entry| match entry {
                SingleFault::Corrected => (0.0, 0),
                // A data bit of a word of at most 64 bits.
                SingleFault::SurfacesAt(b) => (POW4[b], b as u8),
            })
            .unzip();
        Self {
            schemes,
            terms,
            bits,
        }
    }

    /// Writes the MSE of `schemes[s]` on the die `faults` to `out[s]`, with
    /// `written` supplying the stored word of a fault-bearing row. A row
    /// whose only fault is a flip needs no word: a flip corrupts any word.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer entries than the catalogue has schemes,
    /// or if the die holds a fault outside the table's columns.
    pub fn mse_into<W>(&self, faults: &FaultMap, written: W, out: &mut [f64])
    where
        W: Fn(usize) -> u64,
    {
        let count = self.schemes.len();
        let out = &mut out[..count];
        out.fill(-0.0);
        for (row, row_faults) in faults.rows_with_faults() {
            match row_faults {
                [fault] => {
                    let slots = fault.col * count..(fault.col + 1) * count;
                    let terms = &self.terms[slots.clone()];
                    if fault.kind == FaultKind::BitFlip {
                        for (total, term) in out.iter_mut().zip(terms) {
                            *total += *term;
                        }
                        continue;
                    }
                    let exposed = exposed_bits(fault.kind, written(row));
                    for (total, (term, &bit)) in
                        out.iter_mut().zip(terms.iter().zip(&self.bits[slots]))
                    {
                        *total += if (exposed >> bit) & 1 == 1 {
                            *term
                        } else {
                            0.0
                        };
                    }
                }
                _ => {
                    let stored = written(row);
                    for (total, scheme) in out.iter_mut().zip(self.schemes) {
                        *total += word_squared_error(
                            stored,
                            scheme.observe_sparse(row_faults, stored).value,
                        );
                    }
                }
            }
        }
        let rows = faults.config().rows() as f64;
        for total in out {
            *total /= rows;
        }
    }
}

/// Bit-sliced twin of [`CatalogueMse`] for one scheme: evaluates all dies
/// of a transposed [`DieBlock`] in one walk over its faulty rows, writing
/// die `j`'s MSE to `out[j]`.
///
/// Per row the scheme's lane-parallel [`Scheme::observe_block`] produces
/// per-data-bit residual-error lanes; the reduction then scatters each
/// residual lane's `4^col` weight into per-die row partials in ascending
/// column order, touching every residual bit exactly once. Bit-identity
/// with the sparse kernel holds by construction: the visit set is fault
/// **presence** per die (exactly the rows `rows_with_faults` hands the
/// sparse kernel), rows are walked in the same ascending order, each die's
/// sum starts from the same `-0.0` IEEE additive identity, and the
/// column-order scatter folds the identical diff bits in the identical
/// LSB-first order `word_squared_error(0, diff)` would.
///
/// # Panics
///
/// Panics if `out` is shorter than the block's die count.
pub fn block_mse_into<W>(scheme: &Scheme, block: &DieBlock<'_>, written: W, out: &mut [f64])
where
    W: Fn(usize) -> u64,
{
    let dies = block.die_count();
    assert!(
        out.len() >= dies,
        "output slice holds {} dies but the block has {dies}",
        out.len()
    );
    let rows = block.config().rows() as f64;
    // One running sum per die, each starting from the -0.0 additive
    // identity the scalar kernels fold from. Stack storage sized by the
    // block width: the block path allocates nothing in steady state.
    let mut totals = [-0.0f64; BLOCK_DIES];
    // Per-row squared-error partials, scattered column-by-column so every
    // residual bit is touched exactly once (a per-die `gather_die` walk
    // would re-scan the full column mask once per dirty die). Entries are
    // cleared sparsely through the seen-die mask after each row.
    let mut row_err = [0.0f64; BLOCK_DIES];
    let mut residual = ResidualLanes::new();
    // Block rows evaluated, flushed once per block.
    let mut block_rows = 0u64;
    for row in block.rows() {
        residual.clear();
        scheme.observe_block(row.cells, written(row.row), &mut residual);
        block_rows += 1;
        // Scatter the residual into per-die partials in ascending column
        // order — the same LSB-first `4^b` fold `word_squared_error` applies
        // to a gathered diff, so each partial is bit-identical to it.
        let mut seen = 0u64;
        let mut mask = residual.colmask();
        while mask != 0 {
            let col = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let lane = residual.lane(col);
            seen |= lane;
            for_each_die(lane, |die| row_err[die] += POW4[col]);
        }
        // Visit exactly the dies whose map holds a fault in this row — the
        // sparse kernel's visit set — even when their residual is zero
        // (silent stuck-at faults still contribute a +0.0 term).
        for_each_die(row.dirty, |die| totals[die] += row_err[die]);
        for_each_die(seen, |die| row_err[die] = 0.0);
    }
    obs::count(obs::Counter::ObserveBlockRows, block_rows);
    for (slot, total) in out[..dies].iter_mut().zip(totals.iter()) {
        *slot = *total / rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_core::SegmentGeometry;
    use faultmit_memsim::{Fault, MemoryConfig};

    /// The shift ablation's naive vote at every `n_FM` of a 32-bit word.
    fn naive32() -> impl Iterator<Item = Scheme> {
        (1..=5).map(|n_fm| Scheme::NaiveShuffle(SegmentGeometry::new(32, n_fm).unwrap()))
    }

    fn map(faults: &[Fault]) -> FaultMap {
        let config = MemoryConfig::new(64, 32).unwrap();
        FaultMap::from_faults(config, faults.iter().copied()).unwrap()
    }

    #[test]
    fn word_squared_error_basic_cases() {
        assert_eq!(word_squared_error(0, 0), 0.0);
        assert_eq!(word_squared_error(0, 1 << 31), 4.0_f64.powi(31));
        assert_eq!(
            word_squared_error(0xFF, 0x0F),
            4.0_f64.powi(4) + 4.0_f64.powi(5) + 4.0_f64.powi(6) + 4.0_f64.powi(7)
        );
    }

    #[test]
    fn unprotected_mse_matches_equation_6() {
        // Two failures at bits 31 and 3 in a 64-row memory:
        // MSE = (4^31 + 4^3) / 64.
        let faults = map(&[Fault::bit_flip(0, 31), Fault::bit_flip(17, 3)]);
        let mse = memory_mse(&Scheme::unprotected32(), &faults);
        let expected = (4.0_f64.powi(31) + 4.0_f64.powi(3)) / 64.0;
        assert!((mse - expected).abs() < expected * 1e-12);
    }

    #[test]
    fn secded_mse_is_zero_for_single_fault_per_word() {
        let faults = map(&[Fault::bit_flip(0, 31), Fault::bit_flip(17, 3)]);
        assert_eq!(memory_mse(&Scheme::secded32(), &faults), 0.0);
    }

    #[test]
    fn secded_mse_is_nonzero_for_double_fault_words() {
        let faults = map(&[Fault::bit_flip(4, 30), Fault::bit_flip(4, 2)]);
        assert!(memory_mse(&Scheme::secded32(), &faults) > 0.0);
    }

    #[test]
    fn shuffle_mse_is_bounded_by_segment_size() {
        // 10 single-fault rows, all at high-significance bits.
        let faults: Vec<Fault> = (0..10).map(|r| Fault::bit_flip(r, 31 - r)).collect();
        let faults = map(&faults);
        for n_fm in 1..=5usize {
            let scheme = Scheme::shuffle32(n_fm).unwrap();
            let s = 32usize >> n_fm;
            let per_fault_bound = 4.0_f64.powi(s as i32 - 1);
            let mse = memory_mse(&scheme, &faults);
            assert!(
                mse <= 10.0 * per_fault_bound / 64.0 + 1e-9,
                "n_FM {n_fm}: {mse}"
            );
        }
    }

    #[test]
    fn mse_ordering_matches_fig5_for_msb_faults() {
        // Faults in the MSB half: unprotected >> P-ECC-corrected == 0,
        // shuffling small but non-zero.
        let faults = map(&[Fault::bit_flip(3, 31), Fault::bit_flip(9, 29)]);
        let unprotected = memory_mse(&Scheme::unprotected32(), &faults);
        let pecc = memory_mse(&Scheme::pecc32(), &faults);
        let shuffle1 = memory_mse(&Scheme::shuffle32(1).unwrap(), &faults);
        assert!(unprotected > shuffle1);
        assert_eq!(pecc, 0.0);
        assert!(shuffle1 > 0.0);
    }

    #[test]
    fn mse_ordering_matches_fig5_for_lsb_half_faults() {
        // Faults in the unprotected P-ECC half at bit 15: P-ECC pays 4^15,
        // bit-shuffling with nFM >= 2 pays at most 4^7.
        let faults = map(&[Fault::bit_flip(3, 15), Fault::bit_flip(9, 14)]);
        let pecc = memory_mse(&Scheme::pecc32(), &faults);
        let shuffle2 = memory_mse(&Scheme::shuffle32(2).unwrap(), &faults);
        let shuffle5 = memory_mse(&Scheme::shuffle32(5).unwrap(), &faults);
        assert!(pecc > shuffle2);
        assert!(shuffle2 > shuffle5);
    }

    #[test]
    fn mse_scales_inversely_with_memory_rows() {
        let small = MemoryConfig::new(16, 32).unwrap();
        let large = MemoryConfig::new(256, 32).unwrap();
        let fault = Fault::bit_flip(1, 20);
        let small_map = FaultMap::from_faults(small, [fault]).unwrap();
        let large_map = FaultMap::from_faults(large, [fault]).unwrap();
        let scheme = Scheme::unprotected32();
        let ratio = memory_mse(&scheme, &small_map) / memory_mse(&scheme, &large_map);
        assert!((ratio - 16.0).abs() < 1e-9);
    }

    #[test]
    fn data_dependent_mse_sees_silent_stuck_at_faults() {
        let config = MemoryConfig::new(16, 32).unwrap();
        let faults = FaultMap::from_faults(config, [Fault::stuck_at_one(2, 31)]).unwrap();
        let scheme = Scheme::unprotected32();
        // Background where bit 31 of row 2 is already set: the stuck-at-one
        // fault is silent.
        let mut data = vec![0u64; 16];
        data[2] = 1 << 31;
        assert_eq!(memory_mse_for_data(&scheme, &faults, &data), 0.0);
        // All-zeros background: the same fault costs 4^31 / 16.
        let zeros = vec![0u64; 16];
        assert!(memory_mse_for_data(&scheme, &faults, &zeros) > 0.0);
    }

    #[test]
    #[should_panic(expected = "data image")]
    fn data_dependent_mse_panics_on_short_image() {
        let faults = map(&[Fault::bit_flip(0, 0)]);
        let _ = memory_mse_for_data(&Scheme::unprotected32(), &faults, &[0u64; 3]);
    }

    #[test]
    fn empty_fault_map_has_zero_mse() {
        let faults = map(&[]);
        for scheme in Scheme::fig5_catalogue() {
            assert_eq!(memory_mse(&scheme, &faults), 0.0);
        }
    }

    #[test]
    fn pow4_table_is_bit_identical_to_powi() {
        for (b, entry) in POW4.iter().enumerate() {
            assert_eq!(entry.to_bits(), 4.0_f64.powi(b as i32).to_bits(), "4^{b}");
        }
    }

    #[test]
    fn single_fault_table_entries_score_exactly_what_observe_sparse_reads() {
        // Every table entry of every in-tree scheme, for every column, kind
        // and written word (zeros, ones and random words), adds the exact
        // bits `word_squared_error` gives the sparse path's read. A one-row
        // memory makes the die's MSE the row's term itself (`x / 1.0`).
        let mut narrow = Scheme::fig5_catalogue();
        narrow.extend(Scheme::fig7_catalogue());
        narrow.extend(naive32());
        let wide = [
            Scheme::Unprotected { word_bits: 64 },
            Scheme::PriorityEcc {
                word_bits: 64,
                protected_bits: 32,
            },
        ];
        let mut state = 0x7AB1_E5EEDu64;
        for schemes in [&narrow[..], &wide[..]] {
            let bits = schemes[0].word_bits();
            let config = MemoryConfig::new(1, bits).unwrap();
            let mask = u64::MAX >> (64 - bits);
            let walk = CatalogueMse::new(schemes, bits);
            let mut out = vec![f64::NAN; schemes.len()];
            for col in 0..bits {
                let mut words = vec![0, mask];
                for _ in 0..6 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    words.push(state & mask);
                }
                for written in words {
                    for kind in FaultKind::ALL {
                        let fault = Fault::new(0, col, kind);
                        let die = FaultMap::from_faults(config, [fault]).unwrap();
                        walk.mse_into(&die, |_| written, &mut out);
                        for (scheme, got) in schemes.iter().zip(&out) {
                            let observed = scheme.observe_sparse(&[fault], written);
                            assert_eq!(
                                got.to_bits(),
                                word_squared_error(written, observed.value).to_bits(),
                                "{} col {col} {kind:?} written {written:#x}",
                                scheme.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn catalogue_walk_is_bit_identical_to_the_dense_evaluators() {
        // Empty, single-fault, multi-fault and stuck-at rows, zeros and two
        // data images, for the catalogue schemes and the naive vote.
        let cases: Vec<Vec<Fault>> = vec![
            vec![],
            vec![Fault::bit_flip(5, 31)],
            vec![Fault::stuck_at_zero(5, 31), Fault::stuck_at_one(6, 2)],
            vec![Fault::bit_flip(0, 0), Fault::bit_flip(63, 31)],
            vec![
                Fault::bit_flip(7, 3),
                Fault::bit_flip(7, 29),
                Fault::stuck_at_one(7, 30),
                Fault::stuck_at_zero(12, 15),
            ],
            (0..64).map(|r| Fault::bit_flip(r, (r * 7) % 32)).collect(),
            (0..64)
                .map(|r| Fault::new(r % 9, (r * 5) % 32, FaultKind::ALL[r % 3]))
                .collect(),
        ];
        let mut schemes = Scheme::fig5_catalogue();
        schemes.push(Scheme::secded32());
        schemes.extend(naive32());
        let walk = CatalogueMse::new(&schemes, 32);
        let images: [Vec<u64>; 2] = [
            (0..64u64)
                .map(|r| r.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)
                .collect(),
            (0..64u64).map(|r| r.wrapping_mul(0x9E37)).collect(),
        ];
        let mut out = vec![f64::NAN; schemes.len()];
        for faults in &cases {
            let faults = map(faults);
            walk.mse_into(&faults, |_| 0, &mut out);
            for (scheme, got) in schemes.iter().zip(&out) {
                assert_eq!(
                    got.to_bits(),
                    memory_mse(scheme, &faults).to_bits(),
                    "{} (zeros)",
                    scheme.name()
                );
            }
            for image in &images {
                walk.mse_into(&faults, |row| image[row], &mut out);
                for (scheme, got) in schemes.iter().zip(&out) {
                    assert_eq!(
                        got.to_bits(),
                        memory_mse_for_data(scheme, &faults, image).to_bits(),
                        "{} (data)",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn block_kernel_is_bit_identical_to_the_dense_evaluator() {
        // Every die of a block must reproduce the dense evaluator's MSE bit
        // for bit, across backends, kind laws and catalogue schemes. A
        // deliberately non-multiple-of-64 block size.
        let dies = 37u64;
        use faultmit_memsim::{
            Backend, BackendKind, BlockScratch, DieScratch, FaultKindLaw, MapPolicy, PlannedSample,
            StreamSeeder,
        };
        let config = MemoryConfig::new(128, 32).unwrap();
        let seeder = StreamSeeder::new(0x4B17_51CE);
        let image: Vec<u64> = (0..128u64)
            .map(|r| r.wrapping_mul(0x9E37) & 0xFFFF_FFFF)
            .collect();
        let mut schemes = Scheme::fig5_catalogue();
        schemes.push(Scheme::secded32());
        schemes.extend(naive32());
        for kind in BackendKind::ALL {
            for law in [
                FaultKindLaw::AlwaysFlip,
                FaultKindLaw::AsymmetricStuckAt {
                    p_stuck_at_zero: 0.5,
                },
            ] {
                let backend = Backend::at_p_cell(kind, config, 1e-3)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                let plan: Vec<PlannedSample> = (0..dies)
                    .map(|index| PlannedSample {
                        index,
                        n_faults: 1 + (index * 5) % 30,
                    })
                    .collect();
                let mut scratch = BlockScratch::new(config);
                let block = scratch
                    .generate_block(&backend, &seeder, &plan, None)
                    .unwrap();
                let mut out = vec![0.0f64; plan.len()];
                for scheme in &schemes {
                    block_mse_into(scheme, &block, |row| image[row], &mut out);
                    for (j, planned) in plan.iter().enumerate() {
                        let mut reference = DieScratch::new(config);
                        let mut rng = seeder.rng_for_sample(planned.index);
                        let map = reference
                            .generate_with_policy(
                                &backend,
                                &mut rng,
                                planned.n_faults as usize,
                                MapPolicy::Unrestricted,
                            )
                            .unwrap();
                        assert_eq!(
                            out[j].to_bits(),
                            memory_mse_for_data(scheme, map, &image).to_bits(),
                            "{kind} {law:?} {} die {j}",
                            scheme.name()
                        );
                    }
                }
            }
        }
    }
}
