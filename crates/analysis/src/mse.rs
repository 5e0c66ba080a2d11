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
//! campaign kernels are gated against. Both kernels run one walk of
//! [`CatalogueMse`], which scores a whole scheme catalogue per faulty row:
//! a row with a single fault from a table of every scheme's
//! [`Scheme::single_fault`] entries, a row with several faults through each
//! scheme's row evaluator [`Scheme::observe_sparse`], with written words
//! gathered only for fault-bearing rows. The sparse kernel
//! ([`CatalogueMse::mse_into`]) walks one die's sorted row groups; the
//! bit-sliced kernel ([`CatalogueMse::block_mse_into`]) walks a transposed
//! block of up to 64 dies once, splitting each row's dies into lone-fault
//! and multi-fault lanes. All accumulate per-row contributions in
//! ascending row order, so their results are **bit-identical** (the
//! `kernel_equivalence` integration suite pins this).

use faultmit_core::{Scheme, SingleFault};
use faultmit_memsim::{for_each_die, DieBlock, Fault, FaultKind, FaultMap};
use faultmit_obs as obs;
use std::ops::Range;

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

/// The MSE kernel for a whole scheme catalogue: one walk over the
/// fault-bearing rows of a die ([`mse_into`](Self::mse_into)) or of a
/// transposed die block ([`block_mse_into`](Self::block_mse_into)) scores
/// every scheme, with rows in the outer loop and schemes in the inner one.
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
/// table entry adds the exact term `word_squared_error` would, so the MSE
/// of `schemes[s]` is bit-identical to [`memory_mse_for_data`] of
/// `schemes[s]` on the same words.
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
        let out = &mut out[..self.schemes.len()];
        out.fill(-0.0);
        for (row, row_faults) in faults.rows_with_faults() {
            match row_faults {
                [fault] if fault.kind == FaultKind::BitFlip => self.add_flip(out, fault.col),
                [fault] => self.add_stuck(out, fault.col, exposed_bits(fault.kind, written(row))),
                _ => self.add_observed(out, row_faults, written(row)),
            }
        }
        divide_by_rows(out, faults.config().rows());
    }

    /// Writes the MSE of every scheme on every die of `block` to `out`, die
    /// after die: `out[j * schemes.len() + s]` is that of `schemes[s]` on
    /// die `j`, bit-identical to what [`mse_into`](Self::mse_into) writes
    /// for the die.
    ///
    /// One walk over the block's rows serves the whole catalogue. Each row
    /// reads its stored word once and splits its dies by the cells'
    /// presence lanes: a die whose only fault in the row is this cell adds
    /// the cell's run of table terms, and a die with several faults has
    /// them gathered from the row's cells and scored through each scheme's
    /// [`Scheme::observe_sparse`], as `mse_into` scores such a row.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer entries than the block's dies times the
    /// catalogue's schemes, or if a die holds a fault outside the table's
    /// columns.
    pub fn block_mse_into<W>(&self, block: &DieBlock<'_>, written: W, out: &mut [f64])
    where
        W: Fn(usize) -> u64,
    {
        let count = self.schemes.len();
        let out = &mut out[..block.die_count() * count];
        out.fill(-0.0);
        let die = |j: usize| j * count..(j + 1) * count;
        // One die's faults in one row, at most one per column of the word.
        let mut gathered = [Fault::bit_flip(0, 0); 64];
        let (mut block_rows, mut multi_fault_dies) = (0u64, 0u64);
        for row in block.rows() {
            block_rows += 1;
            let stored = written(row.row);
            // Dies with a second fault in the row: seen at an earlier cell
            // and present again at this one.
            let (mut seen, mut multi) = (0u64, 0u64);
            for cell in row.cells {
                multi |= seen & cell.presence();
                seen |= cell.presence();
            }
            for cell in row.cells {
                let col = cell.col as usize;
                for_each_die(cell.flips & !multi, |j| {
                    self.add_flip(&mut out[die(j)], col)
                });
                let stuck = cell.stuck & !multi;
                for (dies, kind) in [
                    (stuck & !cell.stuck_value, FaultKind::StuckAtZero),
                    (stuck & cell.stuck_value, FaultKind::StuckAtOne),
                ] {
                    let exposed = exposed_bits(kind, stored);
                    for_each_die(dies, |j| self.add_stuck(&mut out[die(j)], col, exposed));
                }
            }
            for_each_die(multi, |j| {
                multi_fault_dies += 1;
                let mut len = 0;
                for cell in row.cells {
                    if let Some(kind) = cell.fault_kind(j) {
                        gathered[len] = Fault::new(row.row, cell.col as usize, kind);
                        len += 1;
                    }
                }
                self.add_observed(&mut out[die(j)], &gathered[..len], stored);
            });
        }
        obs::count(obs::Counter::ObserveBlockRows, block_rows);
        obs::count(obs::Counter::ObserveFallbackDies, multi_fault_dies);
        divide_by_rows(out, block.config().rows());
    }

    /// The table slots of a lone fault at `col`, one per scheme.
    #[inline]
    fn slots(&self, col: usize) -> Range<usize> {
        col * self.schemes.len()..(col + 1) * self.schemes.len()
    }

    /// Adds the row term of a lone flip at `col` to one die's totals: a
    /// flip corrupts any word.
    #[inline]
    fn add_flip(&self, totals: &mut [f64], col: usize) {
        for (total, term) in totals.iter_mut().zip(&self.terms[self.slots(col)]) {
            *total += *term;
        }
    }

    /// Adds the row term of a lone stuck-at cell at `col` to one die's
    /// totals: the table term where the stored word exposes the bit it
    /// surfaces at (`exposed`, from [`exposed_bits`]), `+0.0` elsewhere.
    #[inline]
    fn add_stuck(&self, totals: &mut [f64], col: usize, exposed: u64) {
        let slots = self.slots(col);
        let (terms, bits) = (&self.terms[slots.clone()], &self.bits[slots]);
        for (total, (term, &bit)) in totals.iter_mut().zip(terms.iter().zip(bits)) {
            *total += if (exposed >> bit) & 1 == 1 {
                *term
            } else {
                0.0
            };
        }
    }

    /// Adds each scheme's squared error on a row holding `row_faults` and
    /// storing `stored` to one die's totals.
    #[inline]
    fn add_observed(&self, totals: &mut [f64], row_faults: &[Fault], stored: u64) {
        for (total, scheme) in totals.iter_mut().zip(self.schemes) {
            *total += word_squared_error(stored, scheme.observe_sparse(row_faults, stored).value);
        }
    }
}

/// Turns per-die squared-error sums into the MSE of Eq. (6).
fn divide_by_rows(totals: &mut [f64], rows: usize) {
    let rows = rows as f64;
    for total in totals {
        *total /= rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_core::SegmentGeometry;
    use faultmit_memsim::MemoryConfig;

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
        let schemes = walk_catalogue();
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

    /// The block walk's metrics, die after die, against the catalogue walk
    /// and the dense evaluator on each die alone, bit for bit.
    fn assert_block_walk_matches(
        schemes: &[Scheme],
        block: &DieBlock<'_>,
        dies: &[FaultMap],
        image: &[u64],
        context: &str,
    ) {
        let walk = CatalogueMse::new(schemes, block.config().word_bits());
        let count = schemes.len();
        let mut out = vec![f64::NAN; dies.len() * count];
        walk.block_mse_into(block, |row| image[row], &mut out);
        let mut alone = vec![f64::NAN; count];
        for (j, die) in dies.iter().enumerate() {
            walk.mse_into(die, |row| image[row], &mut alone);
            for (s, scheme) in schemes.iter().enumerate() {
                let got = out[j * count + s].to_bits();
                assert_eq!(
                    got,
                    alone[s].to_bits(),
                    "{context} {} die {j}",
                    scheme.name()
                );
                assert_eq!(
                    got,
                    memory_mse_for_data(scheme, die, image).to_bits(),
                    "{context} {} die {j} (dense)",
                    scheme.name()
                );
            }
        }
    }

    /// The catalogue of the walk tests: Fig. 5's, SECDED and the naive
    /// vote at every `n_FM`.
    fn walk_catalogue() -> Vec<Scheme> {
        let mut schemes = Scheme::fig5_catalogue();
        schemes.push(Scheme::secded32());
        schemes.extend(naive32());
        schemes
    }

    #[test]
    fn block_walk_is_bit_identical_to_the_catalogue_walk_and_the_dense_evaluator() {
        // Blocks of 2, 37 and 64 dies on every backend and kind law, over
        // zeros and a data image: up to 30 faults in 128 rows gives most
        // dies rows with several faults.
        use faultmit_memsim::{
            Backend, BackendKind, BlockScratch, DieScratch, FaultKindLaw, MapPolicy, PlannedSample,
            StreamSeeder,
        };
        let config = MemoryConfig::new(128, 32).unwrap();
        let seeder = StreamSeeder::new(0x4B17_51CE);
        let images = [
            vec![0u64; 128],
            (0..128u64)
                .map(|r| r.wrapping_mul(0x9E37) & 0xFFFF_FFFF)
                .collect(),
        ];
        let schemes = walk_catalogue();
        let mut scratch = BlockScratch::new(config);
        let mut reference = DieScratch::new(config);
        for dies in [2u64, 37, 64] {
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
                    let maps: Vec<FaultMap> = plan
                        .iter()
                        .map(|planned| {
                            let mut rng = seeder.rng_for_sample(planned.index);
                            reference
                                .generate_with_policy(
                                    &backend,
                                    &mut rng,
                                    planned.n_faults as usize,
                                    MapPolicy::Unrestricted,
                                )
                                .unwrap()
                                .clone()
                        })
                        .collect();
                    let block = scratch
                        .generate_block(&backend, &seeder, &plan, None)
                        .unwrap();
                    for image in &images {
                        let context = format!("{dies} dies, {kind} {law:?}");
                        assert_block_walk_matches(&schemes, &block, &maps, image, &context);
                    }
                }
            }
        }
    }

    /// Six dies by hand over a 16-row memory: in row 3, dies 1, 2 and 4
    /// hold two or three faults and share cells with the lone faults of
    /// dies 3 and 5, and die 3's lone stuck-at-one cell is silent under the
    /// data image; die 0 is fault-free.
    fn hand_built_dies() -> Vec<FaultMap> {
        let config = MemoryConfig::new(16, 32).unwrap();
        [
            vec![],
            vec![
                Fault::stuck_at_one(3, 2),
                Fault::bit_flip(3, 31),
                Fault::bit_flip(7, 9),
            ],
            vec![
                Fault::bit_flip(3, 2),
                Fault::stuck_at_zero(3, 15),
                Fault::bit_flip(3, 16),
            ],
            vec![Fault::stuck_at_one(3, 5), Fault::stuck_at_zero(12, 0)],
            vec![Fault::stuck_at_zero(3, 15), Fault::bit_flip(3, 31)],
            vec![Fault::stuck_at_zero(3, 31), Fault::bit_flip(7, 9)],
        ]
        .into_iter()
        .map(|faults| FaultMap::from_faults(config, faults).unwrap())
        .collect()
    }

    #[test]
    fn block_walk_is_bit_identical_on_a_hand_built_block() {
        use faultmit_memsim::BlockScratch;
        let dies = hand_built_dies();
        let mut scratch = BlockScratch::new(dies[0].config());
        let block = scratch.transpose_maps(&dies).unwrap();
        // Row 3 stores bit 5 set (die 3's stuck-at-one reads it back
        // intact) and bit 31 set (die 5's stuck-at-zero corrupts it).
        let mut image: Vec<u64> = (0..16u64)
            .map(|r| r.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)
            .collect();
        image[3] = 1 << 31 | 1 << 5 | 1 << 2;
        let silent = Scheme::unprotected32();
        assert_eq!(memory_mse_for_data(&silent, &dies[3], &image), 0.0);
        assert_block_walk_matches(&walk_catalogue(), &block, &dies, &image, "by hand");
        assert_block_walk_matches(&walk_catalogue(), &block, &dies, &[0; 16], "by hand, zeros");
    }

    #[test]
    fn block_walk_is_bit_identical_on_dense_64_bit_rows() {
        // Rows of 0 to 64 faults of mixed kinds on 64-bit words, a full
        // row included, under every scheme shape of that width.
        use faultmit_memsim::BlockScratch;
        let config = MemoryConfig::new(4, 64).unwrap();
        let dies: Vec<FaultMap> = [0usize, 1, 2, 17, 33, 63, 64]
            .iter()
            .enumerate()
            .map(|(j, &count)| {
                // `37 c mod 64` permutes the columns, so `count` of them
                // fall below `count`.
                let faults = (0..64)
                    .filter(|c| (c * 37 + j * 11) % 64 < count)
                    .map(|c| Fault::new(2, c, FaultKind::ALL[(c + j) % 3]));
                FaultMap::from_faults(config, faults).unwrap()
            })
            .collect();
        let mut schemes = vec![
            Scheme::Unprotected { word_bits: 64 },
            Scheme::Secded { word_bits: 64 },
            Scheme::PriorityEcc {
                word_bits: 64,
                protected_bits: 32,
            },
        ];
        for geometry in SegmentGeometry::all_for_word(64).unwrap() {
            schemes.extend([Scheme::BitShuffle(geometry), Scheme::NaiveShuffle(geometry)]);
        }
        let mut scratch = BlockScratch::new(config);
        let block = scratch.transpose_maps(&dies).unwrap();
        let image = [0, u64::MAX, 0xDEAD_BEEF_0BAD_F00D, 1 << 63 | 1];
        assert_block_walk_matches(&schemes, &block, &dies, &image, "64-bit rows");
        assert_block_walk_matches(&schemes, &block, &dies, &[0; 4], "64-bit rows, zeros");
    }

    #[test]
    fn one_block_walk_counts_each_row_and_each_multi_fault_die_once() {
        // Whatever the catalogue's size: rows 3, 7 and 12 once each, and
        // the (die, row) pairs (1, 3), (2, 3) and (4, 3) once each.
        use faultmit_memsim::BlockScratch;
        use std::sync::Arc;
        let dies = hand_built_dies();
        let mut scratch = BlockScratch::new(dies[0].config());
        let block = scratch.transpose_maps(&dies).unwrap();
        for schemes in [vec![Scheme::unprotected32()], walk_catalogue()] {
            let walk = CatalogueMse::new(&schemes, 32);
            let mut out = vec![0.0; dies.len() * schemes.len()];
            let recorder = Arc::new(obs::Recorder::new());
            {
                let _guard = obs::install(&recorder);
                walk.block_mse_into(&block, |_| 0, &mut out);
            }
            let recorded = recorder.snapshot();
            assert_eq!(recorded.counter(obs::Counter::ObserveBlockRows), 3);
            assert_eq!(recorded.counter(obs::Counter::ObserveFallbackDies), 3);
        }
    }
}
