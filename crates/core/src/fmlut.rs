//! The fault-map look-up table (FM-LUT).
//!
//! The FM-LUT holds, for every memory row `r`, the `n_FM`-bit shift index
//! `x_FM(r)` determined during BIST (§3). On every write the data word is
//! rotated right by `T(r) = S · (2^{n_FM} − x_FM(r))` (Eq. (2)) so that the
//! least significant segment is stored in the faulty cells; on every read the
//! inverse rotation restores the original bit order.
//!
//! For rows with a single faulty cell the shift index is simply the segment
//! index of that cell. For rows with multiple faults (which become common at
//! low supply voltages), [`FmLut::choose_shift`] picks, of all `2^{n_FM}`
//! candidate shifts, the one minimising the sum of squared error
//! magnitudes — the same quantity the paper's MSE yield criterion (Eq. (6))
//! integrates. It compares the rotated fault masks themselves: a candidate's
//! cost is a sum of distinct powers of four, one per rotated fault bit, so
//! the costs order exactly as the rotated masks do.

use crate::error::CoreError;
use crate::segment::SegmentGeometry;
use crate::shifter::rotate_right;
use faultmit_memsim::{BistReport, FaultMap};

/// Per-row shift indices of the bit-shuffling scheme.
///
/// # Example
///
/// ```
/// use faultmit_core::{FmLut, SegmentGeometry};
/// use faultmit_memsim::{Fault, FaultMap, MemoryConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let geometry = SegmentGeometry::new(32, 5)?;
/// let config = MemoryConfig::new(8, 32)?;
/// let mut faults = FaultMap::new(config);
/// faults.insert(Fault::bit_flip(2, 3))?; // paper example: fault in bit 3
///
/// let lut = FmLut::from_fault_map(geometry, &faults)?;
/// assert_eq!(lut.x_fm(2)?, 3);
/// assert_eq!(lut.shift_for_row(2)?, 29); // T = 1 · (32 − 3)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FmLut {
    geometry: SegmentGeometry,
    entries: Vec<usize>,
}

impl FmLut {
    /// Creates an FM-LUT for `rows` rows with all shift indices zero
    /// (no rotation).
    #[must_use]
    pub fn new(geometry: SegmentGeometry, rows: usize) -> Self {
        Self {
            geometry,
            entries: vec![0; rows],
        }
    }

    /// Builds the FM-LUT from a fault map, as a post-fabrication test or
    /// power-on BIST would.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidGeometry`] when the fault map's word width
    /// differs from the geometry's word width.
    pub fn from_fault_map(geometry: SegmentGeometry, faults: &FaultMap) -> Result<Self, CoreError> {
        if faults.config().word_bits() != geometry.word_bits() {
            return Err(CoreError::InvalidGeometry {
                reason: format!(
                    "fault map word width {} does not match geometry word width {}",
                    faults.config().word_bits(),
                    geometry.word_bits()
                ),
            });
        }
        let mut lut = Self::new(geometry, faults.config().rows());
        for (row, row_faults) in faults.rows_with_faults() {
            let faulty = row_faults
                .iter()
                .fold(0, |mask, fault| mask | 1 << fault.col);
            lut.entries[row] = Self::choose_shift(geometry, faulty);
        }
        Ok(lut)
    }

    /// Builds the FM-LUT from a BIST report (the production flow: run
    /// [`MarchBist`](faultmit_memsim::MarchBist), then program the LUT).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidGeometry`] when the report's word width
    /// differs from the geometry's word width.
    pub fn from_bist_report(
        geometry: SegmentGeometry,
        report: &BistReport,
    ) -> Result<Self, CoreError> {
        if report.config().word_bits() != geometry.word_bits() {
            return Err(CoreError::InvalidGeometry {
                reason: format!(
                    "BIST report word width {} does not match geometry word width {}",
                    report.config().word_bits(),
                    geometry.word_bits()
                ),
            });
        }
        let mut lut = Self::new(geometry, report.config().rows());
        for row_report in report.faulty_rows() {
            let faulty = row_report
                .faulty_columns
                .iter()
                .fold(0, |mask, &col| mask | 1 << col);
            lut.entries[row_report.row] = Self::choose_shift(geometry, faulty);
        }
        Ok(lut)
    }

    /// Chooses the shift index for a row whose faulty columns are the set
    /// bits of `faulty` (all below the word width).
    ///
    /// With zero faults the index is 0 (no rotation). With one fault it is the
    /// fault's segment index, exactly as in the paper. With several faults it
    /// is the one of all `2^{n_FM}` candidates with the smallest sum of
    /// squared error magnitudes (ties break towards the smaller index,
    /// keeping the choice deterministic).
    ///
    /// Candidate `x` stores data bit `(c − x·S) mod W` in faulty column `c`,
    /// so its cost is `Σ 4^b` over the set bits `b` of `faulty` rotated right
    /// by `x·S`. Those bits are distinct, and `4^b` exceeds the sum of every
    /// lower power of four, so two candidates' costs compare exactly as
    /// their rotated masks do: the vote is the smallest rotated mask.
    ///
    /// # Example
    ///
    /// ```
    /// use faultmit_core::{FmLut, SegmentGeometry};
    ///
    /// # fn main() -> Result<(), faultmit_core::CoreError> {
    /// let geometry = SegmentGeometry::new(32, 5)?;
    /// assert_eq!(FmLut::choose_shift(geometry, 1 << 3), 3);
    /// // Faults at bits 31 and 0: rotating bit 31 down to data bit 0 leaves
    /// // the other fault at data bit 1.
    /// assert_eq!(FmLut::choose_shift(geometry, 1 << 31 | 1), 31);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn choose_shift(geometry: SegmentGeometry, faulty: u64) -> usize {
        let word_bits = geometry.word_bits();
        let segment_bits = geometry.segment_bits();
        // `min_by_key` keeps the first of equal keys: ties go to the smaller
        // index.
        (0..geometry.segment_count())
            .min_by_key(|&candidate| rotate_right(faulty, candidate * segment_bits, word_bits))
            .unwrap_or(0)
    }

    /// Segment geometry this LUT was built for.
    #[must_use]
    pub fn geometry(&self) -> SegmentGeometry {
        self.geometry
    }

    /// Number of rows covered by the LUT.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.entries.len()
    }

    /// The shift index `x_FM(r)` of `row`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RowOutOfRange`] for an invalid row.
    pub fn x_fm(&self, row: usize) -> Result<usize, CoreError> {
        self.entries
            .get(row)
            .copied()
            .ok_or(CoreError::RowOutOfRange {
                row,
                rows: self.entries.len(),
            })
    }

    /// The rotation amount `T(r)` (Eq. (2)) of `row`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RowOutOfRange`] for an invalid row.
    pub fn shift_for_row(&self, row: usize) -> Result<usize, CoreError> {
        let x = self.x_fm(row)?;
        self.geometry.shift_amount(x)
    }

    /// Number of LUT storage bits per row (`n_FM`).
    #[must_use]
    pub fn bits_per_row(&self) -> usize {
        self.geometry.n_fm()
    }

    /// Total LUT storage in bits (`rows · n_FM`), the extra-column overhead
    /// the hardware model charges for.
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.rows() * self.bits_per_row()
    }

    /// Iterates over `(row, x_FM)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.entries.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_memsim::{Fault, MarchBist, MemoryConfig, SramArray};

    fn geometry(n_fm: usize) -> SegmentGeometry {
        SegmentGeometry::new(32, n_fm).unwrap()
    }

    fn fault_map(faults: &[Fault]) -> FaultMap {
        let config = MemoryConfig::new(16, 32).unwrap();
        FaultMap::from_faults(config, faults.iter().copied()).unwrap()
    }

    #[test]
    fn empty_lut_has_zero_shifts() {
        let lut = FmLut::new(geometry(5), 8);
        assert_eq!(lut.rows(), 8);
        for row in 0..8 {
            assert_eq!(lut.x_fm(row).unwrap(), 0);
            assert_eq!(lut.shift_for_row(row).unwrap(), 0);
        }
        assert!(lut.x_fm(8).is_err());
        assert!(lut.shift_for_row(8).is_err());
    }

    #[test]
    fn paper_example_bit3_fault_gives_shift_29() {
        let faults = fault_map(&[Fault::bit_flip(4, 3)]);
        let lut = FmLut::from_fault_map(geometry(5), &faults).unwrap();
        assert_eq!(lut.x_fm(4).unwrap(), 3);
        assert_eq!(lut.shift_for_row(4).unwrap(), 29);
    }

    #[test]
    fn msb_fault_with_single_bit_segments() {
        let faults = fault_map(&[Fault::bit_flip(0, 31)]);
        let lut = FmLut::from_fault_map(geometry(5), &faults).unwrap();
        assert_eq!(lut.x_fm(0).unwrap(), 31);
        assert_eq!(lut.shift_for_row(0).unwrap(), 1);
    }

    #[test]
    fn coarse_segments_use_segment_index() {
        // n_FM = 2 → S = 8: a fault at bit 30 is in segment 3.
        let faults = fault_map(&[Fault::bit_flip(1, 30)]);
        let lut = FmLut::from_fault_map(geometry(2), &faults).unwrap();
        assert_eq!(lut.x_fm(1).unwrap(), 3);
        assert_eq!(lut.shift_for_row(1).unwrap(), 8);
    }

    #[test]
    fn fault_in_lsb_segment_needs_no_shift() {
        let faults = fault_map(&[Fault::bit_flip(2, 0)]);
        for n_fm in 1..=5 {
            let lut = FmLut::from_fault_map(geometry(n_fm), &faults).unwrap();
            assert_eq!(lut.x_fm(2).unwrap(), 0, "n_FM = {n_fm}");
        }
    }

    #[test]
    fn multi_fault_row_prefers_protecting_the_msbs() {
        // Faults at bits 31 and 0 with single-bit segments: whichever shift is
        // chosen, one fault remains. The optimal choice maps the MSB fault to
        // the LSB data bit and tolerates a (much smaller) error on the other.
        let faults = fault_map(&[Fault::bit_flip(3, 31), Fault::bit_flip(3, 0)]);
        let lut = FmLut::from_fault_map(geometry(5), &faults).unwrap();
        let x = lut.x_fm(3).unwrap();
        let shift = lut.shift_for_row(3).unwrap();
        // Check the resulting worst-case data bit affected is small.
        let worst_bit = [31usize, 0]
            .iter()
            .map(|&col| (col + 32 - x) % 32)
            .max()
            .unwrap();
        assert!(
            worst_bit <= 1,
            "worst affected data bit = {worst_bit}, shift = {shift}"
        );
    }

    #[test]
    fn multi_fault_choice_is_no_worse_than_single_fault_rule() {
        // With faults in segments 7 and 2 (n_FM = 3, S = 4), check the chosen
        // shift yields a cost no greater than naively aligning to the highest
        // fault.
        let g = geometry(3);
        let columns = [9, 30];
        let chosen = FmLut::choose_shift(g, 1 << 9 | 1 << 30);
        let cost = |x: usize| -> u128 {
            columns
                .iter()
                .map(|&col| {
                    let data_bit = (col + 32 - x * g.segment_bits()) % 32;
                    (1u128 << data_bit).pow(2)
                })
                .sum()
        };
        let naive = g.segment_of_bit(30);
        assert!(cost(chosen) <= cost(naive));
    }

    #[test]
    fn from_bist_report_matches_from_fault_map() {
        let faults = fault_map(&[
            Fault::stuck_at_one(1, 17),
            Fault::bit_flip(5, 31),
            Fault::stuck_at_zero(9, 2),
        ]);
        let mut array = SramArray::with_faults(MemoryConfig::new(16, 32).unwrap(), faults.clone());
        let report = MarchBist::new().run(&mut array).unwrap();

        let from_map = FmLut::from_fault_map(geometry(5), &faults).unwrap();
        let from_bist = FmLut::from_bist_report(geometry(5), &report).unwrap();
        assert_eq!(from_map, from_bist);
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let faults = FaultMap::new(MemoryConfig::new(8, 16).unwrap());
        assert!(FmLut::from_fault_map(geometry(5), &faults).is_err());
    }

    #[test]
    fn storage_accounting() {
        let lut = FmLut::new(geometry(3), 4096);
        assert_eq!(lut.bits_per_row(), 3);
        assert_eq!(lut.total_bits(), 3 * 4096);
    }

    #[test]
    fn iter_lists_each_rows_shift_index() {
        let faults = fault_map(&[Fault::bit_flip(2, 20), Fault::bit_flip(7, 0)]);
        let lut = FmLut::from_fault_map(geometry(5), &faults).unwrap();
        // Row 7's fault is already in the LSB segment → shift 0, so only one
        // row is shifted.
        let pairs: Vec<(usize, usize)> = lut.iter().filter(|&(_, x)| x != 0).collect();
        assert_eq!(pairs, vec![(2, 20)]);
    }
}
