//! Segment geometry of the bit-shuffling scheme (Eq. (1) of the paper).
//!
//! The FM-LUT entry width `n_FM` determines into how many segments the word
//! is divided: `2^{n_FM}` segments of `S = W / 2^{n_FM}` bits each. Larger
//! `n_FM` means finer shifting granularity (down to single-bit segments for
//! `n_FM = log2 W`), a smaller residual error bound (`2^{S-1}`), but a wider
//! LUT and a more expensive shifter.

use crate::error::CoreError;

/// Segment geometry: word width `W`, FM-LUT entry width `n_FM`, segment size
/// `S = W / 2^{n_FM}`.
///
/// # Example
///
/// ```
/// use faultmit_core::SegmentGeometry;
///
/// # fn main() -> Result<(), faultmit_core::CoreError> {
/// let geometry = SegmentGeometry::new(32, 3)?;
/// assert_eq!(geometry.segment_count(), 8);
/// assert_eq!(geometry.segment_bits(), 4);
/// assert_eq!(geometry.max_error_magnitude(), 1 << 3); // 2^(S-1)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentGeometry {
    word_bits: usize,
    n_fm: usize,
}

impl SegmentGeometry {
    /// Creates a geometry for `word_bits`-bit words with an `n_fm`-bit FM-LUT
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidGeometry`] when:
    /// * `word_bits` is zero, not a power of two, or larger than 64;
    /// * `n_fm` is zero or larger than `log2(word_bits)` (Eq. (1) requires
    ///   `1 ≤ n_FM ≤ ⌈log2 W⌉`).
    pub fn new(word_bits: usize, n_fm: usize) -> Result<Self, CoreError> {
        if word_bits == 0 || word_bits > 64 || !word_bits.is_power_of_two() {
            return Err(CoreError::InvalidGeometry {
                reason: format!("word width must be a power of two in 1..=64, got {word_bits}"),
            });
        }
        let log2_w = word_bits.trailing_zeros() as usize;
        if n_fm == 0 || n_fm > log2_w {
            return Err(CoreError::InvalidGeometry {
                reason: format!(
                    "n_FM must be in 1..={log2_w} for {word_bits}-bit words, got {n_fm}"
                ),
            });
        }
        Ok(Self { word_bits, n_fm })
    }

    /// All valid geometries for a word width, in increasing `n_FM` order
    /// (`n_FM = 1` up to single-bit segments).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidGeometry`] for an unsupported word width.
    pub fn all_for_word(word_bits: usize) -> Result<Vec<Self>, CoreError> {
        // Validate the width itself by constructing the first geometry.
        let first = Self::new(word_bits, 1)?;
        let log2_w = word_bits.trailing_zeros() as usize;
        let mut all = vec![first];
        for n_fm in 2..=log2_w {
            all.push(Self::new(word_bits, n_fm)?);
        }
        Ok(all)
    }

    /// Word width `W` in bits.
    #[must_use]
    pub fn word_bits(&self) -> usize {
        self.word_bits
    }

    /// FM-LUT entry width `n_FM` in bits.
    #[must_use]
    pub fn n_fm(&self) -> usize {
        self.n_fm
    }

    /// Number of segments `2^{n_FM}`.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        1 << self.n_fm
    }

    /// Segment size `S = W / 2^{n_FM}` in bits (Eq. (1)).
    #[must_use]
    pub fn segment_bits(&self) -> usize {
        self.word_bits >> self.n_fm
    }

    /// Worst-case error magnitude `2^{S-1}` for a single fault per word
    /// (the bound quoted in §3 of the paper).
    #[must_use]
    pub fn max_error_magnitude(&self) -> u64 {
        1u64 << (self.segment_bits() - 1)
    }

    /// `log2(S)` — the constructor guarantees `word_bits` is a power of two,
    /// so the segment size is one as well and divisions by it reduce to
    /// shifts (this sits on the per-faulty-row evaluation path).
    fn segment_bits_log2(&self) -> usize {
        self.word_bits.trailing_zeros() as usize - self.n_fm
    }

    /// Segment index containing bit position `bit` (0 = least significant
    /// segment).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `bit >= word_bits`.
    #[must_use]
    pub fn segment_of_bit(&self, bit: usize) -> usize {
        debug_assert!(bit < self.word_bits);
        bit >> self.segment_bits_log2()
    }

    /// Bit offset of `bit` within its segment.
    #[must_use]
    pub fn offset_in_segment(&self, bit: usize) -> usize {
        bit & (self.segment_bits() - 1)
    }

    /// The circular right-shift amount `T = S · (2^{n_FM} − x_FM)` (Eq. (2)),
    /// reduced modulo `W` so that `x_FM = 0` maps to "no shift".
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShiftIndexOutOfRange`] when `x_fm` is not a valid
    /// segment index.
    pub fn shift_amount(&self, x_fm: usize) -> Result<usize, CoreError> {
        if x_fm >= self.segment_count() {
            return Err(CoreError::ShiftIndexOutOfRange {
                index: x_fm,
                segments: self.segment_count(),
            });
        }
        // `word_bits` is a power of two, so the modulo is a mask.
        Ok(((self.segment_count() - x_fm) << self.segment_bits_log2()) & (self.word_bits - 1))
    }

    /// Mask covering the word width.
    #[must_use]
    pub fn word_mask(&self) -> u64 {
        if self.word_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.word_bits) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_size_follows_equation_1() {
        // Fig. 4 caption: a 32-bit word with n_FM = 1..5 gives S = 16, 8, 4, 2, 1.
        let expected = [(1usize, 16usize), (2, 8), (3, 4), (4, 2), (5, 1)];
        for (n_fm, s) in expected {
            let g = SegmentGeometry::new(32, n_fm).unwrap();
            assert_eq!(g.segment_bits(), s);
            assert_eq!(g.segment_count(), 32 / s);
        }
    }

    #[test]
    fn max_error_magnitude_is_2_to_s_minus_1() {
        assert_eq!(
            SegmentGeometry::new(32, 5).unwrap().max_error_magnitude(),
            1
        );
        assert_eq!(
            SegmentGeometry::new(32, 4).unwrap().max_error_magnitude(),
            2
        );
        assert_eq!(
            SegmentGeometry::new(32, 1).unwrap().max_error_magnitude(),
            1 << 15
        );
        assert_eq!(
            SegmentGeometry::new(64, 1).unwrap().max_error_magnitude(),
            1 << 31
        );
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        assert!(SegmentGeometry::new(0, 1).is_err());
        assert!(SegmentGeometry::new(24, 1).is_err()); // not a power of two
        assert!(SegmentGeometry::new(128, 1).is_err());
        assert!(SegmentGeometry::new(32, 0).is_err());
        assert!(SegmentGeometry::new(32, 6).is_err()); // log2(32) = 5
        assert!(SegmentGeometry::new(32, 5).is_ok());
        assert!(SegmentGeometry::new(64, 6).is_ok());
    }

    #[test]
    fn all_for_word_enumerates_every_n_fm() {
        let all = SegmentGeometry::all_for_word(32).unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].n_fm(), 1);
        assert_eq!(all[4].n_fm(), 5);
        assert!(SegmentGeometry::all_for_word(24).is_err());
    }

    #[test]
    fn segment_of_bit_and_offset() {
        let g = SegmentGeometry::new(32, 3).unwrap(); // S = 4
        assert_eq!(g.segment_of_bit(0), 0);
        assert_eq!(g.segment_of_bit(3), 0);
        assert_eq!(g.segment_of_bit(4), 1);
        assert_eq!(g.segment_of_bit(31), 7);
        assert_eq!(g.offset_in_segment(0), 0);
        assert_eq!(g.offset_in_segment(7), 3);
        assert_eq!(g.offset_in_segment(31), 3);
    }

    #[test]
    fn shift_amount_matches_equation_2() {
        // Paper example (§3): W = 32, n_FM = 5, fault in bit 3 of the bottom
        // word → x_FM = 3 and T = 1 · (32 − 3) = 29.
        let g = SegmentGeometry::new(32, 5).unwrap();
        assert_eq!(g.shift_amount(3).unwrap(), 29);
        // Fig. 3 top word: fault in bit 31 → shift right by 1... i.e.
        // T = 32 − 31 = 1; the paper describes it as "shifted-right by 31
        // positions" for the LSB, which is the same rotation seen from the
        // data bit's perspective.
        assert_eq!(g.shift_amount(31).unwrap(), 1);
        // x_FM = 0 means the fault is already in the least significant
        // segment: no rotation.
        assert_eq!(g.shift_amount(0).unwrap(), 0);
        assert!(g.shift_amount(32).is_err());

        let g = SegmentGeometry::new(32, 2).unwrap(); // S = 8, 4 segments
        assert_eq!(g.shift_amount(1).unwrap(), 24);
        assert_eq!(g.shift_amount(3).unwrap(), 8);
    }

    #[test]
    fn word_mask_covers_word() {
        assert_eq!(
            SegmentGeometry::new(32, 1).unwrap().word_mask(),
            0xFFFF_FFFF
        );
        assert_eq!(SegmentGeometry::new(64, 1).unwrap().word_mask(), u64::MAX);
    }
}
