//! Lane-parallel (bit-sliced) helpers for evaluating a block of codewords
//! at once.
//!
//! The bit-sliced Monte-Carlo kernel packs the same bit position of up to
//! [`BLOCK_DIES`](faultmit_memsim::BLOCK_DIES) sampled dies into one `u64`
//! lane, so the SECDED / P-ECC decision "does this word hold two or more
//! observable errors?" must be answered for all dies with bitwise logic
//! instead of per-die `count_ones` calls. [`LaneCounter`] is the classic
//! carry-save (ripple-carry) popcount saturating at two: after feeding
//! every per-column error lane through [`LaneCounter::add`], bit `j` of
//! [`LaneCounter::at_least_two`] answers the SECDED correction-radius
//! question for die `j`.

/// A saturating-at-two carry-save counter over 64 parallel lanes.
///
/// Feeding `n` lanes costs `2n` bitwise ops total — the XOR-fold that lets
/// the block kernel compute every die's syndrome weight at once.
///
/// # Example
///
/// ```
/// use faultmit_ecc::LaneCounter;
///
/// let mut counter = LaneCounter::new();
/// counter.add(0b1011); // dies 0, 1, 3 see an error in some column
/// counter.add(0b0011); // dies 0, 1 see an error in another column
/// assert_eq!(counter.at_least_one(), 0b1011);
/// assert_eq!(counter.at_least_two(), 0b0011); // only dies 0 and 1 hit twice
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounter {
    ones: u64,
    twos: u64,
}

impl LaneCounter {
    /// A counter with every lane at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one error lane: bit `j` of `lane` increments die `j`'s count.
    #[inline]
    pub fn add(&mut self, lane: u64) {
        self.twos |= self.ones & lane;
        self.ones ^= lane;
    }

    /// Lanes whose count is at least one.
    #[must_use]
    #[inline]
    pub fn at_least_one(&self) -> u64 {
        self.ones | self.twos
    }

    /// Lanes whose count is at least two — for SECDED, the dies whose word
    /// exceeded the single-error correction radius.
    #[must_use]
    #[inline]
    pub fn at_least_two(&self) -> u64 {
        self.twos
    }

    /// Lanes whose count is exactly one — the dies SECDED corrects.
    #[must_use]
    #[inline]
    pub fn exactly_one(&self) -> u64 {
        self.ones & !self.twos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_matches_scalar_popcount_per_lane() {
        // Feed 7 pseudo-random lanes and check every die against a scalar
        // per-die count.
        let lanes: Vec<u64> = (0..7u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .collect();
        let mut counter = LaneCounter::new();
        for &lane in &lanes {
            counter.add(lane);
        }
        for die in 0..64 {
            let count: u32 = lanes.iter().map(|lane| ((lane >> die) & 1) as u32).sum();
            assert_eq!(
                (counter.at_least_one() >> die) & 1 == 1,
                count >= 1,
                "die {die}"
            );
            assert_eq!(
                (counter.at_least_two() >> die) & 1 == 1,
                count >= 2,
                "die {die}"
            );
            assert_eq!(
                (counter.exactly_one() >> die) & 1 == 1,
                count == 1,
                "die {die}"
            );
        }
    }

    #[test]
    fn empty_counter_reports_nothing() {
        let counter = LaneCounter::new();
        assert_eq!(counter.at_least_one(), 0);
        assert_eq!(counter.at_least_two(), 0);
        assert_eq!(counter.exactly_one(), 0);
    }

    #[test]
    fn saturation_holds_beyond_two() {
        let mut counter = LaneCounter::new();
        for _ in 0..5 {
            counter.add(1);
        }
        assert_eq!(counter.at_least_two() & 1, 1);
        assert_eq!(counter.at_least_one() & 1, 1);
        assert_eq!(counter.exactly_one() & 1, 0);
    }
}
