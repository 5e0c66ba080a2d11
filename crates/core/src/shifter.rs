//! Circular barrel shifter for arbitrary word widths.
//!
//! The bit-shuffling scheme rotates the data word right by `T(r)` bits on
//! every write and left by the same amount on every read (§3). Hardware
//! implements this with a `log2(W)`-stage barrel shifter; here the rotation
//! is a pair of pure functions over `u64`-carried words.

/// Rotates the low `width` bits of `value` right by `shift` positions.
///
/// Bits above `width` must be zero and remain zero. `shift` may be any value;
/// it is reduced modulo `width`.
///
/// # Panics
///
/// Panics if `width` is zero or greater than 64.
///
/// # Example
///
/// ```
/// use faultmit_core::rotate_right;
///
/// assert_eq!(rotate_right(0b0001, 1, 4), 0b1000);
/// assert_eq!(rotate_right(0b1000, 1, 4), 0b0100);
/// ```
#[must_use]
pub fn rotate_right(value: u64, shift: usize, width: usize) -> u64 {
    assert!(width > 0 && width <= 64, "width must be in 1..=64");
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    debug_assert_eq!(value & !mask, 0, "value has bits above the word width");
    // In-range shifts (the overwhelmingly common case on the evaluation hot
    // path) skip the integer division of the modulo reduction.
    let shift = if shift < width { shift } else { shift % width };
    if shift == 0 {
        return value;
    }
    ((value >> shift) | (value << (width - shift))) & mask
}

/// Rotates the low `width` bits of `value` left by `shift` positions.
///
/// Inverse of [`rotate_right`] for the same `shift` and `width`.
///
/// # Panics
///
/// Panics if `width` is zero or greater than 64.
///
/// # Example
///
/// ```
/// use faultmit_core::{rotate_left, rotate_right};
///
/// let word = 0xDEAD_BEEF;
/// let stored = rotate_right(word, 13, 32);
/// assert_eq!(rotate_left(stored, 13, 32), word);
/// ```
#[must_use]
pub fn rotate_left(value: u64, shift: usize, width: usize) -> u64 {
    assert!(width > 0 && width <= 64, "width must be in 1..=64");
    let shift = if shift < width { shift } else { shift % width };
    if shift == 0 {
        return value;
    }
    rotate_right(value, width - shift, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_right_known_patterns() {
        assert_eq!(rotate_right(0x8000_0000, 31, 32), 0x0000_0001);
        assert_eq!(rotate_right(0x0000_0001, 1, 32), 0x8000_0000);
        assert_eq!(rotate_right(0x1234_5678, 0, 32), 0x1234_5678);
        assert_eq!(rotate_right(0xF, 4, 8), 0xF0);
    }

    #[test]
    fn rotate_left_known_patterns() {
        assert_eq!(rotate_left(0x0000_0001, 31, 32), 0x8000_0000);
        assert_eq!(rotate_left(0x8000_0000, 1, 32), 0x0000_0001);
        assert_eq!(rotate_left(0xF0, 4, 8), 0xF);
    }

    #[test]
    fn rotation_matches_u32_native_rotate() {
        let samples = [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x0F0F_0F0F, 0x8000_0001];
        for &v in &samples {
            for shift in 0..64usize {
                assert_eq!(
                    rotate_right(v as u64, shift, 32),
                    v.rotate_right((shift % 32) as u32) as u64
                );
                assert_eq!(
                    rotate_left(v as u64, shift, 32),
                    v.rotate_left((shift % 32) as u32) as u64
                );
            }
        }
    }

    #[test]
    fn rotation_round_trips_for_all_widths() {
        for width in [1usize, 2, 4, 8, 16, 32, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            let value = 0xA5A5_5A5A_DEAD_BEEFu64 & mask;
            for shift in 0..width {
                let stored = rotate_right(value, shift, width);
                assert_eq!(rotate_left(stored, shift, width), value);
                assert_eq!(stored & !mask, 0, "rotation escaped the word");
            }
        }
    }

    #[test]
    fn full_width_rotation_is_identity() {
        assert_eq!(rotate_right(0xABCD, 16, 16), 0xABCD);
        assert_eq!(rotate_left(0xABCD, 16, 16), 0xABCD);
        assert_eq!(rotate_right(0xABCD, 32, 16), 0xABCD);
    }

    #[test]
    fn single_bit_word_is_unchanged() {
        assert_eq!(rotate_right(1, 5, 1), 1);
        assert_eq!(rotate_left(0, 3, 1), 0);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_panics() {
        let _ = rotate_right(0, 0, 0);
    }

    #[test]
    fn popcount_is_preserved_by_rotation() {
        let value = 0x1357_9BDFu64;
        for shift in 0..32 {
            assert_eq!(
                rotate_right(value, shift, 32).count_ones(),
                value.count_ones()
            );
        }
    }
}
