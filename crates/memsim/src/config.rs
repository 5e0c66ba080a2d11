//! Memory geometry configuration.

use crate::error::MemError;

/// Maximum supported word width in bits.
///
/// Words are modelled as `u64`, so the simulator supports any width up to 64
/// bits; the paper's evaluation uses 32-bit words.
pub const MAX_WORD_BITS: usize = 64;

/// Geometry of a word-organised SRAM array: `rows × word_bits` bit-cells.
///
/// The paper's quality evaluation uses a 16 KB memory with 32-bit words,
/// available here as [`MemoryConfig::paper_16kb`].
///
/// # Example
///
/// ```
/// use faultmit_memsim::MemoryConfig;
///
/// # fn main() -> Result<(), faultmit_memsim::MemError> {
/// let config = MemoryConfig::new(4096, 32)?;
/// assert_eq!(config.total_cells(), 131_072);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryConfig {
    rows: usize,
    word_bits: usize,
}

impl MemoryConfig {
    /// Creates a configuration with `rows` words of `word_bits` bits each.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidGeometry`] if `rows` is zero or `word_bits`
    /// is zero or larger than [`MAX_WORD_BITS`].
    pub fn new(rows: usize, word_bits: usize) -> Result<Self, MemError> {
        if rows == 0 {
            return Err(MemError::InvalidGeometry {
                reason: "memory must have at least one row".to_owned(),
            });
        }
        if word_bits == 0 || word_bits > MAX_WORD_BITS {
            return Err(MemError::InvalidGeometry {
                reason: format!("word width must be in 1..={MAX_WORD_BITS}, got {word_bits}"),
            });
        }
        Ok(Self { rows, word_bits })
    }

    /// The 16 KB, 32-bit-word memory used throughout the paper's evaluation.
    #[must_use]
    pub fn paper_16kb() -> Self {
        Self {
            rows: 16 * 1024 / 4,
            word_bits: 32,
        }
    }

    /// Number of rows (words) in the array.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Word width in bits (`W` in the paper).
    #[must_use]
    pub fn word_bits(&self) -> usize {
        self.word_bits
    }

    /// Total number of bit-cells `M = R × W`.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.rows * self.word_bits
    }

    /// A mask with the low `word_bits` bits set.
    #[must_use]
    pub fn word_mask(&self) -> u64 {
        if self.word_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.word_bits) - 1
        }
    }

    /// Returns `Ok(())` when `row` addresses a valid word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RowOutOfRange`] otherwise.
    pub fn check_row(&self, row: usize) -> Result<(), MemError> {
        if row < self.rows {
            Ok(())
        } else {
            Err(MemError::RowOutOfRange {
                row,
                rows: self.rows,
            })
        }
    }

    /// Returns `Ok(())` when `col` addresses a valid bit position.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::ColumnOutOfRange`] otherwise.
    pub fn check_col(&self, col: usize) -> Result<(), MemError> {
        if col < self.word_bits {
            Ok(())
        } else {
            Err(MemError::ColumnOutOfRange {
                col,
                word_bits: self.word_bits,
            })
        }
    }

    /// Returns `Ok(())` when `value` fits in the word width.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::ValueTooWide`] otherwise.
    pub fn check_value(&self, value: u64) -> Result<(), MemError> {
        if value & !self.word_mask() == 0 {
            Ok(())
        } else {
            Err(MemError::ValueTooWide {
                value,
                word_bits: self.word_bits,
            })
        }
    }

    /// Flat cell index of `(row, col)` using row-major order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `row` or `col` are out of range; use
    /// [`MemoryConfig::check_row`]/[`MemoryConfig::check_col`] first for
    /// untrusted input.
    #[must_use]
    pub fn cell_index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.word_bits);
        row * self.word_bits + col
    }

    /// Inverse of [`MemoryConfig::cell_index`].
    #[must_use]
    pub fn cell_position(&self, index: usize) -> (usize, usize) {
        // Every shipped geometry has a power-of-two word width, which
        // splits by shift and mask instead of two divisions.
        if self.word_bits.is_power_of_two() {
            (
                index >> self.word_bits.trailing_zeros(),
                index & (self.word_bits - 1),
            )
        } else {
            (index / self.word_bits, index % self.word_bits)
        }
    }
}

impl Default for MemoryConfig {
    /// Defaults to the paper's 16 KB, 32-bit word memory.
    fn default() -> Self {
        Self::paper_16kb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_memory_has_expected_geometry() {
        let c = MemoryConfig::paper_16kb();
        assert_eq!(c.rows(), 4096);
        assert_eq!(c.word_bits(), 32);
        assert_eq!(c.total_cells(), 131_072);
    }

    #[test]
    fn rejects_zero_rows_and_bad_widths() {
        assert!(MemoryConfig::new(0, 32).is_err());
        assert!(MemoryConfig::new(16, 0).is_err());
        assert!(MemoryConfig::new(16, 65).is_err());
        assert!(MemoryConfig::new(16, 64).is_ok());
    }

    #[test]
    fn word_mask_matches_width() {
        assert_eq!(MemoryConfig::new(1, 8).unwrap().word_mask(), 0xFF);
        assert_eq!(MemoryConfig::new(1, 32).unwrap().word_mask(), 0xFFFF_FFFF);
        assert_eq!(MemoryConfig::new(1, 64).unwrap().word_mask(), u64::MAX);
    }

    #[test]
    fn bounds_checks_work() {
        let c = MemoryConfig::new(4, 16).unwrap();
        assert!(c.check_row(3).is_ok());
        assert!(c.check_row(4).is_err());
        assert!(c.check_col(15).is_ok());
        assert!(c.check_col(16).is_err());
        assert!(c.check_value(0xFFFF).is_ok());
        assert!(c.check_value(0x10000).is_err());
    }

    #[test]
    fn cell_index_round_trips() {
        // Power-of-two widths split by shift and mask, others by division.
        for word_bits in [32, 24] {
            let c = MemoryConfig::new(8, word_bits).unwrap();
            for row in 0..8 {
                for col in 0..word_bits {
                    let idx = c.cell_index(row, col);
                    assert_eq!(c.cell_position(idx), (row, col));
                }
            }
        }
    }

    #[test]
    fn default_is_paper_memory() {
        assert_eq!(MemoryConfig::default(), MemoryConfig::paper_16kb());
    }
}
