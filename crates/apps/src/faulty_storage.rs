//! Passing application data through a faulty, protected memory.
//!
//! The paper's application study (§5.2) stores each benchmark's training data
//! in a functional model of a 16 KB memory, injects bit-flips according to a
//! random fault map, and trains on whatever comes back out. [`FaultyStore`]
//! implements that round trip for a whole feature matrix: every value is
//! quantised to the storage fixed-point format, written through the selected
//! protection scheme into a (faulty) memory row, read back and de-quantised.
//!
//! Datasets larger than one memory bank wrap around: word `k` lands in row
//! `k mod rows`, modelling a tiled/banked layout where the same physical rows
//! (and therefore the same faulty cells) are reused across tiles.
//!
//! A die has a few fault-bearing rows among thousands, and a row without
//! faults reads back what was written under every scheme. So
//! [`FaultyStore::read_back`] quantises a matrix once ([`StoredMatrix`]) and
//! reads back only the words that live in fault-bearing rows;
//! [`FaultyStore::round_trip_matrix`] is the dense reference it matches bit
//! for bit.

use crate::error::AppError;
use crate::fixedpoint::FixedPointFormat;
use crate::linalg::Matrix;
use faultmit_core::Scheme;
use faultmit_memsim::FaultMap;

/// A matrix quantised to its storage words, together with the matrix a
/// fault-free memory reads those words back as.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredMatrix {
    format: FixedPointFormat,
    words: Vec<u64>,
    clean: Matrix,
}

impl StoredMatrix {
    /// Quantises `matrix` (row-major) to words of the given format.
    #[must_use]
    pub fn new(matrix: &Matrix, format: FixedPointFormat) -> Self {
        let words = format.encode_all(matrix.as_slice());
        let clean = Matrix::from_vec(matrix.rows(), matrix.cols(), format.decode_all(&words))
            .expect("one decoded value per element");
        Self {
            format,
            words,
            clean,
        }
    }

    /// The storage words, in row-major element order.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// What a fault-free memory reads the words back as.
    #[must_use]
    pub fn clean(&self) -> &Matrix {
        &self.clean
    }

    /// The clean read-back with the given words ([`FaultyStore::changed_words`])
    /// decoded in place.
    #[must_use]
    pub fn patched(&self, changed: &[(usize, u64)]) -> Matrix {
        let mut patched = self.clean.clone();
        let data = patched.as_mut_slice();
        for &(index, word) in changed {
            data[index] = self.format.decode(word);
        }
        patched
    }
}

/// Stores values through a protection scheme backed by a faulty memory.
#[derive(Debug, Clone)]
pub struct FaultyStore<'a> {
    scheme: &'a Scheme,
    faults: &'a FaultMap,
    format: FixedPointFormat,
}

impl<'a> FaultyStore<'a> {
    /// Creates a store for the given scheme, fault map and fixed-point
    /// format.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] when the fixed-point word width
    /// does not match the scheme's word width or the fault-map geometry.
    pub fn new(
        scheme: &'a Scheme,
        faults: &'a FaultMap,
        format: FixedPointFormat,
    ) -> Result<Self, AppError> {
        if format.word_bits() != scheme.word_bits() {
            return Err(AppError::InvalidParameter {
                reason: format!(
                    "fixed-point width {} does not match scheme word width {}",
                    format.word_bits(),
                    scheme.word_bits()
                ),
            });
        }
        if faults.config().word_bits() != scheme.word_bits() {
            return Err(AppError::InvalidParameter {
                reason: format!(
                    "fault map word width {} does not match scheme word width {}",
                    faults.config().word_bits(),
                    scheme.word_bits()
                ),
            });
        }
        Ok(Self {
            scheme,
            faults,
            format,
        })
    }

    /// The fixed-point storage format.
    #[must_use]
    pub fn format(&self) -> FixedPointFormat {
        self.format
    }

    /// Stores a single value at logical word index `index` and reads it back
    /// through the faulty memory.
    #[must_use]
    pub fn round_trip_value(&self, index: usize, value: f64) -> f64 {
        let row = index % self.faults.config().rows();
        let written = self.format.encode(value);
        let observed = self.scheme.observe(self.faults, row, written);
        self.format.decode(observed.value)
    }

    /// Stores a slice of values sequentially and reads them back.
    #[must_use]
    pub fn round_trip_values(&self, values: &[f64]) -> Vec<f64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| self.round_trip_value(i, v))
            .collect()
    }

    /// Stores a whole matrix (row-major) and reads it back.
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed store; the `Result` mirrors matrix
    /// construction.
    pub fn round_trip_matrix(&self, matrix: &Matrix) -> Result<Matrix, AppError> {
        let corrupted = self.round_trip_values(matrix.as_slice());
        Matrix::from_vec(matrix.rows(), matrix.cols(), corrupted)
    }

    /// Reads a stored matrix back through the faulty memory, visiting only
    /// the words that live in fault-bearing rows.
    ///
    /// Returns `None` when each of those words reads back exactly as
    /// written: the read-back is then [`StoredMatrix::clean`] bit for bit.
    /// Otherwise returns the clean read-back with the changed words patched
    /// in, bit-identical to [`FaultyStore::round_trip_matrix`] on the
    /// original matrix. Words in fault-free rows are never read, which is
    /// sound because a scheme delivers such a word intact (the empty-slice
    /// contract of [`Scheme::observe_sparse`]).
    ///
    /// # Panics
    ///
    /// Panics when `stored` was quantised with a different format.
    #[must_use]
    pub fn read_back(&self, stored: &StoredMatrix) -> Option<Matrix> {
        let changed = self.changed_words(stored);
        (!changed.is_empty()).then(|| stored.patched(&changed))
    }

    /// The words of `stored` that read back changed, as (element index,
    /// word read back), row by fault-bearing row: two read-backs are the
    /// same matrix exactly when these lists are equal.
    ///
    /// # Panics
    ///
    /// Panics when `stored` was quantised with a different format.
    #[must_use]
    pub fn changed_words(&self, stored: &StoredMatrix) -> Vec<(usize, u64)> {
        assert_eq!(stored.format, self.format, "stored with another format");
        let rows = self.faults.config().rows();
        let mut changed = Vec::new();
        for (row, row_faults) in self.faults.rows_with_faults() {
            for index in (row..stored.words.len()).step_by(rows) {
                let written = stored.words[index];
                let observed = self.scheme.observe_sparse(row_faults, written);
                if observed.value != written {
                    changed.push((index, observed.value));
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_memsim::{Fault, MemoryConfig};

    fn fault_map(faults: &[Fault]) -> FaultMap {
        let config = MemoryConfig::new(64, 32).unwrap();
        FaultMap::from_faults(config, faults.iter().copied()).unwrap()
    }

    #[test]
    fn fault_free_round_trip_only_quantises() {
        let faults = fault_map(&[]);
        let scheme = Scheme::unprotected32();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        let values = vec![1.5, -2.25, 1000.0, -0.0001];
        let out = store.round_trip_values(&values);
        for (a, b) in values.iter().zip(&out) {
            assert!((a - b).abs() <= store.format().resolution());
        }
    }

    #[test]
    fn msb_fault_devastates_unprotected_value() {
        let faults = fault_map(&[Fault::bit_flip(3, 31)]);
        let scheme = Scheme::unprotected32();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        // Word index 3 maps to row 3.
        let corrupted = store.round_trip_value(3, 1.0);
        assert!(
            (corrupted - 1.0).abs() > 10_000.0,
            "corrupted = {corrupted}"
        );
        // Any other index is untouched.
        assert!((store.round_trip_value(4, 1.0) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn bit_shuffling_limits_the_damage() {
        let faults = fault_map(&[Fault::bit_flip(3, 31)]);
        let scheme = Scheme::shuffle32(5).unwrap();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        let corrupted = store.round_trip_value(3, 1.0);
        // Worst-case error is one LSB of the fixed-point format.
        assert!((corrupted - 1.0).abs() <= store.format().resolution() + 1e-12);
    }

    #[test]
    fn secded_round_trip_is_exact_for_single_faults() {
        let faults = fault_map(&[Fault::bit_flip(0, 31), Fault::bit_flip(1, 0)]);
        let scheme = Scheme::secded32();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        for index in 0..4 {
            let v = store.round_trip_value(index, -3.75);
            assert!((v + 3.75).abs() <= store.format().resolution());
        }
    }

    #[test]
    fn matrix_round_trip_wraps_across_rows() {
        // 64-row memory, matrix with 130 entries: indices 64 and 128 also hit
        // row 0's fault.
        let faults = fault_map(&[Fault::bit_flip(0, 31)]);
        let scheme = Scheme::unprotected32();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        let matrix = Matrix::from_vec(13, 10, vec![1.0; 130]).unwrap();
        let corrupted = store.round_trip_matrix(&matrix).unwrap();
        let damaged: usize = corrupted
            .as_slice()
            .iter()
            .filter(|&&v| (v - 1.0).abs() > 1.0)
            .count();
        assert_eq!(damaged, 3, "indices 0, 64 and 128 must be corrupted");
    }

    #[test]
    fn read_back_patches_only_changed_words() {
        // Row 0 holds a flip (indices 0, 64 and 128); row 2 holds two
        // stuck-at cells that agree with every stored 1.0.
        let faults = fault_map(&[
            Fault::bit_flip(0, 31),
            Fault::stuck_at_zero(2, 0),
            Fault::stuck_at_zero(2, 1),
        ]);
        let matrix = Matrix::from_vec(13, 10, vec![1.0; 130]).unwrap();
        let format = FixedPointFormat::q15_16();
        let stored = StoredMatrix::new(&matrix, format);
        assert_eq!(stored.words().len(), 130);

        let unprotected = Scheme::unprotected32();
        let store = FaultyStore::new(&unprotected, &faults, format).unwrap();
        let patched = store.read_back(&stored).expect("the flip changes words");
        assert_eq!(patched, store.round_trip_matrix(&matrix).unwrap());

        // SECDED corrects the single flip and the stuck-at cells read back
        // what was written: nothing changes, so there is nothing to patch.
        let secded = Scheme::secded32();
        let store = FaultyStore::new(&secded, &faults, format).unwrap();
        assert_eq!(store.read_back(&stored), None);
        assert_eq!(&store.round_trip_matrix(&matrix).unwrap(), stored.clean());
    }

    #[test]
    fn mismatched_configurations_are_rejected() {
        let faults = fault_map(&[]);
        let scheme = Scheme::unprotected32();
        // 16-bit fixed point with a 32-bit scheme.
        let bad_format = FixedPointFormat::new(16, 8).unwrap();
        assert!(FaultyStore::new(&scheme, &faults, bad_format).is_err());
        // Fault map with a different word width.
        let narrow_map = FaultMap::new(MemoryConfig::new(64, 16).unwrap());
        assert!(FaultyStore::new(&scheme, &narrow_map, FixedPointFormat::q15_16()).is_err());
    }
}
