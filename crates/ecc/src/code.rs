//! The SECDED codec interface shared by plain Hamming ECC and P-ECC.

use crate::error::EccError;

/// Outcome of decoding one codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// The codeword was consistent; no error was observed.
    Clean,
    /// A single-bit error was detected and corrected.
    CorrectedSingle,
    /// A double-bit error was detected; the returned data is unreliable.
    DetectedDouble,
}

/// A decoded word together with the decoder's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decoded {
    /// The recovered data word.
    pub data: u64,
    /// What the decoder observed.
    pub outcome: DecodeOutcome,
}

/// A single-error-correcting, double-error-detecting block code over one
/// memory word.
///
/// Implementors map a `data_bits()`-bit data word to a `codeword_bits()`-bit
/// codeword and back. All values are carried in the low bits of a `u64`.
pub trait SecdedCode {
    /// Number of data bits `k` (the paper's `W`).
    fn data_bits(&self) -> usize;

    /// Number of check bits `c` added to each word.
    fn parity_bits(&self) -> usize;

    /// Total codeword width `n = k + c` (the paper's `C`).
    fn codeword_bits(&self) -> usize {
        self.data_bits() + self.parity_bits()
    }

    /// Encodes a data word into a codeword.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::DataTooWide`] when `data` does not fit in
    /// `data_bits()` bits.
    fn encode(&self, data: u64) -> Result<u64, EccError>;

    /// Decodes a (possibly corrupted) codeword.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::CodewordTooWide`] when `codeword` does not fit in
    /// `codeword_bits()` bits.
    fn decode(&self, codeword: u64) -> Result<Decoded, EccError>;

    /// Decodes a codeword the caller *knows* is uncorrupted, e.g. because
    /// the memory's fault map has no fault in the word's row.
    ///
    /// For any codeword produced by [`SecdedCode::encode`] this must return
    /// exactly what [`SecdedCode::decode`] returns — `data` recovered and
    /// [`DecodeOutcome::Clean`]. Implementations may skip syndrome and
    /// parity computation, so the behaviour on a codeword that *is*
    /// corrupted is unspecified; callers must gate this on external
    /// knowledge of fault-freeness. The default simply runs the full
    /// decoder, so custom codes stay correct without opting in.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::CodewordTooWide`] when `codeword` does not fit in
    /// `codeword_bits()` bits.
    fn decode_clean(&self, codeword: u64) -> Result<Decoded, EccError> {
        self.decode(codeword)
    }

    /// Storage overhead of the code: extra bits per data bit.
    fn storage_overhead(&self) -> f64 {
        self.parity_bits() as f64 / self.data_bits() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl SecdedCode for Dummy {
        fn data_bits(&self) -> usize {
            32
        }
        fn parity_bits(&self) -> usize {
            7
        }
        fn encode(&self, data: u64) -> Result<u64, EccError> {
            Ok(data)
        }
        fn decode(&self, codeword: u64) -> Result<Decoded, EccError> {
            Ok(Decoded {
                data: codeword,
                outcome: DecodeOutcome::Clean,
            })
        }
    }

    #[test]
    fn default_codeword_bits_and_overhead() {
        let d = Dummy;
        assert_eq!(d.codeword_bits(), 39);
        assert!((d.storage_overhead() - 7.0 / 32.0).abs() < 1e-12);
    }
}
