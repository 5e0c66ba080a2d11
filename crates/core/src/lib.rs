//! Significance-driven bit-shuffling fault mitigation for unreliable
//! memories.
//!
//! This crate implements the primary contribution of Ganapathy et al.,
//! *Mitigating the Impact of Faults in Unreliable Memories for
//! Error-Resilient Applications* (DAC 2015): instead of **correcting** memory
//! faults with ECC, the stored word is **circular-shifted** so that the least
//! significant bits land on the faulty bit-cells. The bit-error distribution
//! is thereby skewed towards the low-order bits, bounding the error magnitude
//! at `2^(S-1)` for a segment size `S = W / 2^{n_FM}` instead of up to
//! `2^(W-1)` for an unprotected word.
//!
//! The building blocks mirror the paper's Fig. 3:
//!
//! * [`SegmentGeometry`] — the relationship between the word width `W`, the
//!   FM-LUT entry width `n_FM`, and the segment size `S` (Eq. (1));
//! * [`FmLut`] — the fault-map look-up table holding the per-row shift index
//!   `x_FM(r)`, built from a BIST report or fault map (Eq. (2));
//! * [`rotate_right`] / [`rotate_left`] — the write/read barrel shifter;
//! * [`ShuffledMemory`] — a complete protected memory coupling an
//!   [`SramArray`](faultmit_memsim::SramArray) with an FM-LUT and the shifter;
//! * the [`Scheme`] catalogue — one closed type over *no protection*,
//!   *SECDED ECC*, *P-ECC*, *bit-shuffling* and the shift ablation's naive
//!   shuffle, used by the analysis and application crates to compare all
//!   schemes on identical fault maps ([`MitigationScheme`] is a vestigial
//!   alias of it);
//! * [`error_magnitude`] — the closed-form worst-case error magnitude per
//!   faulty bit position (Fig. 4).
//!
//! # Example
//!
//! ```
//! use faultmit_core::{ShuffledMemory, SegmentGeometry};
//! use faultmit_memsim::{Fault, FaultMap, MemoryConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemoryConfig::new(16, 32)?;
//! let mut faults = FaultMap::new(config);
//! // The MSB cell of row 0 is broken: unprotected error magnitude 2^31.
//! faults.insert(Fault::bit_flip(0, 31))?;
//!
//! let geometry = SegmentGeometry::new(32, 5)?; // single-bit segments
//! let mut memory = ShuffledMemory::from_fault_map(geometry, faults)?;
//!
//! memory.write(0, 123_456_789)?;
//! let read = memory.read(0)?;
//! // The fault now lands on the least significant segment: error <= 1.
//! assert!(read.abs_diff(123_456_789) <= 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod error;
pub mod error_magnitude;
pub mod fmlut;
pub mod mitigation;
pub mod scheme;
pub mod segment;
pub mod shifter;

pub use error::CoreError;
pub use error_magnitude::{max_error_magnitude, worst_case_error_magnitude};
pub use fmlut::FmLut;
pub use mitigation::{MitigationScheme, ObservedWord, Scheme, SingleFault};
pub use scheme::ShuffledMemory;
pub use segment::SegmentGeometry;
pub use shifter::{rotate_left, rotate_right};
