//! Analytical 28 nm hardware cost model for memory protection schemes.
//!
//! The paper evaluates the read-power, read-delay and area overhead of the
//! bit-shuffling scheme against H(39,32) SECDED and H(22,16) P-ECC by
//! synthesising the encoder/decoder blocks in a 28 nm FD-SOI flow (Synopsys
//! Design Compiler + Cadence SoC Encounter) and estimating the extra-column
//! cost from SRAM macros (§5.1, Fig. 6). That flow needs proprietary PDKs and
//! EDA tools, so this crate substitutes a transparent analytical model:
//!
//! * every protection block is decomposed into its structural primitives
//!   (XOR trees for syndrome generation, AND-gate error locators, correction
//!   XORs, barrel-shifter mux stages, extra SRAM columns for parity bits or
//!   the FM-LUT) — see [`components`];
//! * a [`Technology`] profile assigns per-primitive delay, energy and area
//!   constants representative of a generic 28 nm node;
//! * [`OverheadModel`] combines the two into absolute read-path costs and the
//!   relative-to-SECDED percentages that Fig. 6 reports.
//!
//! The *structure* of each block (XOR-tree depth `∝ log₂ W`, shifter
//! `n_FM` mux stages, column counts) is what determines the relative
//! ordering, so the model reproduces the paper's qualitative result: the
//! bit-shuffling read path is far cheaper than SECDED at coarse segment
//! granularity and its cost grows towards (but stays below) the ECC cost as
//! `n_FM` increases.
//!
//! # Example
//!
//! ```
//! use faultmit_hwmodel::{OverheadModel, ProtectionBlock};
//!
//! let model = OverheadModel::default_28nm(4096, 32);
//! let secded = model.read_path_cost(ProtectionBlock::Secded);
//! let shuffle1 = model.read_path_cost(ProtectionBlock::BitShuffle { n_fm: 1 });
//! assert!(shuffle1.energy_fj < secded.energy_fj);
//! assert!(shuffle1.delay_ps < secded.delay_ps);
//! assert!(shuffle1.area_um2 < secded.area_um2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod components;
pub mod cost;
pub mod lut;
pub mod overhead;
pub mod technology;

pub use cost::ReadPathCost;
pub use lut::LutImplementation;
pub use overhead::{Fig6Row, OverheadModel, ProtectionBlock};
pub use technology::Technology;
