//! Functional model of an unreliable SRAM data memory.
//!
//! This crate provides the memory substrate used by the DAC'15 bit-shuffling
//! reproduction:
//!
//! * [`SramArray`] — an `R × W` functional SRAM model with word-granular
//!   access and persistent, variation-induced bit-cell faults applied on read.
//! * [`FaultMap`] / [`Fault`] — the set of faulty bit-cells of one
//!   manufactured die (location + behaviour).
//! * [`CellFailureModel`] — an analytical Gaussian noise-margin model of the
//!   bit-cell failure probability `P_cell(V_DD)` replacing the paper's
//!   SPICE/importance-sampling flow (Fig. 2).
//! * [`backend`] — the [`FaultBackend`] abstraction over memory
//!   technologies: [`SramVddBackend`] (the paper's model, bit-identical to
//!   the historical pipeline), [`DramRetentionBackend`] (exponential
//!   weak-cell retention times, spatially clustered faults) and
//!   [`MlcNvmBackend`] (drift-broadened level margins, level-dependent
//!   asymmetric bit errors). See the module docs for a worked
//!   "add your own backend" example.
//! * [`image`] — data images: [`DataImage`] word sources and the
//!   [`ImageSpec`] catalogue (zeros, ones, uniform-random, sparse,
//!   application matrices) against which data-aware campaigns evaluate
//!   stuck-at faults relative to the stored word.
//! * [`DieSampler`] and [`montecarlo`] — Monte-Carlo generation of dies and
//!   fault maps following the binomial failure-count distribution of Eq. (4).
//! * [`StreamSeeder`] / [`DieBatch`] — deterministic stream-splitting of a
//!   campaign seed into per-sample RNGs and batched die generation, the
//!   sampling substrate of the parallel fault-injection pipeline
//!   (`faultmit-sim`): fault maps depend only on `(campaign seed, sample
//!   index)`, never on which worker thread draws them.
//! * [`MarchBist`] — a March C- built-in self test that locates faulty cells,
//!   producing the per-row report that seeds the bit-shuffling FM-LUT.
//! * [`dieblock`] — transposed (bit-sliced) die blocks: up to
//!   [`BLOCK_DIES`] (64) planned samples packed into `u64` lanes
//!   ([`DieBlock`], [`LaneCell`], [`ResidualLanes`]) for the lane-parallel
//!   evaluation kernel, generated from the same per-sample RNG streams as
//!   the scalar paths.
//!
//! # Example
//!
//! ```
//! use faultmit_memsim::{MemoryConfig, SramArray, Fault, FaultKind, FaultMap};
//!
//! # fn main() -> Result<(), faultmit_memsim::MemError> {
//! let config = MemoryConfig::new(4, 32)?;
//! let mut faults = FaultMap::new(config);
//! faults.insert(Fault::new(0, 31, FaultKind::StuckAtOne))?;
//!
//! let mut array = SramArray::with_faults(config, faults);
//! array.write(0, 0)?;
//! // The stuck-at-one cell corrupts the MSB of row 0.
//! assert_eq!(array.read(0)?, 1 << 31);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod array;
pub mod backend;
pub mod bist;
pub mod config;
pub mod dieblock;
pub mod error;
pub mod failure_model;
pub mod fault;
mod floyd;
pub mod image;
pub mod montecarlo;
pub mod redundancy;
pub mod scratch;
pub mod seeder;
pub mod stats;
pub mod voltage;

pub use array::{corrupt_word, SramArray};
pub use backend::{
    Backend, BackendKind, DramRetentionBackend, FaultBackend, FaultKindLaw, MlcNvmBackend,
    OperatingPoint, SramVddBackend,
};
pub use bist::{BistReport, MarchBist, RowFaultReport};
pub use config::MemoryConfig;
pub use dieblock::{for_each_die, BlockRow, DieBlock, LaneCell, ResidualLanes, BLOCK_DIES};
pub use error::MemError;
pub use failure_model::{CellFailureModel, FailureModelBuilder};
pub use fault::{Fault, FaultKind, FaultMap};
pub use image::{AppImage, DataImage, ImageSpec, WordImage};
pub use montecarlo::{DieSampler, FailureCountDistribution, FaultMapSampler};
pub use redundancy::{repair_yield, spares_for_full_repair, RowRepair};
pub use scratch::{BlockScratch, DieScratch};
pub use seeder::{DieBatch, PlannedSample, StreamSeeder};
pub use voltage::{VddSweep, VoltageScaledDie};
