//! # faultmit — significance-driven fault mitigation for unreliable memories
//!
//! A from-scratch Rust reproduction of Ganapathy, Karakonstantis, Teman &
//! Burg, *Mitigating the Impact of Faults in Unreliable Memories for
//! Error-Resilient Applications*, DAC 2015.
//!
//! Instead of correcting memory faults with ECC, the proposed **bit-shuffling
//! scheme** rotates every stored word so that the least significant bits land
//! on the faulty bit-cells found by BIST, bounding the error magnitude at
//! `2^(S−1)` for segment size `S = W / 2^{n_FM}` at a fraction of the ECC
//! read-power, delay and area overhead.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`obs`] | allocation-free observability: typed counters, fixed-bucket histograms, pipeline-stage spans and deterministic [`obs::MetricsSnapshot`]s |
//! | [`memsim`] | SRAM functional model, fault maps, `P_cell(V_DD)` model, BIST, Monte-Carlo die sampling, stream-split seeding, and the [`memsim::backend`] fault-technology layer (SRAM voltage scaling, DRAM retention, MLC NVM) |
//! | [`ecc`] | Hamming SECDED (H(39,32), H(22,16)) and priority-ECC baselines |
//! | [`core`] | segment geometry, FM-LUT, barrel shifter, [`ShuffledMemory`], and [`Scheme`], the one closed type over every protection scheme (no protection, SECDED, P-ECC, bit-shuffling and the ablation's naive shuffle) |
//! | [`sim`] | the parallel fault-injection pipeline: deterministic per-sample RNG streams, paired scheme evaluation, shard samples returned as data, campaigns on every memory technology |
//! | [`analysis`] | MSE quality model (Eq. 6), yield criterion (Eq. 3–5), pipeline-backed Monte-Carlo engine, the mergeable per-stratum accumulator, weighted CDFs |
//! | [`hwmodel`] | analytical 28 nm read-power / delay / area overhead model (Fig. 6) |
//! | [`apps`] | Elasticnet, PCA, KNN benchmarks with synthetic datasets and the pipeline-backed Fig. 7 harness (per-technology via the backend axis) |
//!
//! Every Monte-Carlo figure (Fig. 5 MSE CDFs, Fig. 7 application quality,
//! the ablations, the Fig. 8 backend matrix) runs through one engine,
//! [`sim::Campaign`]: each sampled die derives its RNG from the campaign
//! seed and its global sample index, every protection scheme is scored on
//! the *same* die (paired comparison; a catalogue is a slice of
//! [`Scheme`]s), and a shard's dies come back in plan
//! order whatever the worker count — so campaigns are bit-identical whether
//! they run on one worker thread or many. The dies come from a
//! [`memsim::Backend`], one variant per memory technology: SRAM voltage
//! scaling ([`memsim::SramVddBackend`]) reproduces the paper's model
//! bit-for-bit, while DRAM retention ([`memsim::DramRetentionBackend`]) and
//! MLC NVM ([`memsim::MlcNvmBackend`]) run the identical protocol against
//! clustered retention failures or level-dependent MLC read errors.
//!
//! # Quickstart
//!
//! ```
//! use faultmit::core::{SegmentGeometry, ShuffledMemory};
//! use faultmit::memsim::{Fault, FaultMap, MemoryConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small memory with a broken MSB cell in row 0.
//! let config = MemoryConfig::new(64, 32)?;
//! let mut faults = FaultMap::new(config);
//! faults.insert(Fault::bit_flip(0, 31))?;
//!
//! // Protect it with single-bit-segment bit-shuffling.
//! let mut memory = ShuffledMemory::from_fault_map(SegmentGeometry::new(32, 5)?, faults)?;
//! memory.write(0, 1_000_000)?;
//! assert!(memory.read(0)?.abs_diff(1_000_000) <= 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub use faultmit_analysis as analysis;
pub use faultmit_apps as apps;
pub use faultmit_core as core;
pub use faultmit_ecc as ecc;
pub use faultmit_hwmodel as hwmodel;
pub use faultmit_memsim as memsim;
pub use faultmit_obs as obs;
pub use faultmit_sim as sim;

pub use faultmit_core::{Scheme, SegmentGeometry, ShuffledMemory};
pub use faultmit_memsim::{Fault, FaultKind, FaultMap, MemoryConfig, SramArray};

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_are_wired() {
        let scheme = crate::Scheme::secded32();
        assert_eq!(crate::core::Scheme::word_bits(&scheme), 32);
        let config = crate::MemoryConfig::paper_16kb();
        assert_eq!(config.total_cells(), 131_072);
    }
}
