//! Yield criterion, MSE quality model and Monte-Carlo evaluation engine.
//!
//! This crate implements §4 of the paper — the relaxed, quality-aware yield
//! criterion — and the machinery behind its Fig. 5:
//!
//! * [`mse`] — the local mean-square-error quality function of Eq. (6),
//!   evaluated for any [`Scheme`](faultmit_core::Scheme);
//! * [`EmpiricalCdf`] — weighted empirical cumulative distribution functions
//!   over quality samples;
//! * [`YieldModel`] — the joint probability of Eq. (3)–(5): combining the
//!   binomial failure-count distribution with per-count quality distributions
//!   to obtain the yield at a given quality constraint;
//! * [`MonteCarloEngine`] — the fault-injection campaign that sweeps failure
//!   counts, draws random fault maps and produces per-scheme MSE CDFs
//!   (the Fig. 5 series);
//! * [`report`] — plain-text table helpers used by the figure-regeneration
//!   binaries.
//!
//! # Example
//!
//! ```
//! use faultmit_analysis::MonteCarloEngine;
//! use faultmit_core::Scheme;
//! use faultmit_memsim::MemoryConfig;
//! use faultmit_sim::CampaignConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CampaignConfig::new(MemoryConfig::new(256, 32)?, 1e-4)?
//!     .with_samples_per_count(20)
//!     .with_max_failures(8);
//! let engine = MonteCarloEngine::new(config);
//! let results = engine.run_catalogue(&[Scheme::shuffle32(5)?], 42)?;
//! // With single-bit segments every fault costs at most 1², so the MSE stays tiny.
//! let mse_cdf = results[0].yield_model.combined_cdf(0.0);
//! assert!(mse_cdf.quantile(0.999) <= 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod accumulate;
pub mod cdf;
pub mod error;
pub mod mc_engine;
pub mod mse;
pub mod report;
pub mod yield_model;

pub use accumulate::CatalogueAccumulator;
pub use cdf::EmpiricalCdf;
pub use error::AnalysisError;
pub use mc_engine::{MonteCarloEngine, SchemeMseResult};
pub use mse::{memory_mse, memory_mse_for_data, word_squared_error, CatalogueMse};
pub use yield_model::{QualityBand, YieldModel};
