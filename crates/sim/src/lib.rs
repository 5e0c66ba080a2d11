//! The unified parallel fault-injection pipeline.
//!
//! This crate is the single engine behind every Monte-Carlo evaluation in
//! the workspace — from Fig. 5's memory-MSE CDFs to Fig. 7's application
//! quality. It composes three ideas:
//!
//! * **Deterministic stream splitting** — every Monte-Carlo sample derives
//!   its RNG from the campaign seed and its global sample index
//!   ([`faultmit_memsim::StreamSeeder`]), never from execution order.
//! * **Paired scheme comparison** — each sampled die is evaluated under
//!   *every* scheme of the catalogue (a slice of `faultmit_core::Scheme`)
//!   in one pass, so schemes are compared on identical fault populations
//!   (the protocol stressed by heterogeneous-reliability-memory studies).
//! * **Samples as data** — worker threads return each chunk's metrics as a
//!   flat buffer, and a shard returns its dies in plan order with those
//!   buffers ([`ShardSamples`]), whatever the worker count; the caller folds
//!   them (the analysis crate's `CatalogueAccumulator`), shard after shard
//!   in shard order.
//!
//! Dies come from a [`faultmit_memsim::Backend`]:
//! [`CampaignConfig::new`] keeps the paper's SRAM voltage-scaling model
//! (bit-identical to the historical pipeline), while
//! [`CampaignConfig::for_backend`] runs the identical protocol against DRAM
//! retention or MLC NVM.
//!
//! ```
//! use faultmit_core::Scheme;
//! use faultmit_memsim::MemoryConfig;
//! use faultmit_sim::{Campaign, CampaignConfig, Parallelism, ShardSpec};
//! use std::convert::Infallible;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CampaignConfig::new(MemoryConfig::new(256, 32)?, 1e-3)?
//!     .with_samples_per_count(5)
//!     .with_max_failures(4)
//!     .with_parallelism(Parallelism::threads(2));
//! let campaign = Campaign::new(config);
//! let schemes = [Scheme::unprotected32(), Scheme::shuffle32(5)?];
//! // One call per die fills one metric per scheme.
//! let (samples, stats) = campaign.run_shard(
//!     &schemes,
//!     42,
//!     ShardSpec::solo(),
//!     |map, metrics| {
//!         for (metric, scheme) in metrics.iter_mut().zip(&schemes) {
//!             *metric = scheme.observe(map, 0, 0).value as f64;
//!         }
//!         Ok::<(), Infallible>(())
//!     },
//! )?;
//! // 4 failure counts × 5 samples, each evaluated under both schemes.
//! assert_eq!(samples.dies.len(), 20);
//! assert_eq!(samples.chunks.concat().len(), 20 * 2);
//! // Generation is timed in worker-seconds whether or not a metrics
//! // recorder is installed.
//! assert!(stats.generation_seconds >= 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Sharded, resumable campaigns
//!
//! A campaign is a *plan over sample-index ranges*, so it can be split into
//! [`ShardSpec`] shards whose chunk ranges tile the global plan: each shard
//! is an independent process (or machine), and the shards' samples taken in
//! shard order are **bit-identical** to the monolithic run's — monolithic
//! execution is just the `0/1` shard ([`ShardSpec::solo`]). In-process:
//!
//! ```
//! use faultmit_core::Scheme;
//! use faultmit_memsim::MemoryConfig;
//! use faultmit_sim::{Campaign, CampaignConfig, ShardSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CampaignConfig::new(MemoryConfig::new(256, 32)?, 1e-3)?
//!     .with_samples_per_count(6)
//!     .with_max_failures(4)
//!     .with_chunk_size(4);
//! let campaign = Campaign::new(config);
//! let schemes = [Scheme::unprotected32()];
//! let metric = |map: &faultmit_memsim::FaultMap, metrics: &mut [f64]| {
//!     metrics.fill(map.fault_count() as f64);
//!     Ok::<(), std::convert::Infallible>(())
//! };
//! let run = |shard| campaign.run_shard(&schemes, 7, shard, metric);
//!
//! let (monolithic, _) = run(ShardSpec::solo())?;
//! let (mut dies, mut metrics) = (Vec::new(), Vec::new());
//! for index in 0..3 {
//!     let (shard, _) = run(ShardSpec::new(index, 3)?)?;
//!     dies.extend(shard.dies);
//!     metrics.extend(shard.chunks.concat());
//! }
//! // Bit-identical, not just statistically equal.
//! assert_eq!(dies, monolithic.dies);
//! assert_eq!(metrics, monolithic.chunks.concat());
//! # Ok(())
//! # }
//! ```
//!
//! Across processes and machines, the `faultmit-bench` crate packages this
//! as the `campaign_shard` / `campaign_merge` binaries — each host
//! evaluates one shard of any registered figure campaign and serialises
//! its panel state to JSON; the merge step folds the shard files in shard
//! order and renders the exact figure JSON the monolithic binary would
//! have written — and as the single-command `campaign_run` driver, which
//! spawns and retries `campaign_shard` child processes locally. A
//! completed shard file doubles as a checkpoint — re-running a partially
//! finished campaign recomputes only the missing shards:
//!
//! ```text
//! host-a$ campaign_shard --figure fig5 --backend dram --shard 0/2 --out shards/fig5-dram-0of2.json
//! host-b$ campaign_shard --figure fig5 --backend dram --shard 1/2 --out shards/fig5-dram-1of2.json
//! # gather the shard files, then render Fig. 5 byte-identically to the
//! # monolithic `fig5_mse_cdf --json`:
//! host-a$ campaign_merge shards/fig5-dram-0of2.json shards/fig5-dram-1of2.json \
//!             --out results/fig5-dram.json
//! # or, on one host, the whole sharded flow in one command:
//! host-a$ campaign_run --figure fig8_backend_matrix --shards 4 --jobs 2 --out results/fig8.json
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod error;
pub mod executor;

pub use campaign::{
    Campaign, CampaignConfig, KernelKind, ShardSamples, ShardSpec, ShardStats, N_MAX_COVERAGE,
};
pub use error::{RunError, SimError};
pub use executor::{run_chunked_with, Parallelism};
pub use faultmit_memsim::MapPolicy;
