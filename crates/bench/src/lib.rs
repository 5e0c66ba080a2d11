//! Shared helpers for the figure-regeneration binaries and campaign drivers.
//!
//! Every campaign binary in `src/bin/` is a thin shim over the [`figures`]
//! registry: one [`figures::FigureDef`] per figure describes the campaign
//! configuration, per-panel accumulator shape and series rendering, so the
//! monolithic binaries, the `campaign_shard`/`campaign_merge` pair and the
//! `campaign_run` multi-process driver all share one code path and render
//! **byte-identical** JSON. With `--json <path>` (alias `--out`) the series
//! is written as a machine-readable document (via the in-tree [`json`]
//! emitter and parser — the offline build has no `serde_json`) so
//! EXPERIMENTS.md values can be traced; [`shard`] serialises every
//! accumulator shape of the registry for resumable, distributed campaigns.
//!
//! All command-line handling lives in the [`cli`] module: `--threads N`
//! pins the fault-injection pipeline's worker count, `--samples N`
//! overrides the Monte-Carlo budget, `--backend sram|dram|mlc` selects
//! the fault-generation technology so every binary picks up new
//! [`faultmit_memsim::backend`] implementations for free, and
//! `--figure/--shards/--jobs/--retries/--dir` drive sharded execution.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod cli;
pub mod figures;
pub mod json;
pub mod metrics;
pub mod shard;

pub use cli::RunOptions;
