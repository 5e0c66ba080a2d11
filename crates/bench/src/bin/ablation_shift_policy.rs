//! Ablation — FM-LUT shift-selection policy for rows with multiple faults.
//!
//! The paper defines the shift for a single faulty cell per word (Eq. (2)).
//! At low supply voltages rows with two or more faulty cells become common,
//! and the FM-LUT must then pick one shift that cannot protect every fault.
//! This ablation compares the **naive** policy (align the least significant
//! segment with the most significant faulty cell) against the **optimal**
//! exhaustive search, as a paired catalogue campaign of the MSE engine
//! (`analysis::MonteCarloEngine`) — both policies score the *same*
//! Monte-Carlo fault maps.
//!
//! A thin shim over the `faultmit_bench::figures` registry entry
//! `ablation_shift_policy`; each `(n_FM, faults/map)` sweep point is one
//! campaign panel, so the ablation shards via
//! `campaign_run --figure ablation_shift_policy`.
//!
//! ```text
//! cargo run --release -p faultmit-bench --bin ablation_shift_policy [-- --threads 4]
//! ```

fn main() -> Result<(), Box<dyn std::error::Error>> {
    faultmit_bench::figures::run_monolithic("ablation_shift_policy")
}
