//! Yield analysis under the relaxed, quality-aware yield criterion (§4).
//!
//! Sweeps the cell failure probability and reports, for each protection
//! scheme, the MSE that must be tolerated to reach a 99.99 % yield target and
//! the yield achieved at the paper's example constraint MSE < 10⁶.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example yield_analysis
//! ```

use faultmit::analysis::report::{format_percent, format_sci, Table};
use faultmit::analysis::MonteCarloEngine;
use faultmit::core::Scheme;
use faultmit::memsim::MemoryConfig;
use faultmit::sim::CampaignConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4 KB slice of the paper's memory keeps the example fast while showing
    // the same trends; bump the geometry for the full 16 KB study.
    let memory = MemoryConfig::new(1024, 32)?;
    let schemes = [
        Scheme::unprotected32(),
        Scheme::pecc32(),
        Scheme::shuffle32(1)?,
        Scheme::shuffle32(2)?,
        Scheme::shuffle32(5)?,
        Scheme::secded32(),
    ];

    for &p_cell in &[1e-5, 1e-4, 1e-3] {
        let config = CampaignConfig::new(memory, p_cell)?.with_samples_per_count(40);
        let engine = MonteCarloEngine::new(config);

        let mut table = Table::new(
            format!("yield analysis, P_cell = {p_cell:.0e}"),
            vec![
                "scheme".into(),
                "MSE @ 99.99% yield".into(),
                "yield @ MSE<1e6".into(),
            ],
        );
        // One paired campaign: every scheme is scored on the same dies.
        for result in engine.run_catalogue(&schemes, 2024)? {
            let mse_needed = result
                .mse_for_yield(0.9999)
                .map_or_else(|| "unreachable".to_owned(), format_sci);
            table.add_row(vec![
                result.scheme_name.clone(),
                mse_needed,
                format_percent(result.yield_at_mse(1e6)),
            ]);
        }
        println!("{table}");
    }

    Ok(())
}
