//! Application-level quality sweep (a compact version of Fig. 7).
//!
//! For each of the three data-mining benchmarks, sweeps the number of
//! injected memory faults and reports the normalised quality metric under
//! no protection, P-ECC and bit-shuffling.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ml_quality_sweep
//! ```

use faultmit::analysis::report::Table;
use faultmit::apps::{Benchmark, QualityEvaluator};
use faultmit::core::Scheme;
use faultmit::memsim::{Backend, SramVddBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schemes = [
        Scheme::unprotected32(),
        Scheme::pecc32(),
        Scheme::shuffle32(1)?,
        Scheme::shuffle32(2)?,
    ];
    let fault_counts = [0usize, 8, 32, 128];

    for benchmark in Benchmark::ALL {
        let evaluator = QualityEvaluator::builder(benchmark)
            .samples(240)
            .memory_rows(1024)
            .build()?;
        let baseline = evaluator.baseline_quality()?;
        // The paper's iid fault placement; P_cell only labels the backend.
        let sram = Backend::Sram(SramVddBackend::with_p_cell(
            evaluator.memory_config(),
            1e-3,
        )?);

        let mut headers = vec!["scheme".to_owned()];
        headers.extend(fault_counts.iter().map(|n| format!("{n} faults")));
        let mut table = Table::new(
            format!(
                "{} on {} — normalised {} (fault-free = {:.3})",
                benchmark.name(),
                benchmark.dataset_name(),
                benchmark.metric_name(),
                baseline
            ),
            headers,
        );

        for scheme in &schemes {
            let mut row = vec![scheme.name()];
            for (i, &n_faults) in fault_counts.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(40 + i as u64);
                let faults = sram.sample_with_count(&mut rng, n_faults)?;
                let quality = evaluator.quality_with_fault_map(scheme, &faults)?;
                row.push(format!("{:.3}", (quality / baseline).clamp(0.0, 1.0)));
            }
            table.add_row(row);
        }
        println!("{table}");
    }

    Ok(())
}
