//! Quickstart: protect a faulty memory with bit-shuffling and compare what an
//! application would read back under each protection scheme.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use faultmit::analysis::memory_mse;
use faultmit::core::{Scheme, SegmentGeometry, ShuffledMemory};
use faultmit::memsim::{Fault, FaultMap, MarchBist, MemoryConfig, SramArray};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A manufactured die: a 256-word, 32-bit memory with three broken
    //    cells, two of them at high-significance bit positions.
    let config = MemoryConfig::new(256, 32)?;
    let faults = FaultMap::from_faults(
        config,
        [
            Fault::bit_flip(3, 31), // sign bit of row 3
            Fault::stuck_at_one(17, 28),
            Fault::stuck_at_zero(200, 2),
        ],
    )?;
    println!("die has {} faulty cells", faults.fault_count());

    // 2. Run the March C- BIST, exactly as a power-on self test would, and
    //    build a bit-shuffling memory from its report.
    let array = SramArray::with_faults(config, faults.clone());
    let mut probe = array.clone();
    let report = MarchBist::new().run(&mut probe)?;
    println!(
        "BIST found {} faulty cells in {} rows ({} reads, {} writes)",
        report.fault_count(),
        report.faulty_row_count(),
        report.total_reads(),
        report.total_writes()
    );

    let geometry = SegmentGeometry::new(32, 5)?; // single-bit segments
    let mut shuffled = ShuffledMemory::from_bist(geometry, array)?;

    // 3. Store a ramp of values and read them back: the worst-case error per
    //    word is bounded by 2^(S-1) = 1.
    let mut worst_error = 0u64;
    for row in 0..config.rows() {
        let value = (row as u64) * 12_345;
        shuffled.write(row, value & config.word_mask())?;
        worst_error = worst_error.max(shuffled.read(row)?.abs_diff(value & config.word_mask()));
    }
    println!(
        "bit-shuffling nFM=5: worst absolute error over {} rows = {} (bound {})",
        config.rows(),
        worst_error,
        shuffled.max_error_magnitude()
    );

    // 4. Compare the memory-level MSE (Eq. 6 of the paper) across schemes on
    //    the same fault map.
    println!("\nmemory MSE by protection scheme (same die):");
    for scheme in Scheme::fig5_catalogue() {
        println!(
            "  {:<24} {:>14.3e}",
            scheme.name(),
            memory_mse(&scheme, &faults)
        );
    }

    Ok(())
}
