//! Row-redundancy repair — the classical yield-enhancement baseline the paper
//! argues against (§2).
//!
//! Memories traditionally tolerate manufacturing defects by adding spare rows
//! (and/or columns) and remapping faulty addresses to spares at test time.
//! The paper points out that as `P_cell` rises under voltage scaling, the
//! number of spares needed to repair *every* faulty row "increases
//! tremendously", making redundancy economically unattractive exactly where
//! approximate schemes shine. This module provides that baseline so the
//! trade-off can be reproduced: a die needs one spare per faulty row for a
//! full repair, and [`repair_yield`] is the fraction of a population a
//! spare-row budget fully repairs.

use crate::fault::FaultMap;

/// Fraction of dies in `dies` that a given spare-row budget fully repairs
/// (the repair yield of the redundancy scheme).
#[must_use]
pub fn repair_yield(dies: &[FaultMap], spare_rows: usize) -> f64 {
    if dies.is_empty() {
        return 0.0;
    }
    let repaired = dies
        .iter()
        .filter(|die| die.faulty_row_count() <= spare_rows)
        .count();
    repaired as f64 / dies.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, SramVddBackend};
    use crate::config::MemoryConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(64, 32).unwrap()
    }

    #[test]
    fn repair_yield_grows_with_spare_budget_and_spare_demand_with_p_cell() {
        let mut rng = StdRng::seed_from_u64(3);
        // Whole dies: a binomial failure count, then that many iid faults.
        let mut dies = |p_cell: f64| -> Vec<FaultMap> {
            let backend = Backend::Sram(SramVddBackend::with_p_cell(config(), p_cell).unwrap());
            let counts = backend.failure_distribution().unwrap();
            (0..200)
                .map(|_| {
                    let n_faults = counts.sample(&mut rng) as usize;
                    backend.sample_with_count(&mut rng, n_faults).unwrap()
                })
                .collect()
        };
        let low_dies = dies(1e-3);
        let high_dies = dies(2e-2);

        // Yield is monotone in the spare budget.
        let mut previous = 0.0;
        for spares in 0..8 {
            let y = repair_yield(&low_dies, spares);
            assert!(y >= previous);
            previous = y;
        }
        // A higher cell failure probability needs more spares for the same
        // yield — the paper's economic argument against redundancy.
        let spares_needed = |dies: &[FaultMap]| -> usize {
            (0..=64)
                .find(|&s| repair_yield(dies, s) >= 0.95)
                .unwrap_or(64)
        };
        assert!(spares_needed(&high_dies) > spares_needed(&low_dies));
        assert_eq!(repair_yield(&[], 4), 0.0);
    }
}
