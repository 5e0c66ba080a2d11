//! Row-redundancy repair — the classical yield-enhancement baseline the paper
//! argues against (§2).
//!
//! Memories traditionally tolerate manufacturing defects by adding spare rows
//! (and/or columns) and remapping faulty addresses to spares at test time.
//! The paper points out that as `P_cell` rises under voltage scaling, the
//! number of spares needed to repair *every* faulty row "increases
//! tremendously", making redundancy economically unattractive exactly where
//! approximate schemes shine. This module provides that baseline so the
//! trade-off can be reproduced: how many spare rows a die needs for a full
//! repair, the repaired fault map, and the repair yield of a population.

use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::fault::{Fault, FaultMap};
use std::collections::BTreeMap;

/// A row-redundancy repair plan for one die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRepair {
    config: MemoryConfig,
    spare_rows: usize,
    /// Faulty row → spare index assignments, in ascending row order.
    remapped: BTreeMap<usize, usize>,
    /// Faulty rows that could not be remapped because the spares ran out.
    unrepaired: Vec<usize>,
}

impl RowRepair {
    /// Plans a repair of `faults` using at most `spare_rows` spare rows.
    ///
    /// Faulty rows are remapped greedily in ascending row order, which is
    /// optimal for row sparing (every faulty row costs exactly one spare).
    /// Spare rows themselves are assumed fault-free, as in the classical
    /// analysis; correlated spare failures only make redundancy look worse.
    #[must_use]
    pub fn plan(faults: &FaultMap, spare_rows: usize) -> Self {
        let mut remapped = BTreeMap::new();
        let mut unrepaired = Vec::new();
        for (index, row) in faults.faulty_rows().enumerate() {
            if index < spare_rows {
                remapped.insert(row, index);
            } else {
                unrepaired.push(row);
            }
        }
        Self {
            config: faults.config(),
            spare_rows,
            remapped,
            unrepaired,
        }
    }

    /// Number of spare rows available to the plan.
    #[must_use]
    pub fn spare_rows(&self) -> usize {
        self.spare_rows
    }

    /// Number of spare rows actually consumed.
    #[must_use]
    pub fn spares_used(&self) -> usize {
        self.remapped.len()
    }

    /// `true` when every faulty row was remapped to a spare.
    #[must_use]
    pub fn is_fully_repaired(&self) -> bool {
        self.unrepaired.is_empty()
    }

    /// Faulty rows that remain exposed after the repair.
    #[must_use]
    pub fn unrepaired_rows(&self) -> &[usize] {
        &self.unrepaired
    }

    /// The spare index a row was remapped to, if any.
    #[must_use]
    pub fn spare_for_row(&self, row: usize) -> Option<usize> {
        self.remapped.get(&row).copied()
    }

    /// The fault map seen by the application after the repair: faults in
    /// remapped rows disappear, faults in unrepaired rows remain.
    ///
    /// # Errors
    ///
    /// Never fails for a plan built from a well-formed fault map; the
    /// `Result` mirrors fault-map construction.
    pub fn residual_faults(&self, faults: &FaultMap) -> Result<FaultMap, MemError> {
        let residual: Vec<Fault> = faults
            .iter()
            .filter(|fault| !self.remapped.contains_key(&fault.row))
            .collect();
        FaultMap::from_faults(self.config, residual)
    }
}

/// Number of spare rows required to fully repair a die (= its faulty-row
/// count), the quantity whose growth with `P_cell` makes redundancy
/// uneconomical.
#[must_use]
pub fn spares_for_full_repair(faults: &FaultMap) -> usize {
    faults.faulty_row_count()
}

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
    use crate::backend::{FaultBackend, SramVddBackend};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(64, 32).unwrap()
    }

    fn map(faults: &[Fault]) -> FaultMap {
        FaultMap::from_faults(config(), faults.iter().copied()).unwrap()
    }

    #[test]
    fn fault_free_die_needs_no_spares() {
        let faults = map(&[]);
        let plan = RowRepair::plan(&faults, 0);
        assert!(plan.is_fully_repaired());
        assert_eq!(plan.spares_used(), 0);
        assert_eq!(spares_for_full_repair(&faults), 0);
    }

    #[test]
    fn each_faulty_row_consumes_one_spare() {
        let faults = map(&[
            Fault::bit_flip(3, 0),
            Fault::bit_flip(3, 31), // same row: still one spare
            Fault::bit_flip(9, 5),
            Fault::bit_flip(40, 7),
        ]);
        assert_eq!(spares_for_full_repair(&faults), 3);
        let plan = RowRepair::plan(&faults, 3);
        assert!(plan.is_fully_repaired());
        assert_eq!(plan.spares_used(), 3);
        assert_eq!(plan.spare_for_row(3), Some(0));
        assert_eq!(plan.spare_for_row(9), Some(1));
        assert_eq!(plan.spare_for_row(40), Some(2));
        assert_eq!(plan.spare_for_row(10), None);
    }

    #[test]
    fn insufficient_spares_leave_residual_faults() {
        let faults = map(&[
            Fault::bit_flip(1, 31),
            Fault::bit_flip(5, 30),
            Fault::bit_flip(60, 29),
        ]);
        let plan = RowRepair::plan(&faults, 2);
        assert!(!plan.is_fully_repaired());
        assert_eq!(plan.unrepaired_rows(), &[60]);
        let residual = plan.residual_faults(&faults).unwrap();
        assert_eq!(residual.fault_count(), 1);
        assert!(residual.row_has_fault(60));
        assert!(!residual.row_has_fault(1));
    }

    #[test]
    fn full_repair_leaves_an_empty_residual_map() {
        let faults = map(&[Fault::bit_flip(8, 8), Fault::stuck_at_one(11, 0)]);
        let plan = RowRepair::plan(&faults, 10);
        let residual = plan.residual_faults(&faults).unwrap();
        assert!(residual.is_empty());
        assert_eq!(plan.spare_rows(), 10);
    }

    #[test]
    fn repair_yield_grows_with_spare_budget_and_spare_demand_with_p_cell() {
        let mut rng = StdRng::seed_from_u64(3);
        // Whole dies: a binomial failure count, then that many iid faults.
        let mut dies = |p_cell: f64| -> Vec<FaultMap> {
            let backend = SramVddBackend::with_p_cell(config(), p_cell).unwrap();
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
