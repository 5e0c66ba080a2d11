//! Voltage scaling and the fault-inclusion property.
//!
//! In the presence of process variations, the set of failing cells of a die
//! grows monotonically as the supply voltage is scaled down: a cell that
//! fails at a given `V_DD` fails at every lower `V_DD` (the *fault inclusion
//! property* of \[14\] in the paper). This module models a die as a fixed
//! vector of per-cell margin deviations; the fault map exposed at any `V_DD`
//! is derived by thresholding those deviations against the failure model.

use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::failure_model::CellFailureModel;
use crate::fault::{Fault, FaultKind, FaultMap};
use crate::stats::sample_standard_normal;
use rand::Rng;

/// A manufactured die with per-cell variation, from which voltage-dependent
/// fault maps can be derived.
///
/// Each cell carries a fixed margin deviation drawn once at "manufacturing
/// time"; the cell fails at supply voltage `V_DD` when its deviation is lower
/// than `−z(V_DD)` where `z` is the failure model's margin z-score. Because
/// `z(V_DD)` decreases as the voltage drops, the failing set only grows —
/// fault inclusion holds by construction.
///
/// # Example
///
/// ```
/// use faultmit_memsim::{CellFailureModel, MemoryConfig, VoltageScaledDie};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), faultmit_memsim::MemError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let die = VoltageScaledDie::manufacture(
///     MemoryConfig::new(256, 32)?,
///     CellFailureModel::default_28nm(),
///     &mut rng,
/// );
/// let faults_high = die.fault_map_at(0.9)?;
/// let faults_low = die.fault_map_at(0.6)?;
/// assert!(faults_low.fault_count() >= faults_high.fault_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageScaledDie {
    config: MemoryConfig,
    model: CellFailureModel,
    /// Per-cell margin deviation in σ units (standard normal at manufacture).
    deviations: Vec<f64>,
}

impl VoltageScaledDie {
    /// "Manufactures" a die by drawing a margin deviation for every cell.
    pub fn manufacture<R: Rng + ?Sized>(
        config: MemoryConfig,
        model: CellFailureModel,
        rng: &mut R,
    ) -> Self {
        let deviations = (0..config.total_cells())
            .map(|_| sample_standard_normal(rng))
            .collect();
        Self {
            config,
            model,
            deviations,
        }
    }

    /// Geometry of this die.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Failure model used to translate voltages into failure thresholds.
    #[must_use]
    pub fn model(&self) -> &CellFailureModel {
        &self.model
    }

    /// Derives the fault map exposed at supply voltage `vdd`.
    ///
    /// Faulty cells are modelled as bit-flips (an observable error for any
    /// stored value), matching the paper's injection model.
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed die; the `Result` mirrors the fallible
    /// fault-map insertion API.
    pub fn fault_map_at(&self, vdd: f64) -> Result<FaultMap, MemError> {
        let threshold = -self.model.margin_z(vdd);
        let mut map = FaultMap::new(self.config);
        for (index, &deviation) in self.deviations.iter().enumerate() {
            if deviation < threshold {
                let (row, col) = self.config.cell_position(index);
                map.insert(Fault::new(row, col, FaultKind::BitFlip))?;
            }
        }
        Ok(map)
    }

    /// Number of failing cells at supply voltage `vdd`.
    #[must_use]
    pub fn failure_count_at(&self, vdd: f64) -> usize {
        let threshold = -self.model.margin_z(vdd);
        self.deviations.iter().filter(|&&d| d < threshold).count()
    }
}

/// An inclusive sweep over supply voltages, used by the Fig. 2 reproduction
/// and the voltage-scaling example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VddSweep {
    start: f64,
    stop: f64,
    steps: usize,
}

impl VddSweep {
    /// Creates a sweep from `start` to `stop` (inclusive) with `steps` points.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] when fewer than two steps are
    /// requested or the voltages are not finite.
    pub fn new(start: f64, stop: f64, steps: usize) -> Result<Self, MemError> {
        if steps < 2 {
            return Err(MemError::InvalidParameter {
                reason: format!("a voltage sweep needs at least 2 steps, got {steps}"),
            });
        }
        if !start.is_finite() || !stop.is_finite() {
            return Err(MemError::InvalidParameter {
                reason: "voltage sweep bounds must be finite".to_owned(),
            });
        }
        Ok(Self { start, stop, steps })
    }

    /// The paper's Fig. 2 voltage range: 0.6 V to 1.0 V.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] when fewer than two steps are
    /// requested.
    pub fn paper_fig2(steps: usize) -> Result<Self, MemError> {
        Self::new(0.6, 1.0, steps)
    }

    /// Number of points in the sweep.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps
    }

    /// `true` when the sweep contains no points (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// Iterates over the voltages of the sweep, from `start` to `stop`.
    pub fn voltages(&self) -> impl Iterator<Item = f64> + '_ {
        let (start, stop, steps) = (self.start, self.stop, self.steps);
        (0..steps).map(move |i| start + (stop - start) * i as f64 / (steps - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn die() -> VoltageScaledDie {
        let mut rng = StdRng::seed_from_u64(99);
        // A deliberately pessimistic model so small arrays still show faults.
        let model = crate::failure_model::FailureModelBuilder::new()
            .anchor(1.0, 1e-4)
            .anchor(0.6, 5e-2)
            .build()
            .unwrap();
        VoltageScaledDie::manufacture(MemoryConfig::new(512, 32).unwrap(), model, &mut rng)
    }

    #[test]
    fn fault_inclusion_property_holds() {
        let die = die();
        let mut previous: Option<FaultMap> = None;
        for vdd in [1.0, 0.9, 0.8, 0.7, 0.6] {
            let map = die.fault_map_at(vdd).unwrap();
            if let Some(prev) = &previous {
                // Every fault present at the higher voltage must persist.
                for fault in prev.iter() {
                    assert!(
                        map.fault_at(fault.row, fault.col).is_some(),
                        "fault at ({}, {}) vanished when scaling to {vdd} V",
                        fault.row,
                        fault.col
                    );
                }
                assert!(map.fault_count() >= prev.fault_count());
            }
            previous = Some(map);
        }
    }

    #[test]
    fn failure_count_matches_fault_map() {
        let die = die();
        for vdd in [0.6, 0.75, 0.9] {
            assert_eq!(
                die.failure_count_at(vdd),
                die.fault_map_at(vdd).unwrap().fault_count()
            );
        }
    }

    #[test]
    fn failure_count_tracks_model_expectation() {
        let die = die();
        let cells = die.config().total_cells() as f64;
        for vdd in [0.6, 0.7] {
            let expected = die.model().p_cell(vdd) * cells;
            let observed = die.failure_count_at(vdd) as f64;
            // Loose bound: binomial fluctuation around the expectation.
            assert!(
                (observed - expected).abs() < 5.0 * expected.sqrt() + 5.0,
                "vdd = {vdd}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn sweep_produces_requested_points() {
        let sweep = VddSweep::new(0.6, 1.0, 5).unwrap();
        let points: Vec<f64> = sweep.voltages().collect();
        assert_eq!(points.len(), 5);
        assert!((points[0] - 0.6).abs() < 1e-12);
        assert!((points[4] - 1.0).abs() < 1e-12);
        assert!((points[2] - 0.8).abs() < 1e-12);
        assert_eq!(sweep.len(), 5);
        assert!(!sweep.is_empty());
    }

    #[test]
    fn sweep_rejects_degenerate_inputs() {
        assert!(VddSweep::new(0.6, 1.0, 1).is_err());
        assert!(VddSweep::new(f64::NAN, 1.0, 4).is_err());
        assert!(VddSweep::paper_fig2(9).is_ok());
    }
}
