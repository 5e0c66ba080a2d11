//! The paper's SRAM voltage-scaling backend.

use super::{FaultBackend, FaultKindLaw, OperatingPoint};
use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::failure_model::{CellFailureModel, NOMINAL_VDD};
use crate::fault::{Fault, FaultMap};
use crate::montecarlo::FaultMapSampler;
use crate::scratch::DieScratch;
use rand::rngs::StdRng;

/// SRAM bit-cell failures exposed by supply-voltage scaling — the paper's
/// fault model behind the [`FaultBackend`] interface.
///
/// The per-cell law is the analytical Gaussian noise-margin model
/// ([`CellFailureModel`]): `P_cell(V_DD) = Φ(−z(V_DD))`. Faults are placed
/// iid-uniformly over the array as always-observable bit-flips, exactly like
/// the pre-backend pipeline ([`FaultMapSampler`] with the `AlwaysFlip`
/// policy), so campaigns through this backend are **bit-identical** to the
/// historical SRAM-only results at the same seed.
///
/// # Example
///
/// ```
/// use faultmit_memsim::backend::{FaultBackend, SramVddBackend};
/// use faultmit_memsim::{CellFailureModel, MemoryConfig};
///
/// # fn main() -> Result<(), faultmit_memsim::MemError> {
/// let backend = SramVddBackend::at_vdd(
///     MemoryConfig::paper_16kb(),
///     CellFailureModel::default_28nm(),
///     0.7,
/// )?;
/// assert!(backend.p_cell() > 1e-5, "scaled voltage exposes faults");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramVddBackend {
    config: MemoryConfig,
    model: CellFailureModel,
    vdd: f64,
    p_cell: f64,
    kind_law: FaultKindLaw,
}

impl SramVddBackend {
    /// Creates the backend operating at supply voltage `vdd` under the given
    /// failure model.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] when `vdd` is not finite.
    pub fn at_vdd(
        config: MemoryConfig,
        model: CellFailureModel,
        vdd: f64,
    ) -> Result<Self, MemError> {
        if !vdd.is_finite() {
            return Err(MemError::InvalidParameter {
                reason: format!("supply voltage {vdd} must be finite"),
            });
        }
        Ok(Self {
            config,
            model,
            vdd,
            p_cell: model.p_cell(vdd),
            kind_law: FaultKindLaw::AlwaysFlip,
        })
    }

    /// Creates the backend from a raw per-cell fault probability, deriving
    /// the equivalent supply voltage from the default 28 nm model — the
    /// constructor behind the legacy `(memory, p_cell)` campaign APIs, which
    /// therefore stay bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn with_p_cell(config: MemoryConfig, p_cell: f64) -> Result<Self, MemError> {
        if !(0.0..=1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(MemError::InvalidProbability { value: p_cell });
        }
        let model = CellFailureModel::default_28nm();
        let (vdd_min, vdd_max) = model.voltage_range();
        // The degenerate probabilities 0 and 1 have no finite pre-image under
        // the Gaussian law; report the calibration boundary instead.
        let vdd = if p_cell <= 0.0 {
            NOMINAL_VDD.max(vdd_max)
        } else if p_cell >= 1.0 {
            vdd_min
        } else {
            model
                .vdd_for_p_cell(p_cell)?
                .clamp(vdd_min - 0.5, vdd_max + 0.5)
        };
        Ok(Self {
            config,
            model,
            vdd,
            p_cell,
            kind_law: FaultKindLaw::AlwaysFlip,
        })
    }

    /// The failure model translating voltages into fault probabilities.
    #[must_use]
    pub fn model(&self) -> &CellFailureModel {
        &self.model
    }

    /// The supply voltage this backend operates at.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Sets how faulty cells behave. The default is
    /// [`FaultKindLaw::AlwaysFlip`], the paper's injection protocol — and
    /// the backend's bit-identical legacy sampling path. Any other law
    /// draws each cell's stuck-at polarity *after* placing the fault at the
    /// legacy sampler's position, so fault locations are unchanged and only
    /// the data-dependent behaviour differs.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when the law's parameters
    /// are out of range.
    pub fn with_kind_law(mut self, kind_law: FaultKindLaw) -> Result<Self, MemError> {
        kind_law.validate()?;
        self.kind_law = kind_law;
        Ok(self)
    }

    /// The fault-kind law in effect.
    #[must_use]
    pub fn kind_law(&self) -> FaultKindLaw {
        self.kind_law
    }
}

impl FaultBackend for SramVddBackend {
    fn name(&self) -> &'static str {
        "sram-vdd"
    }

    fn config(&self) -> MemoryConfig {
        self.config
    }

    fn p_cell(&self) -> f64 {
        self.p_cell
    }

    fn operating_point(&self) -> OperatingPoint {
        OperatingPoint::SramVdd { vdd: self.vdd }
    }

    fn sample_with_count(&self, rng: &mut StdRng, n_faults: usize) -> Result<FaultMap, MemError> {
        // Exactly the pre-backend sampling path (iid uniform bit-flips): the
        // bit-identity of historical SRAM campaigns rests on this delegation.
        let map = FaultMapSampler::new(self.config).sample_with_count(rng, n_faults)?;
        if matches!(self.kind_law, FaultKindLaw::AlwaysFlip) {
            return Ok(map);
        }
        // Non-default law: keep the legacy positions, re-draw each cell's
        // behaviour in the map's deterministic (row, column) order.
        let faults: Vec<Fault> = map
            .iter()
            .map(|fault| Fault::new(fault.row, fault.col, self.kind_law.sample(rng)))
            .collect();
        FaultMap::from_faults(self.config, faults)
    }

    fn sample_into(
        &self,
        rng: &mut StdRng,
        n_faults: usize,
        scratch: &mut DieScratch,
    ) -> Result<(), MemError> {
        // Same RNG schedule as `sample_with_count`: Floyd placement first
        // (into the arena's index buffers), then — for non-default laws —
        // one kind draw per fault in (row, column) order.
        FaultMapSampler::new(self.config).sample_with_count_into(rng, n_faults, scratch)?;
        if !matches!(self.kind_law, FaultKindLaw::AlwaysFlip) {
            scratch.map.rekind_in_order(|| self.kind_law.sample(rng));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(64, 32).unwrap()
    }

    #[test]
    fn p_cell_matches_the_gaussian_noise_margin_law() {
        // Closed form: P_cell(V) = Φ(−z(V)) — the backend must agree with
        // the underlying model exactly.
        let model = CellFailureModel::default_28nm();
        for &vdd in &[0.6, 0.7, 0.8, 0.9, 1.0] {
            let backend = SramVddBackend::at_vdd(config(), model, vdd).unwrap();
            assert_eq!(backend.p_cell(), model.p_cell(vdd), "vdd = {vdd}");
            assert_eq!(backend.operating_point(), OperatingPoint::SramVdd { vdd });
        }
    }

    #[test]
    fn with_p_cell_round_trips_through_the_voltage_axis() {
        for &p in &[1e-8, 1e-6, 1e-4, 1e-2] {
            let backend = SramVddBackend::with_p_cell(config(), p).unwrap();
            assert_eq!(backend.p_cell(), p);
            let recovered = backend.model().p_cell(backend.vdd());
            assert!(
                (recovered.log10() - p.log10()).abs() < 0.05,
                "p = {p}, recovered = {recovered}"
            );
        }
    }

    #[test]
    fn with_p_cell_handles_degenerate_probabilities() {
        let zero = SramVddBackend::with_p_cell(config(), 0.0).unwrap();
        assert_eq!(zero.p_cell(), 0.0);
        assert!(zero.vdd() >= NOMINAL_VDD);
        let one = SramVddBackend::with_p_cell(config(), 1.0).unwrap();
        assert_eq!(one.p_cell(), 1.0);
        assert!(SramVddBackend::with_p_cell(config(), -0.1).is_err());
        assert!(SramVddBackend::with_p_cell(config(), f64::NAN).is_err());
        assert!(
            SramVddBackend::at_vdd(config(), CellFailureModel::default_28nm(), f64::INFINITY)
                .is_err()
        );
    }

    #[test]
    fn sampling_is_bit_identical_to_the_legacy_fault_map_sampler() {
        let backend = SramVddBackend::with_p_cell(config(), 1e-3).unwrap();
        let sampler = FaultMapSampler::new(config());
        for seed in 0..8u64 {
            let mut rng_backend = StdRng::seed_from_u64(seed);
            let mut rng_legacy = StdRng::seed_from_u64(seed);
            let a = backend.sample_with_count(&mut rng_backend, 12).unwrap();
            let b = sampler.sample_with_count(&mut rng_legacy, 12).unwrap();
            assert_eq!(
                a.iter().collect::<Vec<_>>(),
                b.iter().collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn faults_are_always_observable_bit_flips() {
        let backend = SramVddBackend::with_p_cell(config(), 1e-3).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let map = backend.sample_with_count(&mut rng, 100).unwrap();
        assert!(map.iter().all(|f| f.kind == FaultKind::BitFlip));
    }

    #[test]
    fn kind_law_changes_behaviour_but_not_positions() {
        let flip = SramVddBackend::with_p_cell(config(), 1e-3).unwrap();
        let stuck = flip
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 1.0,
            })
            .unwrap();
        assert_eq!(stuck.kind_law(), stuck.kind_law());
        let map_flip = flip
            .sample_with_count(&mut StdRng::seed_from_u64(11), 50)
            .unwrap();
        let map_stuck = stuck
            .sample_with_count(&mut StdRng::seed_from_u64(11), 50)
            .unwrap();
        // Same RNG prefix → same cell positions; only the kinds differ.
        let positions = |map: &FaultMap| map.iter().map(|f| (f.row, f.col)).collect::<Vec<_>>();
        assert_eq!(positions(&map_flip), positions(&map_stuck));
        assert!(map_stuck.iter().all(|f| f.kind == FaultKind::StuckAtZero));
        // Deterministic in the RNG.
        let again = stuck
            .sample_with_count(&mut StdRng::seed_from_u64(11), 50)
            .unwrap();
        assert_eq!(
            map_stuck.iter().collect::<Vec<_>>(),
            again.iter().collect::<Vec<_>>()
        );
        // Out-of-range laws are rejected.
        assert!(flip
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: -0.5
            })
            .is_err());
    }
}
