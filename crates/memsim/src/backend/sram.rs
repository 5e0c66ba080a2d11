//! The paper's SRAM voltage-scaling backend.

use super::{FaultKindLaw, OperatingPoint};
use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::failure_model::{CellFailureModel, NOMINAL_VDD};
use crate::floyd::floyd_step;
use crate::scratch::DieScratch;
use rand::rngs::StdRng;
use rand::Rng;

/// SRAM bit-cell failures exposed by supply-voltage scaling — the paper's
/// fault model, the [`Backend::Sram`](super::Backend::Sram) technology.
///
/// The per-cell law is the analytical Gaussian noise-margin model
/// ([`CellFailureModel`]): `P_cell(V_DD) = Φ(−z(V_DD))`. Faults are placed
/// iid-uniformly over the array by Floyd's algorithm (distinct cells, one
/// uniform draw per fault) as always-observable bit-flips, so campaigns
/// through this backend are **bit-identical** to the historical SRAM-only
/// results at the same seed.
///
/// # Example
///
/// ```
/// use faultmit_memsim::backend::SramVddBackend;
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
    /// [`FaultKindLaw::AlwaysFlip`], the paper's injection protocol. Any
    /// other law draws each cell's stuck-at polarity *after* the Floyd
    /// placement, so fault locations are unchanged and only the
    /// data-dependent behaviour differs.
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

    /// The array's cell count, or an error when `n_faults` exceeds it.
    fn checked_total(&self, n_faults: usize) -> Result<usize, MemError> {
        let total = self.config.total_cells();
        if n_faults > total {
            return Err(MemError::InvalidParameter {
                reason: format!("cannot place {n_faults} faults in {total} cells"),
            });
        }
        Ok(total)
    }

    /// Memory geometry the backend generates fault maps for.
    #[must_use]
    pub(super) fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Marginal per-cell fault probability at the current operating point.
    #[must_use]
    pub fn p_cell(&self) -> f64 {
        self.p_cell
    }

    /// The operating point the failure law was evaluated at.
    #[must_use]
    pub(super) fn operating_point(&self) -> OperatingPoint {
        OperatingPoint::SramVdd { vdd: self.vdd }
    }

    /// This technology's placement, the draw of
    /// [`Backend::sample_into`](super::Backend::sample_into).
    pub(super) fn sample_into(
        &self,
        rng: &mut StdRng,
        n_faults: usize,
        scratch: &mut DieScratch,
    ) -> Result<(), MemError> {
        // Floyd's draws, answered from the arena's cell bitmap, then — for
        // non-default laws — one kind draw per fault in (row, column) order.
        let total = self.checked_total(n_faults)?;
        scratch.start_die(self.config);
        for j in total - n_faults..total {
            floyd_step(&mut scratch.cells, rng.gen_range(0..=j), j);
        }
        scratch.finish_die();
        if !matches!(self.kind_law, FaultKindLaw::AlwaysFlip) {
            scratch.map.rekind_in_order(|| self.kind_law.sample(rng));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::fault::{FaultKind, FaultMap};
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(64, 32).unwrap()
    }

    /// The SRAM backend at `p_cell`, as the campaign draws it.
    fn backend(p_cell: f64) -> Backend {
        Backend::Sram(SramVddBackend::with_p_cell(config(), p_cell).unwrap())
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
    fn sampling_reproduces_the_pinned_floyd_placement() {
        // Cell indices (row · 32 + col) the historical iid sampler drew; the
        // published SRAM figures rest on this exact RNG schedule.
        let cells = |map: &FaultMap| map.iter().map(|f| f.row * 32 + f.col).collect::<Vec<_>>();
        let backend = backend(1e-3);
        let pinned: [[usize; 12]; 2] = [
            [
                213, 689, 787, 880, 1205, 1208, 1226, 1450, 1452, 1532, 1996, 2021,
            ],
            [
                10, 14, 630, 637, 750, 775, 935, 1187, 1339, 1448, 1814, 1971,
            ],
        ];
        for (seed, expected) in pinned.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let map = backend.sample_with_count(&mut rng, 12).unwrap();
            assert_eq!(cells(&map), expected, "seed {seed}");
        }
        // Kinds under a stuck-at law are drawn after placement, in map order.
        let stuck = backend.with_kind_law(FaultKindLaw::RandomStuckAt).unwrap();
        let map = stuck
            .sample_with_count(&mut StdRng::seed_from_u64(2), 12)
            .unwrap();
        let ones: Vec<bool> = map
            .iter()
            .map(|f| f.kind == FaultKind::StuckAtOne)
            .collect();
        assert_eq!(
            cells(&map),
            [239, 376, 701, 728, 876, 1076, 1271, 1598, 1645, 1682, 1758, 2002]
        );
        assert_eq!(
            ones,
            [true, true, true, false, false, true, false, true, true, false, false, false]
        );
    }

    #[test]
    fn faults_are_always_observable_bit_flips() {
        let backend = backend(1e-3);
        let mut rng = StdRng::seed_from_u64(3);
        let map = backend.sample_with_count(&mut rng, 100).unwrap();
        assert!(map.iter().all(|f| f.kind == FaultKind::BitFlip));
    }

    #[test]
    fn fault_locations_are_spread_over_rows() {
        let backend = backend(1e-3);
        let mut rng = StdRng::seed_from_u64(6);
        let map = backend.sample_with_count(&mut rng, 256).unwrap();
        // With 2048 cells and 256 faults, faults should span many rows.
        assert!(map.faulty_row_count() > 40);
    }

    #[test]
    fn random_stuck_at_law_produces_both_polarities() {
        let backend = backend(1e-3)
            .with_kind_law(FaultKindLaw::RandomStuckAt)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let map = backend.sample_with_count(&mut rng, 200).unwrap();
        let zeros = map
            .iter()
            .filter(|f| f.kind == FaultKind::StuckAtZero)
            .count();
        let ones = map
            .iter()
            .filter(|f| f.kind == FaultKind::StuckAtOne)
            .count();
        assert_eq!(zeros + ones, 200);
        assert!(zeros > 50 && ones > 50, "zeros={zeros}, ones={ones}");
    }

    #[test]
    fn kind_law_changes_behaviour_but_not_positions() {
        let flip = backend(1e-3);
        let stuck = flip
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 1.0,
            })
            .unwrap();
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
