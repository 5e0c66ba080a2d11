//! Multi-level-cell (MLC) NVM backend: drift-broadened level margins and
//! level-dependent, asymmetric bit-error placement.

use super::{place_distinct, FaultKindLaw, OperatingPoint};
use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::scratch::DieScratch;
use crate::stats::{normal_cdf, normal_quantile};
use rand::rngs::StdRng;
use rand::Rng;

/// Drift coefficient `ν` of the level-broadening factor `d(t)`.
const DRIFT_NU: f64 = 0.05;

/// Fault mass of an LSB-page (even) column relative to an MSB-page (odd)
/// column: two of the three Gray-coded level boundaries flip the LSB.
const LSB_WEIGHT: f64 = 2.0;

/// MLC NVM read errors, the [`Backend::Mlc`](super::Backend::Mlc) technology.
///
/// # Failure law
///
/// A 2-bit MLC cell stores one of four analog levels separated by
/// `level_spacing_sigma` drift-free standard deviations. Resistance drift
/// broadens the level distributions logarithmically with the time since
/// programming, so the effective margin shrinks by the drift factor
/// `d(t) = 1 + ν · ln(1 + t)` (drift coefficient `ν = 0.05`) and the
/// marginal per-cell error probability is the closed form
///
/// ```text
///   P_cell(spacing, t) = Φ(−(spacing / 2) / d(t)),   d(t) = 1 + 0.05·ln(1 + t)
/// ```
///
/// — wider level spacing lowers the error rate, longer drift times raise
/// it. The operating point (`spacing`, `t`) replaces the SRAM backend's
/// `V_DD`.
///
/// # Spatial law: level-dependent bit errors
///
/// With the standard Gray mapping, three level boundaries exist, two of
/// which flip the cell's *LSB page* bit and one its *MSB page* bit — so LSB
/// bits misread about twice as often. Data bits map to cells alternately
/// (even word columns = LSB page, odd = MSB page), and the placement
/// puts faults on even columns with weight 2 : 1 over odd columns, rows
/// uniform. The requested fault count
/// is always exact.
///
/// Fault kinds default to always-observable bit-flips (the paper's
/// injection protocol); [`MlcNvmBackend::with_kind_law`] switches to the
/// asymmetric stuck-at law modelling unidirectional resistance drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlcNvmBackend {
    config: MemoryConfig,
    level_spacing_sigma: f64,
    drift_time_s: f64,
    pub(super) kind_law: FaultKindLaw,
    p_cell: f64,
}

impl MlcNvmBackend {
    /// Creates the backend at the given level spacing (in drift-free σ
    /// units) and drift time (s).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] for a non-positive spacing or
    /// a negative / non-finite drift time.
    pub fn new(
        config: MemoryConfig,
        level_spacing_sigma: f64,
        drift_time_s: f64,
    ) -> Result<Self, MemError> {
        if level_spacing_sigma <= 0.0 || !level_spacing_sigma.is_finite() {
            return Err(MemError::InvalidParameter {
                reason: format!("level spacing {level_spacing_sigma} σ must be positive"),
            });
        }
        if drift_time_s < 0.0 || !drift_time_s.is_finite() {
            return Err(MemError::InvalidParameter {
                reason: format!("drift time {drift_time_s} s must be non-negative"),
            });
        }
        let mut backend = Self {
            config,
            level_spacing_sigma,
            drift_time_s,
            kind_law: FaultKindLaw::AlwaysFlip,
            p_cell: 0.0,
        };
        backend.p_cell = backend.compute_p_cell();
        Ok(backend)
    }

    /// Creates the backend at one day of drift with the level spacing
    /// calibrated so the marginal per-cell error probability equals
    /// `p_cell` — used for fault-density-matched cross-technology
    /// comparisons.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside
    /// `(0, 0.5)` (an MLC read cannot be wrong more often than a fair coin
    /// under this margin law; `p_cell = 0` has no finite spacing).
    pub fn with_p_cell(config: MemoryConfig, p_cell: f64) -> Result<Self, MemError> {
        if !(p_cell > 0.0 && p_cell < 0.5) || p_cell.is_nan() {
            return Err(MemError::InvalidProbability { value: p_cell });
        }
        let mut backend = Self::new(config, 1.0, 86_400.0)?;
        // Invert Φ(−(spacing/2)/d) = p  ⇒  spacing = −2·d·Φ⁻¹(p).
        backend.level_spacing_sigma = -2.0 * backend.drift_factor() * normal_quantile(p_cell);
        backend.p_cell = backend.compute_p_cell();
        debug_assert!((backend.p_cell - p_cell).abs() <= p_cell * 1e-6 + 1e-15);
        Ok(backend)
    }

    /// Sets the fault-kind law (default: always-observable bit-flips).
    ///
    /// # Errors
    ///
    /// Propagates law parameter validation errors.
    pub fn with_kind_law(mut self, kind_law: FaultKindLaw) -> Result<Self, MemError> {
        kind_law.validate()?;
        self.kind_law = kind_law;
        Ok(self)
    }

    /// The level spacing (drift-free σ units) this backend operates at.
    #[must_use]
    pub fn level_spacing_sigma(&self) -> f64 {
        self.level_spacing_sigma
    }

    /// The drift time (s) this backend operates at.
    #[must_use]
    pub fn drift_time_s(&self) -> f64 {
        self.drift_time_s
    }

    /// The drift broadening factor `d(t) = 1 + ν·ln(1 + t)`.
    #[must_use]
    pub fn drift_factor(&self) -> f64 {
        1.0 + DRIFT_NU * self.drift_time_s.ln_1p()
    }

    fn compute_p_cell(&self) -> f64 {
        normal_cdf(-(self.level_spacing_sigma / 2.0) / self.drift_factor())
    }

    /// The backend's spatial proposal law: a uniform row, then a column
    /// drawn by page fault mass — the LSB page (even columns, weight
    /// [`LSB_WEIGHT`]) or the MSB page (odd columns, weight 1).
    pub(super) fn proposer(&self) -> impl FnMut(&mut StdRng) -> (usize, usize) {
        let rows = self.config.rows();
        let cols = self.config.word_bits();
        let even_cols = cols.div_ceil(2);
        let odd_cols = cols / 2;
        let even_mass = even_cols as f64 * LSB_WEIGHT;
        let mlc_mass = even_mass + odd_cols as f64;
        move |rng: &mut StdRng| {
            let row = rng.gen_range(0..rows);
            let u: f64 = rng.gen::<f64>() * mlc_mass;
            let col = if u < even_mass || odd_cols == 0 {
                // LSB page: even columns, uniform within the page.
                2 * ((u / LSB_WEIGHT) as usize).min(even_cols - 1)
            } else {
                // MSB page: odd columns.
                2 * ((u - even_mass) as usize).min(odd_cols - 1) + 1
            };
            (row, col)
        }
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
        OperatingPoint::MlcNvm {
            level_spacing_sigma: self.level_spacing_sigma,
            drift_time_s: self.drift_time_s,
        }
    }

    /// This technology's placement, the draw of
    /// [`Backend::sample_into`](super::Backend::sample_into).
    pub(super) fn sample_into(
        &self,
        rng: &mut StdRng,
        n_faults: usize,
        scratch: &mut DieScratch,
    ) -> Result<(), MemError> {
        place_distinct(
            self.config,
            rng,
            n_faults,
            self.kind_law,
            self.proposer(),
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::fault::FaultKind;
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(256, 32).unwrap()
    }

    #[test]
    fn p_cell_matches_the_closed_form_margin_law() {
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0).unwrap();
        // Closed form: Φ(−(spacing/2)/d), d = 1 + 0.05·ln(1 + 86400).
        let drift = 1.0 + 0.05 * 86_400f64.ln_1p();
        let expected = normal_cdf(-(12.0 / 2.0) / drift);
        assert!(
            (backend.p_cell() - expected).abs() < expected * 1e-12,
            "p = {}, closed form = {expected}",
            backend.p_cell()
        );
        assert!((backend.drift_factor() - drift).abs() < 1e-12);
    }

    #[test]
    fn p_cell_is_monotone_in_spacing_and_drift_time() {
        let mut previous = 1.0;
        for &spacing in &[6.0, 8.0, 10.0, 12.0, 14.0] {
            let p = MlcNvmBackend::new(config(), spacing, 86_400.0)
                .unwrap()
                .p_cell();
            assert!(p < previous, "spacing = {spacing}");
            previous = p;
        }
        let mut previous = 0.0;
        for &t in &[0.0, 60.0, 3_600.0, 86_400.0, 3.15e7] {
            let p = MlcNvmBackend::new(config(), 12.0, t).unwrap().p_cell();
            assert!(p > previous, "t = {t}");
            previous = p;
        }
    }

    #[test]
    fn with_p_cell_calibrates_the_level_spacing() {
        for &p in &[1e-6, 1e-4, 1e-3, 1e-2] {
            let backend = MlcNvmBackend::with_p_cell(config(), p).unwrap();
            assert!(
                (backend.p_cell() - p).abs() < p * 1e-6,
                "requested {p}, got {}",
                backend.p_cell()
            );
            assert!(backend.level_spacing_sigma() > 0.0);
        }
        assert!(MlcNvmBackend::with_p_cell(config(), 0.0).is_err());
        assert!(MlcNvmBackend::with_p_cell(config(), 0.6).is_err());
        assert!(MlcNvmBackend::with_p_cell(config(), f64::NAN).is_err());
    }

    #[test]
    fn parameter_validation_rejects_nonsense() {
        assert!(MlcNvmBackend::new(config(), 0.0, 1.0).is_err());
        assert!(MlcNvmBackend::new(config(), -2.0, 1.0).is_err());
        assert!(MlcNvmBackend::new(config(), 12.0, -1.0).is_err());
    }

    #[test]
    fn lsb_page_columns_carry_twice_the_fault_mass() {
        let backend = Backend::Mlc(MlcNvmBackend::new(config(), 12.0, 86_400.0).unwrap());
        let mut even = 0usize;
        let mut odd = 0usize;
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let map = backend.sample_with_count(&mut rng, 200).unwrap();
            even += map.iter().filter(|f| f.col % 2 == 0).count();
            odd += map.iter().filter(|f| f.col % 2 == 1).count();
        }
        let ratio = even as f64 / odd as f64;
        assert!(
            (ratio - 2.0).abs() < 0.25,
            "LSB:MSB fault ratio {ratio}, expected ≈ 2"
        );
    }

    #[test]
    fn drift_kind_law_is_asymmetric_when_enabled() {
        let backend = Backend::Mlc(MlcNvmBackend::new(config(), 12.0, 86_400.0).unwrap())
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.75,
            })
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let map = backend.sample_with_count(&mut rng, 800).unwrap();
        let zeros = map
            .iter()
            .filter(|f| f.kind == FaultKind::StuckAtZero)
            .count();
        let fraction = zeros as f64 / 800.0;
        assert!(
            (fraction - 0.75).abs() < 0.05,
            "stuck-at-zero fraction {fraction}, expected ≈ 0.75"
        );
    }

    #[test]
    fn default_faults_are_observable_flips_and_counts_are_exact() {
        let backend = Backend::Mlc(MlcNvmBackend::new(config(), 12.0, 86_400.0).unwrap());
        let mut rng = StdRng::seed_from_u64(11);
        for &n in &[0usize, 1, 33, 512] {
            let map = backend.sample_with_count(&mut rng, n).unwrap();
            assert_eq!(map.fault_count(), n);
            assert!(map.iter().all(|f| f.kind == FaultKind::BitFlip));
        }
    }

    #[test]
    fn odd_word_widths_are_handled() {
        let narrow = MemoryConfig::new(16, 1).unwrap();
        let backend = Backend::Mlc(MlcNvmBackend::new(narrow, 12.0, 0.0).unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        let map = backend.sample_with_count(&mut rng, 10).unwrap();
        assert_eq!(map.fault_count(), 10);
        assert!(map.iter().all(|f| f.col == 0));
    }
}
