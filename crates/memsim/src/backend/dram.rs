//! DRAM/eDRAM retention-failure backend: exponential weak-cell retention
//! times and spatially clustered fault placement.

use super::{place_distinct, FaultKindLaw, OperatingPoint};
use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::scratch::DieScratch;
use rand::rngs::StdRng;
use rand::Rng;

/// Reference die temperature (°C) the mean retention time is specified at.
pub const DRAM_REFERENCE_TEMP_C: f64 = 45.0;

/// Temperature increase (°C) that halves the weak-cell retention time — the
/// classic "retention halves every ~10 °C" DRAM rule of thumb.
pub const DRAM_RETENTION_HALVING_C: f64 = 10.0;

/// Mean weak-cell retention time (s) at [`DRAM_REFERENCE_TEMP_C`].
const MEAN_RETENTION_S: f64 = 2.0;

/// Weak-cell population fraction at the explicit operating points of
/// [`DramRetentionBackend::new`].
const WEAK_CELL_FRACTION: f64 = 1e-3;

/// Mean faults per retention cluster.
const CLUSTER_SIZE: usize = 4;

/// Half-window in rows a cluster's faults spread over around its centre.
const CLUSTER_ROWS: i64 = 2;

/// Half-window in columns a cluster's faults spread over around its centre.
const CLUSTER_COLS: i64 = 4;

/// DRAM/eDRAM retention failures, the [`Backend::Dram`](super::Backend::Dram)
/// technology.
///
/// # Failure law
///
/// A small *weak-cell* population (fraction `weak_cell_fraction` of all
/// cells, leaky due to junction defects: `10⁻³`, enlarged only by
/// [`DramRetentionBackend::with_p_cell`]) has exponentially
/// distributed retention times with mean `τ(T)`; a weak cell fails when its
/// retention time is shorter than the refresh interval `t_ref`. The marginal
/// per-cell fault probability is therefore the closed form
///
/// ```text
///   P_cell(t_ref, T) = weak_cell_fraction · (1 − exp(−t_ref / τ(T)))
///   τ(T) = 2 s · 2^(−(T − 45 °C) / 10 °C)
/// ```
///
/// — longer refresh intervals and hotter dies both expose more failures,
/// and the operating point (`t_ref`, `T`) is the knob pair the campaign
/// sweeps, in place of the SRAM backend's `V_DD`.
///
/// # Spatial law
///
/// Retention failures are not iid: leaky cells share local substrate
/// defects, so they arrive in clusters. `sample_into` draws cluster
/// centres uniformly and places a burst of 1–7 faults (mean 4) within a
/// `±2 rows × ±4 columns` window around each centre
/// (toroidal wrap keeps the window inside the array), falling back to
/// uniform placement when a window fills up — the requested count is always
/// exact, so the campaign's failure-count sweep protocol is preserved.
///
/// Fault kinds default to always-observable bit-flips (the paper's
/// injection protocol); [`DramRetentionBackend::with_kind_law`] switches to
/// data-dependent stuck-at decay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramRetentionBackend {
    config: MemoryConfig,
    refresh_interval_ms: f64,
    temperature_c: f64,
    weak_cell_fraction: f64,
    pub(super) kind_law: FaultKindLaw,
    p_cell: f64,
}

impl DramRetentionBackend {
    /// Creates the backend at the given refresh interval (ms) and die
    /// temperature (°C), with the weak-cell statistics and clustering
    /// stated on the type.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] for a non-positive refresh
    /// interval or non-finite temperature.
    pub fn new(
        config: MemoryConfig,
        refresh_interval_ms: f64,
        temperature_c: f64,
    ) -> Result<Self, MemError> {
        if refresh_interval_ms <= 0.0 || !refresh_interval_ms.is_finite() {
            return Err(MemError::InvalidParameter {
                reason: format!("refresh interval {refresh_interval_ms} ms must be positive"),
            });
        }
        if !temperature_c.is_finite() {
            return Err(MemError::InvalidParameter {
                reason: format!("temperature {temperature_c} °C must be finite"),
            });
        }
        let mut backend = Self {
            config,
            refresh_interval_ms,
            temperature_c,
            weak_cell_fraction: WEAK_CELL_FRACTION,
            kind_law: FaultKindLaw::AlwaysFlip,
            p_cell: 0.0,
        };
        backend.p_cell = backend.compute_p_cell();
        Ok(backend)
    }

    /// Creates the backend at 45 °C with the refresh interval calibrated so
    /// the marginal per-cell fault probability equals `p_cell` — used for
    /// fault-density-matched cross-technology comparisons.
    ///
    /// The weak-cell fraction is enlarged when necessary (a refresh interval
    /// can only expose weak cells), keeping the calibration solvable for any
    /// `p_cell` in `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside
    /// `[0, 1)`.
    pub fn with_p_cell(config: MemoryConfig, p_cell: f64) -> Result<Self, MemError> {
        if !(0.0..1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(MemError::InvalidProbability { value: p_cell });
        }
        let mut backend = Self::new(config, 64.0, DRAM_REFERENCE_TEMP_C)?;
        if p_cell == 0.0 {
            backend.weak_cell_fraction = 0.0;
            backend.p_cell = 0.0;
            return Ok(backend);
        }
        // Keep the saturation ratio p / weak_fraction at a moderate level so
        // the required refresh interval stays finite and well-conditioned.
        backend.weak_cell_fraction = (p_cell * 4.0).max(backend.weak_cell_fraction).min(1.0);
        let saturation = p_cell / backend.weak_cell_fraction;
        backend.refresh_interval_ms = -backend.tau_s() * (-saturation).ln_1p() * 1e3;
        backend.p_cell = backend.compute_p_cell();
        debug_assert!((backend.p_cell - p_cell).abs() <= p_cell * 1e-9 + 1e-15);
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

    /// The refresh interval (ms) this backend operates at.
    #[must_use]
    pub fn refresh_interval_ms(&self) -> f64 {
        self.refresh_interval_ms
    }

    /// The die temperature (°C) this backend operates at.
    #[must_use]
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Mean weak-cell retention time (s) at the current temperature:
    /// `τ(T) = 2 s · 2^(−(T − 45)/10)`.
    #[must_use]
    pub fn tau_s(&self) -> f64 {
        MEAN_RETENTION_S
            * (-(self.temperature_c - DRAM_REFERENCE_TEMP_C) / DRAM_RETENTION_HALVING_C).exp2()
    }

    fn compute_p_cell(&self) -> f64 {
        let t_ref_s = self.refresh_interval_ms * 1e-3;
        self.weak_cell_fraction * (1.0 - (-t_ref_s / self.tau_s()).exp())
    }

    /// The backend's spatial proposal law: cluster state persists across
    /// proposals — a centre serves a burst of faults before the next centre
    /// is drawn.
    pub(super) fn proposer(&self) -> impl FnMut(&mut StdRng) -> (usize, usize) {
        let rows = self.config.rows();
        let cols = self.config.word_bits();
        let burst_max = 2 * CLUSTER_SIZE - 1;
        let mut remaining_in_cluster = 0usize;
        let mut centre = (0usize, 0usize);
        move |rng: &mut StdRng| {
            if remaining_in_cluster == 0 {
                centre = (rng.gen_range(0..rows), rng.gen_range(0..cols));
                remaining_in_cluster = rng.gen_range(1..=burst_max);
            }
            remaining_in_cluster -= 1;
            let dr = rng.gen_range(-CLUSTER_ROWS..=CLUSTER_ROWS);
            let dc = rng.gen_range(-CLUSTER_COLS..=CLUSTER_COLS);
            let row = (centre.0 as i64 + dr).rem_euclid(rows as i64) as usize;
            let col = (centre.1 as i64 + dc).rem_euclid(cols as i64) as usize;
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
        OperatingPoint::DramRetention {
            refresh_interval_ms: self.refresh_interval_ms,
            temperature_c: self.temperature_c,
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
    use crate::backend::{Backend, SramVddBackend};
    use crate::fault::FaultKind;
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(256, 32).unwrap()
    }

    #[test]
    fn p_cell_matches_the_closed_form_retention_law() {
        let backend = DramRetentionBackend::new(config(), 64.0, 45.0).unwrap();
        // P = f_weak · (1 − exp(−t_ref/τ)), τ(45 °C) = mean retention.
        let expected = 1e-3 * (1.0 - (-0.064f64 / 2.0).exp());
        assert!(
            (backend.p_cell() - expected).abs() < expected * 1e-12,
            "p = {}, closed form = {expected}",
            backend.p_cell()
        );
    }

    #[test]
    fn p_cell_is_monotone_in_refresh_interval_and_temperature() {
        let mut previous = 0.0;
        for &t_ref in &[8.0, 16.0, 32.0, 64.0, 128.0, 256.0] {
            let p = DramRetentionBackend::new(config(), t_ref, 45.0)
                .unwrap()
                .p_cell();
            assert!(p > previous, "t_ref = {t_ref}");
            previous = p;
        }
        let mut previous = 0.0;
        for &temp in &[25.0, 45.0, 65.0, 85.0] {
            let p = DramRetentionBackend::new(config(), 64.0, temp)
                .unwrap()
                .p_cell();
            assert!(p > previous, "T = {temp}");
            previous = p;
        }
    }

    #[test]
    fn retention_halves_every_ten_degrees() {
        let cool = DramRetentionBackend::new(config(), 64.0, 45.0).unwrap();
        let hot = DramRetentionBackend::new(config(), 64.0, 55.0).unwrap();
        assert!((cool.tau_s() / hot.tau_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn with_p_cell_calibrates_the_refresh_interval() {
        for &p in &[1e-6, 1e-4, 1e-3, 1e-2] {
            let backend = DramRetentionBackend::with_p_cell(config(), p).unwrap();
            assert!(
                (backend.p_cell() - p).abs() < p * 1e-9,
                "requested {p}, got {}",
                backend.p_cell()
            );
            assert!(backend.refresh_interval_ms() > 0.0);
        }
        let zero = DramRetentionBackend::with_p_cell(config(), 0.0).unwrap();
        assert_eq!(zero.p_cell(), 0.0);
        assert!(DramRetentionBackend::with_p_cell(config(), 1.0).is_err());
        assert!(DramRetentionBackend::with_p_cell(config(), -0.1).is_err());
    }

    #[test]
    fn parameter_validation_rejects_nonsense() {
        assert!(DramRetentionBackend::new(config(), 0.0, 45.0).is_err());
        assert!(DramRetentionBackend::new(config(), -1.0, 45.0).is_err());
        assert!(DramRetentionBackend::new(config(), 64.0, f64::NAN).is_err());
        let backend = DramRetentionBackend::new(config(), 64.0, 45.0).unwrap();
        assert!(backend
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: -1.0
            })
            .is_err());
    }

    #[test]
    fn faults_are_spatially_clustered_relative_to_iid_sampling() {
        let backend = Backend::Dram(DramRetentionBackend::new(config(), 64.0, 45.0).unwrap());
        let iid = Backend::Sram(SramVddBackend::with_p_cell(config(), 1e-3).unwrap());
        let mut clustered_rows = 0usize;
        let mut iid_rows = 0usize;
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            clustered_rows += backend
                .sample_with_count(&mut rng, 64)
                .unwrap()
                .faulty_row_count();
            let mut rng = StdRng::seed_from_u64(seed);
            iid_rows += iid
                .sample_with_count(&mut rng, 64)
                .unwrap()
                .faulty_row_count();
        }
        // Clusters concentrate faults into fewer rows than iid placement.
        assert!(
            (clustered_rows as f64) < 0.8 * iid_rows as f64,
            "clustered rows {clustered_rows} vs iid rows {iid_rows}"
        );
    }

    #[test]
    fn default_kind_law_is_observable_flips_and_decay_law_is_asymmetric() {
        let backend = Backend::Dram(DramRetentionBackend::new(config(), 64.0, 45.0).unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let map = backend.sample_with_count(&mut rng, 200).unwrap();
        assert!(map.iter().all(|f| f.kind == FaultKind::BitFlip));

        let decay = backend
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.9,
            })
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let map = decay.sample_with_count(&mut rng, 400).unwrap();
        let zeros = map
            .iter()
            .filter(|f| f.kind == FaultKind::StuckAtZero)
            .count();
        assert!(
            zeros > 320,
            "decay polarity should dominate, got {zeros}/400 stuck-at-zero"
        );
    }

    #[test]
    fn exact_count_holds_even_at_full_array_density() {
        let tiny = MemoryConfig::new(4, 8).unwrap();
        let backend = Backend::Dram(DramRetentionBackend::new(tiny, 64.0, 45.0).unwrap());
        let mut rng = StdRng::seed_from_u64(2);
        let map = backend.sample_with_count(&mut rng, 32).unwrap();
        assert_eq!(map.fault_count(), 32);
        assert!(backend.sample_with_count(&mut rng, 33).is_err());
    }
}
