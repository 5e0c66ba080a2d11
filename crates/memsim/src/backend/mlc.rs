//! Multi-level-cell (MLC) NVM backend: drift-broadened level margins and
//! level-dependent, asymmetric bit-error placement.

use super::{place_distinct, place_distinct_into, FaultBackend, FaultKindLaw, OperatingPoint};
use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::fault::FaultMap;
use crate::scratch::DieScratch;
use crate::stats::{normal_cdf, normal_quantile};
use rand::rngs::StdRng;
use rand::Rng;

/// MLC NVM read errors behind the [`FaultBackend`] interface.
///
/// # Failure law
///
/// A 2-bit MLC cell stores one of four analog levels separated by
/// `level_spacing_sigma` drift-free standard deviations. Resistance drift
/// broadens the level distributions logarithmically with the time since
/// programming, so the effective margin shrinks by the drift factor
/// `d(t) = 1 + ν · ln(1 + t)` and the marginal per-cell error probability
/// is the closed form
///
/// ```text
///   P_cell(spacing, t) = Φ(−(spacing / 2) / d(t)),   d(t) = 1 + ν·ln(1 + t)
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
/// (even word columns = LSB page, odd = MSB page), and
/// [`MlcNvmBackend::sample_with_count`] places faults with even columns
/// weighted `lsb_weight : 1` (default 2 : 1) over odd columns, rows
/// uniform. The requested fault count is always exact.
///
/// # TLC / QLC level maps
///
/// [`MlcNvmBackend::with_bits_per_cell`] switches the backend to TLC
/// (3 bits, 8 levels) or QLC (4 bits, 16 levels). The per-level misread law
/// stays the per-boundary margin crossing
/// ([`MlcNvmBackend::level_misread_probability`]: edge levels have one
/// adjacent boundary, interior levels two), and the marginal `P_cell` is its
/// mean over levels, normalised to the 4-level reference so the 2-bit law
/// keeps its historical closed form:
///
/// ```text
///   P_cell(spacing, t, L) = (2(L−1)/L) / (3/2) · Φ(−(spacing / 2) / d(t))
/// ```
///
/// — `L = 4` gives the plain MLC law above, `L = 8` the factor `7/6`,
/// `L = 16` the factor `5/4`. The spatial law generalises too: a `b`-bit
/// reflected Gray code toggles its page-`p` bit on `2^(b−1−p)` of its
/// `2^b − 1` boundaries, so columns cycle through the `b` pages
/// (`col % b`) with fault mass `lsb_weight^(b−1−p)` per page-`p` column —
/// the Gray transition counts `4 : 2 : 1` (TLC) and `8 : 4 : 2 : 1` (QLC)
/// at the default weight.
///
/// Fault kinds default to always-observable bit-flips (the paper's
/// injection protocol); [`MlcNvmBackend::with_kind_law`] switches to the
/// asymmetric stuck-at law modelling unidirectional resistance drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlcNvmBackend {
    config: MemoryConfig,
    level_spacing_sigma: f64,
    drift_time_s: f64,
    drift_nu: f64,
    lsb_weight: f64,
    bits_per_cell: u32,
    kind_law: FaultKindLaw,
    p_cell: f64,
}

impl MlcNvmBackend {
    /// Creates the backend at the given level spacing (in drift-free σ
    /// units) and drift time (s), with the default drift coefficient
    /// `ν = 0.05` and LSB-page weight 2.
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
            drift_nu: 0.05,
            lsb_weight: 2.0,
            bits_per_cell: 2,
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

    /// Sets the drift coefficient `ν` (default 0.05).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] for a negative or non-finite
    /// coefficient.
    pub fn with_drift_nu(mut self, drift_nu: f64) -> Result<Self, MemError> {
        if drift_nu < 0.0 || !drift_nu.is_finite() {
            return Err(MemError::InvalidParameter {
                reason: format!("drift coefficient {drift_nu} must be non-negative"),
            });
        }
        self.drift_nu = drift_nu;
        self.p_cell = self.compute_p_cell();
        Ok(self)
    }

    /// Sets the relative error weight of LSB-page (even) columns over
    /// MSB-page (odd) columns (default 2; use 1 for level-independent
    /// placement).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] for a non-positive weight.
    pub fn with_lsb_weight(mut self, lsb_weight: f64) -> Result<Self, MemError> {
        if lsb_weight <= 0.0 || !lsb_weight.is_finite() {
            return Err(MemError::InvalidParameter {
                reason: format!("LSB-page weight {lsb_weight} must be positive"),
            });
        }
        self.lsb_weight = lsb_weight;
        Ok(self)
    }

    /// Sets the number of bits stored per cell: 2 (MLC, 4 levels — the
    /// default), 3 (TLC, 8 levels) or 4 (QLC, 16 levels). Switching
    /// re-derives the marginal `P_cell` from the current spacing/drift under
    /// the generalised per-level law (see the type-level documentation), so
    /// apply this knob *before* reasoning about densities; the 2-bit setting
    /// is bit-identical to the historical MLC backend.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] for any other cell capacity.
    pub fn with_bits_per_cell(mut self, bits_per_cell: u32) -> Result<Self, MemError> {
        if !(2..=4).contains(&bits_per_cell) {
            return Err(MemError::InvalidParameter {
                reason: format!(
                    "bits per cell must be 2 (MLC), 3 (TLC) or 4 (QLC), got {bits_per_cell}"
                ),
            });
        }
        self.bits_per_cell = bits_per_cell;
        self.p_cell = self.compute_p_cell();
        Ok(self)
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
        1.0 + self.drift_nu * self.drift_time_s.ln_1p()
    }

    /// Bits stored per cell (2 = MLC, 3 = TLC).
    #[must_use]
    pub fn bits_per_cell(&self) -> u32 {
        self.bits_per_cell
    }

    /// Number of analog storage levels (`2^bits_per_cell`).
    #[must_use]
    pub fn levels(&self) -> usize {
        1usize << self.bits_per_cell
    }

    /// Probability that one adjacent level boundary is crossed at the
    /// current spacing and drift — the building block of the per-level law.
    #[must_use]
    pub fn boundary_crossing_probability(&self) -> f64 {
        normal_cdf(-(self.level_spacing_sigma / 2.0) / self.drift_factor())
    }

    /// Probability that a cell programmed to `level` is misread: one
    /// boundary-crossing term per adjacent boundary (edge levels have one
    /// neighbour, interior levels two).
    ///
    /// # Panics
    ///
    /// Panics when `level` is outside `0..levels()`.
    #[must_use]
    pub fn level_misread_probability(&self, level: usize) -> f64 {
        assert!(
            level < self.levels(),
            "level {level} outside 0..{}",
            self.levels()
        );
        let adjacent = if level == 0 || level == self.levels() - 1 {
            1.0
        } else {
            2.0
        };
        adjacent * self.boundary_crossing_probability()
    }

    fn compute_p_cell(&self) -> f64 {
        let per_boundary = self.boundary_crossing_probability();
        if self.bits_per_cell == 2 {
            // The historical MLC law, kept bit-identical: the 4-level mean
            // of the per-level law normalised by its own 3/2 factor.
            per_boundary
        } else {
            // Mean adjacent boundaries per level, 2(L−1)/L, normalised to
            // the 4-level reference factor 3/2 (7/6 for TLC).
            let levels = self.levels() as f64;
            let scale = (2.0 * (levels - 1.0) / levels) / 1.5;
            (per_boundary * scale).min(1.0)
        }
    }

    /// The backend's spatial proposal law, shared verbatim by the
    /// allocating and scratch sampling paths: a uniform row, then a column
    /// drawn by page fault mass.
    ///
    /// MLC cells split into an LSB page (even columns, weight `lsb_weight`)
    /// and an MSB page (odd columns). TLC/QLC columns cycle through the b
    /// pages (col % b) with per-column fault mass w^(b−1−p) for page p — at
    /// the default w = 2 the Gray-code boundary transition counts 4 : 2 : 1
    /// (TLC) and 8 : 4 : 2 : 1 (QLC). Page tables live on the stack (b ≤ 4)
    /// so the scratch path stays allocation-free.
    fn proposer(&self) -> impl FnMut(&mut StdRng) -> (usize, usize) {
        let rows = self.config.rows();
        let cols = self.config.word_bits();
        let lsb_weight = self.lsb_weight;
        let two_pages = self.bits_per_cell == 2;
        let even_cols = cols.div_ceil(2);
        let odd_cols = cols / 2;
        let even_mass = even_cols as f64 * lsb_weight;
        let mlc_mass = even_mass + odd_cols as f64;

        let pages = self.bits_per_cell as usize;
        let mut page_cols = [0usize; 4];
        let mut page_weights = [0f64; 4];
        let mut page_masses = [0f64; 4];
        let mut total_mass = 0f64;
        for p in 0..pages {
            page_cols[p] = (cols + pages - 1 - p) / pages;
            page_weights[p] = lsb_weight.powi((pages - 1 - p) as i32);
            page_masses[p] = page_cols[p] as f64 * page_weights[p];
            total_mass += page_masses[p];
        }
        let last_page = page_cols[..pages]
            .iter()
            .rposition(|&count| count > 0)
            .expect("a memory word has at least one column");
        move |rng: &mut StdRng| {
            let row = rng.gen_range(0..rows);
            if two_pages {
                let u: f64 = rng.gen::<f64>() * mlc_mass;
                let col = if u < even_mass || odd_cols == 0 {
                    // LSB page: even columns, uniform within the page.
                    2 * ((u / lsb_weight) as usize).min(even_cols - 1)
                } else {
                    // MSB page: odd columns.
                    2 * ((u - even_mass) as usize).min(odd_cols - 1) + 1
                };
                return (row, col);
            }
            let mut u: f64 = rng.gen::<f64>() * total_mass;
            let mut chosen = last_page;
            for page in 0..pages {
                if page_cols[page] > 0 && (u < page_masses[page] || page == last_page) {
                    chosen = page;
                    break;
                }
                u -= page_masses[page];
            }
            let col =
                pages * ((u / page_weights[chosen]) as usize).min(page_cols[chosen] - 1) + chosen;
            (row, col)
        }
    }
}

impl FaultBackend for MlcNvmBackend {
    fn name(&self) -> &'static str {
        "mlc-nvm"
    }

    fn config(&self) -> MemoryConfig {
        self.config
    }

    fn p_cell(&self) -> f64 {
        self.p_cell
    }

    fn operating_point(&self) -> OperatingPoint {
        OperatingPoint::MlcNvm {
            level_spacing_sigma: self.level_spacing_sigma,
            drift_time_s: self.drift_time_s,
        }
    }

    fn sample_with_count(&self, rng: &mut StdRng, n_faults: usize) -> Result<FaultMap, MemError> {
        place_distinct(self.config, rng, n_faults, self.kind_law, self.proposer())
    }

    fn sample_into(
        &self,
        rng: &mut StdRng,
        n_faults: usize,
        scratch: &mut DieScratch,
    ) -> Result<(), MemError> {
        place_distinct_into(
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
        let backend = MlcNvmBackend::new(config(), 12.0, 1.0).unwrap();
        assert!(backend.with_drift_nu(-0.1).is_err());
        assert!(backend.with_lsb_weight(0.0).is_err());
    }

    #[test]
    fn lsb_page_columns_carry_twice_the_fault_mass() {
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0).unwrap();
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
    fn unit_lsb_weight_restores_uniform_columns() {
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0)
            .unwrap()
            .with_lsb_weight(1.0)
            .unwrap();
        let mut even = 0usize;
        let mut total = 0usize;
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let map = backend.sample_with_count(&mut rng, 200).unwrap();
            even += map.iter().filter(|f| f.col % 2 == 0).count();
            total += map.fault_count();
        }
        let even_fraction = even as f64 / total as f64;
        assert!(
            (even_fraction - 0.5).abs() < 0.05,
            "even-column fraction {even_fraction}, expected ≈ 0.5"
        );
    }

    #[test]
    fn drift_kind_law_is_asymmetric_when_enabled() {
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0)
            .unwrap()
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
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for &n in &[0usize, 1, 33, 512] {
            let map = backend.sample_with_count(&mut rng, n).unwrap();
            assert_eq!(map.fault_count(), n);
            assert!(map.iter().all(|f| f.kind == FaultKind::BitFlip));
        }
    }

    #[test]
    fn tlc_p_cell_matches_the_closed_form_per_level_law() {
        let mlc = MlcNvmBackend::new(config(), 12.0, 86_400.0).unwrap();
        let tlc = mlc.with_bits_per_cell(3).unwrap();
        assert_eq!(tlc.bits_per_cell(), 3);
        assert_eq!(tlc.levels(), 8);

        // Per-level law: edge levels cross one boundary, interior levels two.
        let per_boundary = tlc.boundary_crossing_probability();
        assert_eq!(tlc.level_misread_probability(0), per_boundary);
        assert_eq!(tlc.level_misread_probability(7), per_boundary);
        for level in 1..7 {
            assert_eq!(tlc.level_misread_probability(level), 2.0 * per_boundary);
        }

        // Marginal closed form: mean adjacent boundaries 2(L−1)/L = 7/4,
        // normalised by the 4-level reference 3/2 ⇒ P_cell = (7/6)·Φ.
        let expected = per_boundary * ((2.0 * 7.0 / 8.0) / 1.5);
        assert!(
            (tlc.p_cell() - expected).abs() <= expected * 1e-12,
            "p = {}, closed form = {expected}",
            tlc.p_cell()
        );
        // The mean of the per-level law, renormalised, is the same number.
        let mean: f64 = (0..8)
            .map(|l| tlc.level_misread_probability(l))
            .sum::<f64>()
            / 8.0;
        assert!((tlc.p_cell() - mean / 1.5).abs() <= expected * 1e-12);
        // And the 2-bit knob reproduces the historical law bit for bit.
        assert_eq!(
            mlc.with_bits_per_cell(2).unwrap().p_cell().to_bits(),
            mlc.p_cell().to_bits()
        );
        assert_eq!(mlc.p_cell().to_bits(), per_boundary.to_bits());
    }

    #[test]
    fn bits_per_cell_knob_rejects_unsupported_capacities() {
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0).unwrap();
        assert!(backend.with_bits_per_cell(1).is_err());
        assert!(backend.with_bits_per_cell(5).is_err());
        assert!(backend.with_bits_per_cell(3).is_ok());
        assert!(backend.with_bits_per_cell(4).is_ok());
    }

    #[test]
    fn qlc_p_cell_matches_the_closed_form_per_level_law() {
        let mlc = MlcNvmBackend::new(config(), 12.0, 86_400.0).unwrap();
        let qlc = mlc.with_bits_per_cell(4).unwrap();
        assert_eq!(qlc.bits_per_cell(), 4);
        assert_eq!(qlc.levels(), 16);

        // Per-level law: edge levels cross one boundary, interior levels two.
        let per_boundary = qlc.boundary_crossing_probability();
        assert_eq!(qlc.level_misread_probability(0), per_boundary);
        assert_eq!(qlc.level_misread_probability(15), per_boundary);
        for level in 1..15 {
            assert_eq!(qlc.level_misread_probability(level), 2.0 * per_boundary);
        }

        // Marginal closed form: mean adjacent boundaries 2(L−1)/L = 15/8,
        // normalised by the 4-level reference 3/2 ⇒ P_cell = (5/4)·Φ.
        let expected = per_boundary * ((2.0 * 15.0 / 16.0) / 1.5);
        assert!(
            (qlc.p_cell() - expected).abs() <= expected * 1e-12,
            "p = {}, closed form = {expected}",
            qlc.p_cell()
        );
        // The mean of the per-level law, renormalised, is the same number.
        let mean: f64 = (0..16)
            .map(|l| qlc.level_misread_probability(l))
            .sum::<f64>()
            / 16.0;
        assert!((qlc.p_cell() - mean / 1.5).abs() <= expected * 1e-12);
    }

    #[test]
    fn qlc_pages_carry_gray_transition_fault_mass() {
        // 8 : 4 : 2 : 1 across the four pages at the default weight.
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0)
            .unwrap()
            .with_bits_per_cell(4)
            .unwrap();
        let mut per_page = [0usize; 4];
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let map = backend.sample_with_count(&mut rng, 200).unwrap();
            for fault in map.iter() {
                per_page[fault.col % 4] += 1;
            }
        }
        // Every page owns 8 of the 32 word columns, so raw counts compare
        // directly; normalise against the MSB page.
        let msb = per_page[3].max(1) as f64;
        let ratios = [
            per_page[0] as f64 / msb,
            per_page[1] as f64 / msb,
            per_page[2] as f64 / msb,
        ];
        assert!(
            (ratios[0] - 8.0).abs() < 1.6,
            "LSB:MSB rate {} expected ≈ 8",
            ratios[0]
        );
        assert!(
            (ratios[1] - 4.0).abs() < 0.9,
            "page1:MSB rate {} expected ≈ 4",
            ratios[1]
        );
        assert!(
            (ratios[2] - 2.0).abs() < 0.5,
            "page2:MSB rate {} expected ≈ 2",
            ratios[2]
        );
    }

    #[test]
    fn qlc_sampling_is_exact_and_deterministic() {
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0)
            .unwrap()
            .with_bits_per_cell(4)
            .unwrap();
        for &n in &[0usize, 1, 33, 512] {
            let mut rng_a = StdRng::seed_from_u64(23);
            let mut rng_b = StdRng::seed_from_u64(23);
            let a = backend.sample_with_count(&mut rng_a, n).unwrap();
            let b = backend.sample_with_count(&mut rng_b, n).unwrap();
            assert_eq!(a.fault_count(), n);
            assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        }
        // Narrow words exercise the empty-page fallback.
        for word_bits in [1usize, 2, 3, 4, 5] {
            let narrow = MemoryConfig::new(16, word_bits).unwrap();
            let backend = MlcNvmBackend::new(narrow, 12.0, 0.0)
                .unwrap()
                .with_bits_per_cell(4)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            let map = backend.sample_with_count(&mut rng, 10).unwrap();
            assert_eq!(map.fault_count(), 10, "{word_bits}-bit words");
            assert!(map.iter().all(|f| f.col < word_bits));
        }
    }

    #[test]
    fn tlc_pages_carry_gray_transition_fault_mass() {
        // 4 : 2 : 1 across LSB/CSB/MSB pages at the default weight.
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0)
            .unwrap()
            .with_bits_per_cell(3)
            .unwrap();
        let mut per_page = [0usize; 3];
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let map = backend.sample_with_count(&mut rng, 200).unwrap();
            for fault in map.iter() {
                per_page[fault.col % 3] += 1;
            }
        }
        // Normalise by the column count of each page (32 cols → 11/11/10).
        let rates = [
            per_page[0] as f64 / 11.0,
            per_page[1] as f64 / 11.0,
            per_page[2] as f64 / 10.0,
        ];
        assert!(
            (rates[0] / rates[2] - 4.0).abs() < 0.6,
            "LSB:MSB per-column rate {} expected ≈ 4",
            rates[0] / rates[2]
        );
        assert!(
            (rates[1] / rates[2] - 2.0).abs() < 0.35,
            "CSB:MSB per-column rate {} expected ≈ 2",
            rates[1] / rates[2]
        );
    }

    #[test]
    fn tlc_sampling_is_exact_and_deterministic() {
        let backend = MlcNvmBackend::new(config(), 12.0, 86_400.0)
            .unwrap()
            .with_bits_per_cell(3)
            .unwrap();
        for &n in &[0usize, 1, 33, 512] {
            let mut rng_a = StdRng::seed_from_u64(17);
            let mut rng_b = StdRng::seed_from_u64(17);
            let a = backend.sample_with_count(&mut rng_a, n).unwrap();
            let b = backend.sample_with_count(&mut rng_b, n).unwrap();
            assert_eq!(a.fault_count(), n);
            assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        }
        // Narrow words exercise the empty-page fallback.
        for word_bits in [1usize, 2, 3] {
            let narrow = MemoryConfig::new(16, word_bits).unwrap();
            let backend = MlcNvmBackend::new(narrow, 12.0, 0.0)
                .unwrap()
                .with_bits_per_cell(3)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            let map = backend.sample_with_count(&mut rng, 10).unwrap();
            assert_eq!(map.fault_count(), 10, "{word_bits}-bit words");
            assert!(map.iter().all(|f| f.col < word_bits));
        }
    }

    #[test]
    fn odd_word_widths_are_handled() {
        let narrow = MemoryConfig::new(16, 1).unwrap();
        let backend = MlcNvmBackend::new(narrow, 12.0, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let map = backend.sample_with_count(&mut rng, 10).unwrap();
        assert_eq!(map.fault_count(), 10);
        assert!(map.iter().all(|f| f.col == 0));
    }
}
