//! Monte-Carlo generation of dies and fault maps.
//!
//! The paper's evaluation (§4, §5.2) injects random bit-flips according to
//! fault maps drawn for each failure count `N = 1..N_max`, with the number of
//! samples per failure count proportional to `Pr(N = n)` (Eq. (4)). This
//! module provides:
//!
//! * [`FailureCountDistribution`] — the binomial distribution of the number of
//!   failures in a memory of `M` cells with failure probability `P_cell`;
//! * [`FaultMapSampler`] — uniform sampling of fault maps with an exact number
//!   of faults (the paper's "maps of random bit-flip locations for each
//!   failure count");
//! * [`DieSampler`] — sampling of whole dies where the failure count itself is
//!   drawn from the binomial distribution (used when simulating a production
//!   lot rather than sweeping failure counts).

use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::fault::{Fault, FaultKind, FaultMap};
use crate::floyd::floyd_step;
use crate::scratch::{fault_key, DieScratch};
use crate::stats::{binomial_pmf, sample_binomial};
use rand::seq::index::sample as sample_indices;
use rand::Rng;

/// Binomial distribution of the failure count `N` of a memory sample
/// (Eq. (4): `Pr(N = n) = C(M, n) · P_cell^n · (1 − P_cell)^(M−n)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureCountDistribution {
    total_cells: u64,
    p_cell: f64,
}

impl FailureCountDistribution {
    /// Creates the distribution for a memory with `total_cells` bit-cells and
    /// per-cell failure probability `p_cell`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn new(total_cells: usize, p_cell: f64) -> Result<Self, MemError> {
        if !(0.0..=1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(MemError::InvalidProbability { value: p_cell });
        }
        Ok(Self {
            total_cells: total_cells as u64,
            p_cell,
        })
    }

    /// Convenience constructor from a memory configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn for_memory(config: MemoryConfig, p_cell: f64) -> Result<Self, MemError> {
        Self::new(config.total_cells(), p_cell)
    }

    /// Number of bit-cells `M`.
    #[must_use]
    pub fn total_cells(&self) -> u64 {
        self.total_cells
    }

    /// Per-cell failure probability `P_cell`.
    #[must_use]
    pub fn p_cell(&self) -> f64 {
        self.p_cell
    }

    /// `Pr(N = n)`.
    #[must_use]
    pub fn pmf(&self, n: u64) -> f64 {
        binomial_pmf(self.total_cells, n, self.p_cell)
    }

    /// `Pr(N ≤ n)`.
    #[must_use]
    pub fn cdf(&self, n: u64) -> f64 {
        (0..=n.min(self.total_cells))
            .map(|k| self.pmf(k))
            .sum::<f64>()
            .min(1.0)
    }

    /// Expected failure count `M · P_cell`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.total_cells as f64 * self.p_cell
    }

    /// Smallest `n` such that `Pr(N ≤ n) ≥ coverage`.
    ///
    /// The paper chooses `N_max` such that 99 % of memories have no more than
    /// `N_max` failures; that is `n_max(0.99)`.
    #[must_use]
    pub fn n_max(&self, coverage: f64) -> u64 {
        let coverage = coverage.clamp(0.0, 1.0);
        let mut cumulative = 0.0;
        let mut n = 0u64;
        loop {
            cumulative += self.pmf(n);
            if cumulative >= coverage || n >= self.total_cells {
                return n;
            }
            n += 1;
        }
    }

    /// Draws a failure count `N ~ Bin(M, P_cell)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        sample_binomial(rng, self.total_cells, self.p_cell)
    }

    /// Number of Monte-Carlo samples to allocate to failure count `n` out of
    /// a total budget of `total_runs` runs, following the paper's
    /// `Pr(N = n) · T_run` rule.
    #[must_use]
    pub fn samples_for_count(&self, n: u64, total_runs: u64) -> u64 {
        (self.pmf(n) * total_runs as f64).round() as u64
    }
}

/// Uniform sampler of fault maps with an exact number of faulty cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMapSampler {
    config: MemoryConfig,
    kind_policy: FaultKindPolicy,
}

/// How the behaviour of each sampled faulty cell is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKindPolicy {
    /// Every faulty cell flips its content (the paper's random bit-flip
    /// injection — an error is always observed regardless of the data).
    AlwaysFlip,
    /// Each faulty cell is stuck at 0 or 1 with equal probability, so roughly
    /// half of the faults are silent for any given data word.
    RandomStuckAt,
    /// Uniform mix of stuck-at-0, stuck-at-1 and flip faults.
    Mixed,
}

impl FaultMapSampler {
    /// Creates a sampler that injects bit-flip faults (the paper's model).
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self {
            config,
            kind_policy: FaultKindPolicy::AlwaysFlip,
        }
    }

    /// Creates a sampler with an explicit fault-kind policy.
    #[must_use]
    pub fn with_policy(config: MemoryConfig, kind_policy: FaultKindPolicy) -> Self {
        Self {
            config,
            kind_policy,
        }
    }

    /// Geometry sampled fault maps are built for.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Draws a fault map with exactly `n_faults` faulty cells placed uniformly
    /// at random over the array (without replacement).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] when `n_faults` exceeds the
    /// number of cells in the array.
    pub fn sample_with_count<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n_faults: usize,
    ) -> Result<FaultMap, MemError> {
        let total = self.config.total_cells();
        if n_faults > total {
            return Err(MemError::InvalidParameter {
                reason: format!("cannot place {n_faults} faults in {total} cells"),
            });
        }
        let mut map = FaultMap::new(self.config);
        // Floyd's algorithm yields distinct indices, so the map can be
        // bulk-loaded and sorted once (a per-fault sorted insert is
        // quadratic at dense fault counts). Kind draws stay in index order
        // — the RNG schedule is untouched.
        for index in sample_indices(rng, total, n_faults).into_iter() {
            let (row, col) = self.config.cell_position(index);
            let kind = self.sample_kind(rng);
            map.push_unsorted(Fault::new(row, col, kind))?;
        }
        map.restore_sorted_order();
        Ok(map)
    }

    /// The allocation-free twin of [`FaultMapSampler::sample_with_count`]:
    /// draws into the scratch arena's reusable buffers with **identical RNG
    /// consumption** — the same Floyd draws, answered from the arena's cell
    /// bitmap instead of a hash set, then the same kind draws — so the two
    /// paths produce bit-identical maps from the same RNG state.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] when `n_faults` exceeds the
    /// number of cells in the array.
    pub fn sample_with_count_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n_faults: usize,
        scratch: &mut DieScratch,
    ) -> Result<(), MemError> {
        let total = self.config.total_cells();
        if n_faults > total {
            return Err(MemError::InvalidParameter {
                reason: format!("cannot place {n_faults} faults in {total} cells"),
            });
        }
        scratch.start_die(self.config);
        for j in total - n_faults..total {
            let cell = floyd_step(&mut scratch.cells, rng.gen_range(0..=j), j);
            scratch.keys.push(cell as u64);
        }
        // Kind draws keep their Floyd-order RNG schedule; each kind rides in
        // its cell's sort key, so one sort of raw keys orders the map.
        for key in &mut scratch.keys {
            *key = fault_key(*key as usize, self.sample_kind(rng));
        }
        scratch.finish_die();
        Ok(())
    }

    /// Draws a fault map whose failure count follows `Bin(M, p_cell)`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn sample_with_p_cell<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        p_cell: f64,
    ) -> Result<FaultMap, MemError> {
        let dist = FailureCountDistribution::for_memory(self.config, p_cell)?;
        let n = dist.sample(rng) as usize;
        self.sample_with_count(rng, n)
    }

    fn sample_kind<R: Rng + ?Sized>(&self, rng: &mut R) -> FaultKind {
        match self.kind_policy {
            FaultKindPolicy::AlwaysFlip => FaultKind::BitFlip,
            FaultKindPolicy::RandomStuckAt => {
                if rng.gen::<bool>() {
                    FaultKind::StuckAtOne
                } else {
                    FaultKind::StuckAtZero
                }
            }
            FaultKindPolicy::Mixed => match rng.gen_range(0..3) {
                0 => FaultKind::StuckAtZero,
                1 => FaultKind::StuckAtOne,
                _ => FaultKind::BitFlip,
            },
        }
    }
}

/// Samples complete dies: a fault map whose failure count follows the
/// binomial distribution implied by a failure model or explicit `P_cell`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieSampler {
    sampler: FaultMapSampler,
    p_cell: f64,
}

impl DieSampler {
    /// Creates a die sampler for the given geometry and cell failure
    /// probability.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn new(config: MemoryConfig, p_cell: f64) -> Result<Self, MemError> {
        if !(0.0..=1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(MemError::InvalidProbability { value: p_cell });
        }
        Ok(Self {
            sampler: FaultMapSampler::new(config),
            p_cell,
        })
    }

    /// Per-cell failure probability used by this sampler.
    #[must_use]
    pub fn p_cell(&self) -> f64 {
        self.p_cell
    }

    /// Geometry of sampled dies.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.sampler.config()
    }

    /// The failure-count distribution of sampled dies.
    #[must_use]
    pub fn failure_distribution(&self) -> FailureCountDistribution {
        FailureCountDistribution {
            total_cells: self.config().total_cells() as u64,
            p_cell: self.p_cell,
        }
    }

    /// Draws one die's fault map.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors from fault-map construction (none are
    /// expected for a well-formed sampler).
    pub fn sample_die<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<FaultMap, MemError> {
        self.sampler.sample_with_p_cell(rng, self.p_cell)
    }

    /// Draws `count` dies.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`DieSampler::sample_die`].
    pub fn sample_dies<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> Result<Vec<FaultMap>, MemError> {
        (0..count).map(|_| self.sample_die(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(64, 32).unwrap()
    }

    #[test]
    fn failure_distribution_pmf_normalises() {
        let dist = FailureCountDistribution::new(2048, 0.002).unwrap();
        let total: f64 = (0..=64).map(|n| dist.pmf(n)).sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!((dist.mean() - 4.096).abs() < 1e-9);
    }

    #[test]
    fn failure_distribution_rejects_bad_probability() {
        assert!(FailureCountDistribution::new(100, -0.1).is_err());
        assert!(FailureCountDistribution::new(100, 1.1).is_err());
        assert!(FailureCountDistribution::new(100, f64::NAN).is_err());
    }

    #[test]
    fn n_max_covers_requested_probability_mass() {
        let dist = FailureCountDistribution::for_memory(MemoryConfig::paper_16kb(), 1e-3).unwrap();
        let n99 = dist.n_max(0.99);
        // Mean is ~131; the 99th percentile must be somewhat above the mean.
        assert!(n99 > 131 && n99 < 170, "n_max(0.99) = {n99}");
        assert!(dist.cdf(n99) >= 0.99);
        assert!(dist.cdf(n99.saturating_sub(1)) < 0.99);
    }

    #[test]
    fn samples_for_count_follows_pmf() {
        let dist = FailureCountDistribution::new(1000, 0.01).unwrap();
        let runs = 1_000_000;
        let at_mean = dist.samples_for_count(10, runs);
        let far_tail = dist.samples_for_count(100, runs);
        assert!(at_mean > 10_000);
        assert_eq!(far_tail, 0);
    }

    #[test]
    fn fault_map_sampler_places_exact_count_without_duplicates() {
        let sampler = FaultMapSampler::new(config());
        let mut rng = StdRng::seed_from_u64(1);
        for &n in &[0usize, 1, 5, 50, 500] {
            let map = sampler.sample_with_count(&mut rng, n).unwrap();
            assert_eq!(map.fault_count(), n, "requested {n} faults");
        }
    }

    #[test]
    fn fault_map_sampler_rejects_overfull_request() {
        let sampler = FaultMapSampler::new(MemoryConfig::new(2, 8).unwrap());
        let mut rng = StdRng::seed_from_u64(2);
        assert!(sampler.sample_with_count(&mut rng, 17).is_err());
        assert!(sampler.sample_with_count(&mut rng, 16).is_ok());
    }

    #[test]
    fn always_flip_policy_produces_only_flip_faults() {
        let sampler = FaultMapSampler::new(config());
        let mut rng = StdRng::seed_from_u64(3);
        let map = sampler.sample_with_count(&mut rng, 100).unwrap();
        assert!(map.iter().all(|f| f.kind == FaultKind::BitFlip));
    }

    #[test]
    fn stuck_at_policy_produces_both_polarities() {
        let sampler = FaultMapSampler::with_policy(config(), FaultKindPolicy::RandomStuckAt);
        let mut rng = StdRng::seed_from_u64(4);
        let map = sampler.sample_with_count(&mut rng, 200).unwrap();
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
    fn mixed_policy_produces_all_kinds() {
        let sampler = FaultMapSampler::with_policy(config(), FaultKindPolicy::Mixed);
        let mut rng = StdRng::seed_from_u64(5);
        let map = sampler.sample_with_count(&mut rng, 300).unwrap();
        for kind in FaultKind::ALL {
            assert!(map.iter().any(|f| f.kind == kind), "missing {kind:?}");
        }
    }

    #[test]
    fn fault_locations_are_spread_over_rows() {
        let sampler = FaultMapSampler::new(config());
        let mut rng = StdRng::seed_from_u64(6);
        let map = sampler.sample_with_count(&mut rng, 256).unwrap();
        // With 2048 cells and 256 faults, faults should span many rows.
        assert!(map.faulty_row_count() > 40);
    }

    #[test]
    fn die_sampler_tracks_binomial_mean() {
        let sampler = DieSampler::new(config(), 0.01).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let dies = sampler.sample_dies(&mut rng, 400).unwrap();
        let mean = dies.iter().map(|d| d.fault_count() as f64).sum::<f64>() / dies.len() as f64;
        let expected = sampler.failure_distribution().mean();
        assert!(
            (mean - expected).abs() < expected * 0.2 + 1.0,
            "mean = {mean}, expected = {expected}"
        );
    }

    #[test]
    fn die_sampler_rejects_bad_probability() {
        assert!(DieSampler::new(config(), -0.5).is_err());
        assert!(DieSampler::new(config(), 2.0).is_err());
    }

    #[test]
    fn zero_p_cell_yields_fault_free_dies() {
        let sampler = DieSampler::new(config(), 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let die = sampler.sample_die(&mut rng).unwrap();
        assert!(die.is_empty());
    }
}
