//! Fault-generation backends for different memory technologies.
//!
//! The paper evaluates its mitigation schemes against iid SRAM
//! voltage-scaling failures only. Real systems face other fault processes:
//! DRAM/eDRAM retention failures cluster spatially and depend on the refresh
//! interval and temperature; multi-level-cell (MLC) NVM errors depend on the
//! level spacing, drift time, and which bit of the cell a data bit maps to.
//! A [`Backend`] says *where faults come from*, and every layer above
//! (`faultmit-sim` campaigns, `faultmit-analysis` engines, the figure
//! binaries) runs against whichever technology it holds:
//!
//! * a **per-cell failure law** — the marginal probability that a bit-cell
//!   is faulty at the backend's operating point ([`Backend::p_cell`]);
//! * a **fault-map distribution** — how a given number of faults is placed
//!   over the array ([`Backend::sample_into`]): iid uniform for
//!   SRAM, spatially clustered for DRAM retention, level-weighted columns
//!   for MLC NVM;
//! * an **operating point** — the technology-specific knob that moves the
//!   failure law (`V_DD` for SRAM, refresh interval + temperature for DRAM,
//!   level spacing + drift time for MLC NVM), reported as an
//!   [`OperatingPoint`] for tables and JSON series.
//!
//! The set of technologies is closed: [`Backend`] has one variant per
//! technology, [`SramVddBackend`] (the paper's model: iid Floyd
//! placement), [`DramRetentionBackend`] and [`MlcNvmBackend`], and a fourth
//! technology is a fourth variant.
//!
//! # Data-dependent faults: kind laws and data images
//!
//! By default every backend injects always-observable bit flips
//! ([`FaultKindLaw::AlwaysFlip`], the paper's protocol). Real decay
//! mechanisms are *stuck-at* and therefore data-dependent: whether a fault
//! corrupts a read depends on the stored word. Choose a law with the
//! backend's `with_kind_law` and evaluate against the words of an
//! [`ImageSpec`](crate::image::ImageSpec):
//!
//! ```
//! use faultmit_memsim::backend::{Backend, FaultKindLaw, MlcNvmBackend};
//! use faultmit_memsim::image::ImageSpec;
//! use faultmit_memsim::MemoryConfig;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), faultmit_memsim::MemError> {
//! let config = MemoryConfig::new(64, 32)?;
//! // Resistance drift mostly discharges cells: 90% of faults read 0.
//! let backend = Backend::Mlc(MlcNvmBackend::new(config, 12.0, 86_400.0)?.with_kind_law(
//!     FaultKindLaw::AsymmetricStuckAt {
//!         p_stuck_at_zero: 0.9,
//!     },
//! )?);
//! let map = backend.sample_with_count(&mut StdRng::seed_from_u64(1), 32)?;
//!
//! let zeros = ImageSpec::Zeros.words(config)?;
//! let ones = ImageSpec::Ones.words(config)?;
//! let observable = |words: &[u64]| {
//!     map.iter()
//!         .filter(|f| f.kind.corrupts((words[f.row] >> f.col) & 1 == 1))
//!         .count()
//! };
//! // Stuck-at-0 faults are silent over a zeros image but corrupt an
//! // all-ones image — the data dependence the fig9 campaign quantifies.
//! assert!(observable(&zeros) < observable(&ones));
//! # Ok(())
//! # }
//! ```

mod dram;
mod mlc;
mod sram;

pub use dram::DramRetentionBackend;
pub use mlc::MlcNvmBackend;
pub use sram::SramVddBackend;

use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::fault::{FaultKind, FaultMap};
use crate::montecarlo::FailureCountDistribution;
use crate::scratch::DieScratch;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// The technology-specific knob settings a backend's failure law is
/// evaluated at.
///
/// Reported by [`Backend::operating_point`] so tables and JSON series
/// can label campaign results without knowing the technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OperatingPoint {
    /// SRAM under voltage scaling: the supply voltage in volts.
    SramVdd {
        /// Supply voltage (V).
        vdd: f64,
    },
    /// DRAM/eDRAM retention: refresh interval and die temperature.
    DramRetention {
        /// Refresh interval (ms).
        refresh_interval_ms: f64,
        /// Die temperature (°C).
        temperature_c: f64,
    },
    /// MLC NVM: level spacing (in drift-free σ units) and drift time.
    MlcNvm {
        /// Separation of adjacent storage levels, in units of the drift-free
        /// level standard deviation.
        level_spacing_sigma: f64,
        /// Time since programming (s); resistance drift widens the levels.
        drift_time_s: f64,
    },
}

impl OperatingPoint {
    /// The primary scalar knob (the value swept in operating-point sweeps).
    #[must_use]
    pub fn primary_value(&self) -> f64 {
        match self {
            OperatingPoint::SramVdd { vdd } => *vdd,
            OperatingPoint::DramRetention {
                refresh_interval_ms,
                ..
            } => *refresh_interval_ms,
            OperatingPoint::MlcNvm {
                level_spacing_sigma,
                ..
            } => *level_spacing_sigma,
        }
    }

    /// Human-readable label, e.g. `"Vdd=0.80V"` or `"t_ref=64ms @ 45C"`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            OperatingPoint::SramVdd { vdd } => format!("Vdd={vdd:.2}V"),
            OperatingPoint::DramRetention {
                refresh_interval_ms,
                temperature_c,
            } => format!("t_ref={refresh_interval_ms:.0}ms @ {temperature_c:.0}C"),
            OperatingPoint::MlcNvm {
                level_spacing_sigma,
                drift_time_s,
            } => format!("spacing={level_spacing_sigma:.1}sigma @ t={drift_time_s:.0}s"),
        }
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// How a backend assigns a [`FaultKind`] to each faulty cell.
///
/// The default everywhere is [`FaultKindLaw::AlwaysFlip`], matching the
/// paper's injection protocol in which every fault is observable regardless
/// of the stored data — the protocol under which the per-die paired
/// comparisons (shuffle ≤ unprotected on every die) are exact. The stuck-at
/// laws model data-dependent faults; under them scheme dominance holds in
/// expectation, not per die.
#[derive(Debug, Clone, Copy)]
pub enum FaultKindLaw {
    /// Every faulty cell flips its content (always observable).
    AlwaysFlip,
    /// Stuck at 0 or 1 with equal probability.
    RandomStuckAt,
    /// Stuck at 0 with probability `p_stuck_at_zero`, else stuck at 1 —
    /// models unidirectional decay (DRAM discharge, MLC resistance drift).
    AsymmetricStuckAt {
        /// Probability that a faulty cell reads 0.
        p_stuck_at_zero: f64,
    },
}

/// Identity comparison: asymmetric laws compare their probability **by bit
/// pattern**, so equality is total and reflexive (a hand-built NaN law
/// equals itself) and campaign identities containing a law are well-behaved
/// as `Eq` keys. Laws that round-trip through the `--kind-law` notation
/// always preserve their bits (shortest-round-trip `f64` printing).
impl PartialEq for FaultKindLaw {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FaultKindLaw::AlwaysFlip, FaultKindLaw::AlwaysFlip)
            | (FaultKindLaw::RandomStuckAt, FaultKindLaw::RandomStuckAt) => true,
            (
                FaultKindLaw::AsymmetricStuckAt { p_stuck_at_zero: a },
                FaultKindLaw::AsymmetricStuckAt { p_stuck_at_zero: b },
            ) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for FaultKindLaw {}

impl FaultKindLaw {
    /// Validates the law's parameters.
    pub(crate) fn validate(&self) -> Result<(), MemError> {
        if let FaultKindLaw::AsymmetricStuckAt { p_stuck_at_zero } = self {
            if !(0.0..=1.0).contains(p_stuck_at_zero) || p_stuck_at_zero.is_nan() {
                return Err(MemError::InvalidProbability {
                    value: *p_stuck_at_zero,
                });
            }
        }
        Ok(())
    }

    /// Draws the kind of one faulty cell.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> FaultKind {
        match self {
            FaultKindLaw::AlwaysFlip => FaultKind::BitFlip,
            FaultKindLaw::RandomStuckAt => {
                if rng.gen::<bool>() {
                    FaultKind::StuckAtOne
                } else {
                    FaultKind::StuckAtZero
                }
            }
            FaultKindLaw::AsymmetricStuckAt { p_stuck_at_zero } => {
                if rng.gen_bool(*p_stuck_at_zero) {
                    FaultKind::StuckAtZero
                } else {
                    FaultKind::StuckAtOne
                }
            }
        }
    }
}

impl fmt::Display for FaultKindLaw {
    /// The canonical `--kind-law` notation: `flip`, `stuck-at` (random
    /// polarity) or `stuck-at:P` with `P = Pr(stuck at 0)`. Round-trips
    /// through [`FromStr`] exactly (`f64` prints in shortest form).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKindLaw::AlwaysFlip => f.write_str("flip"),
            FaultKindLaw::RandomStuckAt => f.write_str("stuck-at"),
            FaultKindLaw::AsymmetricStuckAt { p_stuck_at_zero } => {
                write!(f, "stuck-at:{p_stuck_at_zero}")
            }
        }
    }
}

impl FromStr for FaultKindLaw {
    type Err = MemError;

    /// Parses the `--kind-law` notation: `flip` (the paper's
    /// always-observable protocol), `stuck-at` (stuck at 0 or 1 with equal
    /// probability) or `stuck-at:P` (stuck at 0 with probability `P`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let law = match lower.as_str() {
            "flip" | "always-flip" | "bit-flip" | "bitflip" => FaultKindLaw::AlwaysFlip,
            "stuck-at" | "random-stuck-at" => FaultKindLaw::RandomStuckAt,
            _ => match lower.strip_prefix("stuck-at:") {
                Some(p) => {
                    let p_stuck_at_zero =
                        p.trim().parse().map_err(|_| MemError::InvalidParameter {
                            reason: format!("stuck-at probability '{p}' is not a number"),
                        })?;
                    FaultKindLaw::AsymmetricStuckAt { p_stuck_at_zero }
                }
                None => {
                    return Err(MemError::InvalidParameter {
                        reason: format!(
                            "unknown fault-kind law '{s}', expected flip|stuck-at|stuck-at:P"
                        ),
                    })
                }
            },
        };
        law.validate()?;
        Ok(law)
    }
}

/// Identifier of a backend technology (the `--backend` CLI axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// SRAM under voltage scaling (the paper's model).
    Sram,
    /// DRAM/eDRAM retention failures.
    Dram,
    /// Multi-level-cell NVM read errors.
    Mlc,
}

impl BackendKind {
    /// All backend technologies.
    pub const ALL: [BackendKind; 3] = [BackendKind::Sram, BackendKind::Dram, BackendKind::Mlc];

    /// Canonical technology name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Sram => "sram-vdd",
            BackendKind::Dram => "dram-retention",
            BackendKind::Mlc => "mlc-nvm",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = MemError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sram" | "sram-vdd" => Ok(BackendKind::Sram),
            "dram" | "edram" | "dram-retention" => Ok(BackendKind::Dram),
            "mlc" | "nvm" | "mlc-nvm" => Ok(BackendKind::Mlc),
            other => Err(MemError::InvalidParameter {
                reason: format!("unknown backend '{other}', expected sram|dram|mlc"),
            }),
        }
    }
}

/// A memory-technology fault model — per-cell failure law, fault-map
/// distribution and operating point — as one `Copy` type with one variant
/// per technology, the value the `--backend` flag of the figure binaries
/// selects and every campaign draws its dies from.
///
/// Draws are deterministic functions of the RNG passed to
/// [`Backend::sample_into`]: the parallel pipeline hands every Monte-Carlo
/// sample an RNG derived from `(campaign seed, sample index)`, and
/// bit-identical campaigns at any worker count follow because no backend
/// draws randomness from anywhere else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// SRAM voltage-scaling failures.
    Sram(SramVddBackend),
    /// DRAM/eDRAM retention failures.
    Dram(DramRetentionBackend),
    /// MLC NVM read errors.
    Mlc(MlcNvmBackend),
}

impl Backend {
    /// Which technology this backend models.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Sram(_) => BackendKind::Sram,
            Backend::Dram(_) => BackendKind::Dram,
            Backend::Mlc(_) => BackendKind::Mlc,
        }
    }

    /// Builds the backend of the given kind whose operating point is
    /// calibrated to reach the marginal per-cell fault probability `p_cell`
    /// — the knob that makes cross-technology comparisons fault-density
    /// matched.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when `p_cell` is outside the
    /// range the technology's law can reach.
    pub fn at_p_cell(
        kind: BackendKind,
        config: MemoryConfig,
        p_cell: f64,
    ) -> Result<Self, MemError> {
        match kind {
            BackendKind::Sram => Ok(Backend::Sram(SramVddBackend::with_p_cell(config, p_cell)?)),
            BackendKind::Dram => Ok(Backend::Dram(DramRetentionBackend::with_p_cell(
                config, p_cell,
            )?)),
            BackendKind::Mlc => Ok(Backend::Mlc(MlcNvmBackend::with_p_cell(config, p_cell)?)),
        }
    }

    /// Replaces the backend's fault-kind law, whichever technology it
    /// models — the runtime-dispatch mirror of the per-backend
    /// `with_kind_law` constructors, used by the `--kind-law` CLI axis.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when the law's parameters
    /// are out of range.
    pub fn with_kind_law(self, kind_law: FaultKindLaw) -> Result<Self, MemError> {
        Ok(match self {
            Backend::Sram(b) => Backend::Sram(b.with_kind_law(kind_law)?),
            Backend::Dram(b) => Backend::Dram(b.with_kind_law(kind_law)?),
            Backend::Mlc(b) => Backend::Mlc(b.with_kind_law(kind_law)?),
        })
    }

    /// Builds the backend of the given kind at its reference operating point
    /// (nominal-minus-margin voltage for SRAM, 64 ms refresh at 45 °C for
    /// DRAM, one-day drift for MLC NVM).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors (none occur for a valid
    /// geometry).
    pub fn reference(kind: BackendKind, config: MemoryConfig) -> Result<Self, MemError> {
        match kind {
            BackendKind::Sram => Ok(Backend::Sram(SramVddBackend::at_vdd(
                config,
                crate::failure_model::CellFailureModel::default_28nm(),
                0.75,
            )?)),
            BackendKind::Dram => Ok(Backend::Dram(DramRetentionBackend::new(
                config, 64.0, 45.0,
            )?)),
            BackendKind::Mlc => Ok(Backend::Mlc(MlcNvmBackend::new(config, 12.0, 86_400.0)?)),
        }
    }

    /// Short technology name (`"sram-vdd"`, `"dram-retention"`, `"mlc-nvm"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Memory geometry the backend generates fault maps for.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        match self {
            Backend::Sram(b) => b.config(),
            Backend::Dram(b) => b.config(),
            Backend::Mlc(b) => b.config(),
        }
    }

    /// Marginal per-cell fault probability at the current operating point.
    #[must_use]
    pub fn p_cell(&self) -> f64 {
        match self {
            Backend::Sram(b) => b.p_cell(),
            Backend::Dram(b) => b.p_cell(),
            Backend::Mlc(b) => b.p_cell(),
        }
    }

    /// The operating point the failure law was evaluated at.
    #[must_use]
    pub fn operating_point(&self) -> OperatingPoint {
        match self {
            Backend::Sram(b) => b.operating_point(),
            Backend::Dram(b) => b.operating_point(),
            Backend::Mlc(b) => b.operating_point(),
        }
    }

    /// Draws a fault map with exactly `n_faults` faulty cells, placed
    /// according to the technology's spatial law, into a reusable
    /// [`DieScratch`] arena — the one way a die is drawn. Every placement
    /// writes the arena's own buffers, so steady-state generation never
    /// allocates.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] when `n_faults` exceeds the
    /// cell count.
    pub fn sample_into(
        &self,
        rng: &mut StdRng,
        n_faults: usize,
        scratch: &mut DieScratch,
    ) -> Result<(), MemError> {
        match self {
            Backend::Sram(b) => b.sample_into(rng, n_faults, scratch),
            Backend::Dram(b) => b.sample_into(rng, n_faults, scratch),
            Backend::Mlc(b) => b.sample_into(rng, n_faults, scratch),
        }
    }

    /// Draws a fault map with exactly `n_faults` faults into a fresh arena
    /// and returns it: [`Backend::sample_into`] for one-off draws,
    /// consuming the RNG identically. Records no metrics.
    ///
    /// # Errors
    ///
    /// Same contract as [`Backend::sample_into`].
    pub fn sample_with_count(
        &self,
        rng: &mut StdRng,
        n_faults: usize,
    ) -> Result<FaultMap, MemError> {
        let mut scratch = DieScratch::new(self.config());
        self.sample_into(rng, n_faults, &mut scratch)?;
        Ok(scratch.into_map())
    }

    /// Distribution of the die failure count `N` implied by the per-cell
    /// law (binomial over the marginal `p_cell`; for spatially correlated
    /// backends this is the matched-marginal approximation used to weight
    /// Monte-Carlo samples).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidProbability`] when the backend's `p_cell`
    /// is outside `[0, 1]`.
    pub fn failure_distribution(&self) -> Result<FailureCountDistribution, MemError> {
        FailureCountDistribution::for_memory(self.config(), self.p_cell())
    }
}

/// Places `n_faults` distinct faults into `scratch` by repeatedly proposing
/// cells from `propose` (the backend's spatial law), falling back to
/// uniform rejection sampling when a proposal streak keeps hitting occupied
/// cells — this guarantees the exact count and termination for every
/// density up to a full array. Each placed cell draws its kind right away;
/// occupancy and kinds live in the arena's cell bitmap, which loads the
/// arena's map in one ordered pass.
pub(crate) fn place_distinct<R, P>(
    config: MemoryConfig,
    rng: &mut R,
    n_faults: usize,
    kind_law: FaultKindLaw,
    mut propose: P,
    scratch: &mut DieScratch,
) -> Result<(), MemError>
where
    R: Rng + ?Sized,
    P: FnMut(&mut R) -> (usize, usize),
{
    const MAX_PROPOSALS_PER_FAULT: usize = 16;
    let total = config.total_cells();
    if n_faults > total {
        return Err(MemError::InvalidParameter {
            reason: format!("cannot place {n_faults} faults in {total} cells"),
        });
    }
    scratch.start_die(config);
    let cells = &mut scratch.cells;
    for _ in 0..n_faults {
        let mut placed = false;
        for _ in 0..MAX_PROPOSALS_PER_FAULT {
            let (row, col) = propose(rng);
            let cell = config.cell_index(row, col);
            if cells.insert(cell) {
                cells.set_kind(cell, kind_law.sample(rng));
                placed = true;
                break;
            }
        }
        if !placed {
            // Uniform fallback over the remaining free cells.
            loop {
                let cell = rng.gen_range(0..total);
                if cells.insert(cell) {
                    cells.set_kind(cell, kind_law.sample(rng));
                    break;
                }
            }
        }
    }
    scratch.finish_die();
    Ok(())
}

/// Allocating hash-set placements: test oracles for the arena's bitmap
/// placement that share none of its bookkeeping. Each consumes the RNG as
/// the backend's [`Backend::sample_into`] does, tracks taken cells in a
/// `HashSet` and sorts its faults.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Backend, FaultKindLaw};
    use crate::config::MemoryConfig;
    use crate::fault::{Fault, FaultMap};
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::HashSet;

    /// The reference draw of `backend`'s placement.
    pub(crate) fn sample(backend: &Backend, rng: &mut StdRng, n_faults: usize) -> FaultMap {
        match backend {
            Backend::Sram(b) => floyd(b.config(), b.kind_law(), rng, n_faults),
            Backend::Dram(b) => rejection(b.config(), b.kind_law, rng, n_faults, b.proposer()),
            Backend::Mlc(b) => rejection(b.config(), b.kind_law, rng, n_faults, b.proposer()),
        }
    }

    /// SRAM: `rand`'s hash-set Floyd sampler, sorted, then — under a
    /// stuck-at law — one kind draw per fault in map order.
    fn floyd(
        config: MemoryConfig,
        kind_law: FaultKindLaw,
        rng: &mut StdRng,
        n_faults: usize,
    ) -> FaultMap {
        let mut cells = rand::seq::index::sample(rng, config.total_cells(), n_faults).into_vec();
        cells.sort_unstable();
        let mut faults: Vec<Fault> = cells
            .into_iter()
            .map(|cell| {
                let (row, col) = config.cell_position(cell);
                Fault::bit_flip(row, col)
            })
            .collect();
        if !matches!(kind_law, FaultKindLaw::AlwaysFlip) {
            for fault in &mut faults {
                fault.kind = kind_law.sample(rng);
            }
        }
        FaultMap::from_faults(config, faults).expect("cells lie inside the array")
    }

    /// DRAM and MLC: up to 16 proposals of the backend's spatial law per
    /// fault, then uniform draws, until a cell not yet in the set turns up;
    /// each placed cell draws its kind right away.
    fn rejection(
        config: MemoryConfig,
        kind_law: FaultKindLaw,
        rng: &mut StdRng,
        n_faults: usize,
        mut propose: impl FnMut(&mut StdRng) -> (usize, usize),
    ) -> FaultMap {
        let total = config.total_cells();
        let mut taken = HashSet::new();
        let mut faults = Vec::new();
        for _ in 0..n_faults {
            let proposed = (0..16)
                .map(|_| {
                    let (row, col) = propose(rng);
                    config.cell_index(row, col)
                })
                .find(|&cell| taken.insert(cell));
            let cell = proposed.unwrap_or_else(|| loop {
                let cell = rng.gen_range(0..total);
                if taken.insert(cell) {
                    break cell;
                }
            });
            let (row, col) = config.cell_position(cell);
            faults.push(Fault::new(row, col, kind_law.sample(rng)));
        }
        FaultMap::from_faults(config, faults).expect("cells lie inside the array")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(64, 32).unwrap()
    }

    #[test]
    fn backend_kind_parses_aliases() {
        assert_eq!("sram".parse::<BackendKind>().unwrap(), BackendKind::Sram);
        assert_eq!(
            "SRAM-VDD".parse::<BackendKind>().unwrap(),
            BackendKind::Sram
        );
        assert_eq!("dram".parse::<BackendKind>().unwrap(), BackendKind::Dram);
        assert_eq!("edram".parse::<BackendKind>().unwrap(), BackendKind::Dram);
        assert_eq!("mlc".parse::<BackendKind>().unwrap(), BackendKind::Mlc);
        assert_eq!("nvm".parse::<BackendKind>().unwrap(), BackendKind::Mlc);
        assert!("flash".parse::<BackendKind>().is_err());
    }

    #[test]
    fn backend_enum_dispatch_matches_inner_backend() {
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            assert_eq!(backend.kind(), kind);
            assert_eq!(backend.name(), kind.name());
            assert_eq!(backend.config(), config());
            assert!(
                (backend.p_cell().log10() - (-3.0)).abs() < 0.05,
                "{kind}: p_cell = {}",
                backend.p_cell()
            );
            let dist = backend.failure_distribution().unwrap();
            assert!((dist.p_cell() - backend.p_cell()).abs() < 1e-15);
        }
    }

    #[test]
    fn reference_operating_points_are_valid() {
        for kind in BackendKind::ALL {
            let backend = Backend::reference(kind, config()).unwrap();
            let p = backend.p_cell();
            assert!(p > 0.0 && p < 1.0, "{kind}: p_cell = {p}");
            assert!(!backend.operating_point().label().is_empty());
        }
    }

    #[test]
    fn every_backend_samples_exact_counts_deterministically() {
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            for &n in &[0usize, 1, 7, 64, 500] {
                let mut rng_a = StdRng::seed_from_u64(9);
                let mut rng_b = StdRng::seed_from_u64(9);
                let a = backend.sample_with_count(&mut rng_a, n).unwrap();
                let b = backend.sample_with_count(&mut rng_b, n).unwrap();
                assert_eq!(a.fault_count(), n, "{kind} with {n} faults");
                assert_eq!(
                    a.iter().collect::<Vec<_>>(),
                    b.iter().collect::<Vec<_>>(),
                    "{kind} with {n} faults is not RNG-deterministic"
                );
            }
        }
    }

    #[test]
    fn backends_reject_overfull_requests() {
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, MemoryConfig::new(2, 8).unwrap(), 1e-3).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            assert!(backend.sample_with_count(&mut rng, 17).is_err(), "{kind}");
            assert_eq!(
                backend
                    .sample_with_count(&mut rng, 16)
                    .unwrap()
                    .fault_count(),
                16,
                "{kind} must fill the whole array"
            );
        }
    }

    #[test]
    fn operating_point_labels_and_values() {
        let op = OperatingPoint::SramVdd { vdd: 0.8 };
        assert_eq!(op.label(), "Vdd=0.80V");
        assert_eq!(op.primary_value(), 0.8);
        let op = OperatingPoint::DramRetention {
            refresh_interval_ms: 64.0,
            temperature_c: 45.0,
        };
        assert!(op.label().contains("64ms"));
        assert_eq!(op.primary_value(), 64.0);
        let op = OperatingPoint::MlcNvm {
            level_spacing_sigma: 12.0,
            drift_time_s: 86_400.0,
        };
        assert!(op.label().contains("12.0sigma"));
        assert_eq!(op.to_string(), op.label());
    }

    #[test]
    fn fault_kind_law_validation_and_sampling() {
        assert!(FaultKindLaw::AlwaysFlip.validate().is_ok());
        assert!(FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 0.75
        }
        .validate()
        .is_ok());
        assert!(FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 1.5
        }
        .validate()
        .is_err());

        let mut rng = StdRng::seed_from_u64(5);
        let law = FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 0.75,
        };
        let zeros = (0..4000)
            .filter(|_| law.sample(&mut rng) == FaultKind::StuckAtZero)
            .count();
        assert!(
            (zeros as f64 / 4000.0 - 0.75).abs() < 0.03,
            "stuck-at-zero fraction {}",
            zeros as f64 / 4000.0
        );
    }

    #[test]
    fn fault_kind_laws_round_trip_through_the_cli_notation() {
        for law in [
            FaultKindLaw::AlwaysFlip,
            FaultKindLaw::RandomStuckAt,
            FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.9,
            },
            FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 1.0 / 3.0,
            },
        ] {
            let round: FaultKindLaw = law.to_string().parse().unwrap();
            assert_eq!(round, law, "{law} does not round-trip");
        }
        assert_eq!(
            "FLIP".parse::<FaultKindLaw>().unwrap(),
            FaultKindLaw::AlwaysFlip
        );
        assert_eq!(
            "random-stuck-at".parse::<FaultKindLaw>().unwrap(),
            FaultKindLaw::RandomStuckAt
        );
        assert_eq!(
            "stuck-at:0.25".parse::<FaultKindLaw>().unwrap(),
            FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.25
            }
        );
        assert!("stuck-at:1.5".parse::<FaultKindLaw>().is_err());
        assert!("stuck-at:x".parse::<FaultKindLaw>().is_err());
        assert!("decay".parse::<FaultKindLaw>().is_err());
    }

    #[test]
    fn fault_kind_law_equality_is_reflexive_even_for_hand_built_nan() {
        // Bitwise probability comparison keeps Eq's reflexivity contract
        // for laws built without going through validation.
        let nan = FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: f64::NAN,
        };
        assert_eq!(nan, nan);
        assert_ne!(
            nan,
            FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.5
            }
        );
        assert_ne!(FaultKindLaw::AlwaysFlip, FaultKindLaw::RandomStuckAt);
    }

    #[test]
    fn backend_enum_forwards_kind_laws_to_every_technology() {
        let law = FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 1.0,
        };
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3)
                .unwrap()
                .with_kind_law(law)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(21);
            let map = backend.sample_with_count(&mut rng, 40).unwrap();
            assert!(
                map.iter().all(|f| f.kind == FaultKind::StuckAtZero),
                "{kind} ignored the kind law"
            );
            assert!(Backend::at_p_cell(kind, config(), 1e-3)
                .unwrap()
                .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                    p_stuck_at_zero: 2.0
                })
                .is_err());
        }
    }
}
