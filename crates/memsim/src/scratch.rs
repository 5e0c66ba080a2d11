//! Reusable per-worker scratch storage for allocation-free die generation.
//!
//! Each Monte-Carlo worker owns one arena: a [`DieScratch`] for per-sample
//! generation (the warm [`FaultMap`] plus the one auxiliary container the
//! backends' samplers need — a cell bitmap serving as Floyd's chosen set
//! for iid placement and as the occupancy set for rejection placement,
//! which also keeps each fault's kind), or a
//! [`BlockScratch`] when the bit-sliced kernel runs, which wraps a
//! `DieScratch` and adds the transposition buffers for one [`DieBlock`] of
//! up to [`BLOCK_DIES`] dies. After a short warm-up the
//! containers reach their high-water capacities and steady-state die
//! generation performs **zero heap allocations** — the arena is cleared,
//! never dropped, between dies. The [`DieScratch::realloc_events`] /
//! [`BlockScratch::realloc_events`] counters make that claim testable: they
//! increment whenever a generation call grows any tracked container, so a
//! regression test can pin them flat across a long campaign tail.

use crate::backend::Backend;
use crate::config::MemoryConfig;
use crate::dieblock::{
    pack_event, transpose_events, BlockRowEntry, DieBlock, LaneCell, BLOCK_DIES,
};
use crate::error::MemError;
use crate::fault::{Fault, FaultMap};
use crate::floyd::CellBitmap;
use crate::seeder::{PlannedSample, StreamSeeder};
use faultmit_obs as obs;
use rand::rngs::StdRng;

/// How many times [`MapPolicy::SingleFaultPerRow`] redraws a die that still
/// places two faults in one row before it keeps the last draw. The bound
/// keeps extreme fault densities from looping forever; under the iid SRAM
/// backend at Fig. 7 densities a redraw virtually always succeeds long
/// before it.
pub const MAX_REDRAWS: usize = 1_000;

/// Which drawn dies a campaign keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapPolicy {
    /// Keep every drawn die (the Fig. 5 protocol).
    #[default]
    Unrestricted,
    /// Redraw, on the same RNG and up to [`MAX_REDRAWS`] times, a die that
    /// places more than one fault in a single row — the Fig. 7 protocol,
    /// under which SECDED is error-free.
    ///
    /// The filter is **best-effort**: when the budget is exhausted the last
    /// die is kept even if it still has multi-fault rows. Spatially
    /// structured backends (clustered DRAM retention) collide by
    /// construction, so at higher fault counts most kept dies retain
    /// multi-fault rows and word-level ECC is *not* error-free — an expected
    /// property of those technologies, not a sampling artefact.
    SingleFaultPerRow,
}

/// A reusable arena for sampling one die at a time without steady-state
/// heap allocation.
///
/// Create one per worker thread ([`DieScratch::new`]), then call
/// [`DieScratch::generate_with_policy`] once per die. The resulting
/// [`FaultMap`] view is borrowed from the arena and valid until the next
/// generation call.
#[derive(Debug)]
pub struct DieScratch {
    /// The die's fault map, cleared (capacity kept) between generations.
    pub(crate) map: FaultMap,
    /// The faults of the die being placed, with their kinds — Floyd's
    /// chosen set for iid placement, the occupancy set for rejection
    /// placement. Empty between dies: [`DieScratch::finish_die`] drains it.
    pub(crate) cells: CellBitmap,
    realloc_events: u64,
}

impl DieScratch {
    /// Creates an empty (cold) arena for dies of the given geometry.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self {
            map: FaultMap::new(config),
            cells: CellBitmap::default(),
            realloc_events: 0,
        }
    }

    /// The most recently generated die.
    #[must_use]
    pub fn map(&self) -> &FaultMap {
        &self.map
    }

    /// The arena's map, by value.
    pub(crate) fn into_map(self) -> FaultMap {
        self.map
    }

    /// How many generation calls grew a tracked container. Flat after
    /// warm-up ⇔ steady-state die generation is allocation-free.
    #[must_use]
    pub fn realloc_events(&self) -> u64 {
        self.realloc_events
    }

    /// Starts placing a die of geometry `config`: an empty map (capacity
    /// kept when the geometry is unchanged) and a cell set sized for the
    /// array.
    pub(crate) fn start_die(&mut self, config: MemoryConfig) {
        if self.map.config() == config {
            self.map.clear();
        } else {
            self.map = FaultMap::new(config);
        }
        self.cells.reserve(config.total_cells());
    }

    /// Finishes the die [`DieScratch::start_die`] began: drains its faults
    /// from the cell set in ascending cell order, which is `(row, col)`
    /// order, into the map, leaving the set empty for the next die.
    pub(crate) fn finish_die(&mut self) {
        let config = self.map.config();
        let map = &mut self.map;
        self.cells.drain(|cell, kind| {
            let (row, col) = config.cell_position(cell);
            map.push_in_order(Fault::new(row, col, kind));
        });
    }

    fn capacity_signature(&self) -> [usize; 2] {
        [self.map.capacity(), self.cells.capacity()]
    }

    /// Generates one die with exactly `n_faults` faults into the arena under
    /// `policy`, redrawing it on the same RNG while the policy rejects it,
    /// and records the die in the observability counters — the one die
    /// draw of every campaign kernel.
    ///
    /// # Errors
    ///
    /// Propagates the backend's sampling errors (e.g. `n_faults` exceeding
    /// the cell count).
    pub fn generate_with_policy(
        &mut self,
        backend: &Backend,
        rng: &mut StdRng,
        n_faults: usize,
        policy: MapPolicy,
    ) -> Result<&FaultMap, MemError> {
        let before = self.capacity_signature();
        backend.sample_into(rng, n_faults, self)?;
        if policy == MapPolicy::SingleFaultPerRow {
            for _ in 0..MAX_REDRAWS {
                if self.map.max_faults_per_row() <= 1 {
                    break;
                }
                backend.sample_into(rng, n_faults, self)?;
            }
        }
        if self.capacity_signature() != before {
            self.realloc_events += 1;
            obs::count(obs::Counter::ReallocEvents, 1);
        }
        obs::count(obs::Counter::DiesGenerated, 1);
        obs::count(obs::Counter::FaultsGenerated, n_faults as u64);
        obs::record(obs::Histogram::FaultsPerDie, n_faults as u64);
        Ok(&self.map)
    }
}

/// A reusable arena for generating transposed [`DieBlock`]s of up to
/// [`BLOCK_DIES`] dies, wrapping a [`DieScratch`] for the per-sample draws.
///
/// Create one per worker thread ([`BlockScratch::new`]) and call
/// [`BlockScratch::generate_block`] once per block; the returned
/// [`DieBlock`] view borrows the arena and is valid until the next
/// generation call. The inner scratch is reachable through
/// [`BlockScratch::scalar_mut`] for the campaign executor's per-sample
/// tail, so one arena serves both paths of a mixed block/scalar shard.
#[derive(Debug)]
pub struct BlockScratch {
    /// The per-sample arena every planned die is drawn into.
    scalar: DieScratch,
    /// Packed `(row, col, die, kind)` events for block transposition.
    events: Vec<u64>,
    /// Transposed lane cells backing the current [`DieBlock`] view.
    cells: Vec<LaneCell>,
    /// Row directory backing the current [`DieBlock`] view.
    rows: Vec<BlockRowEntry>,
    realloc_events: u64,
}

impl BlockScratch {
    /// Creates an empty (cold) block arena for dies of the given geometry.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self {
            scalar: DieScratch::new(config),
            events: Vec::new(),
            cells: Vec::new(),
            rows: Vec::new(),
            realloc_events: 0,
        }
    }

    /// Mutable access to the wrapped per-sample arena — the campaign
    /// executor's scalar tail generates lone samples through it.
    pub fn scalar_mut(&mut self) -> &mut DieScratch {
        &mut self.scalar
    }

    /// How many generation calls (block or scalar) grew a tracked
    /// container. Flat after warm-up ⇔ steady-state block generation is
    /// allocation-free.
    #[must_use]
    pub fn realloc_events(&self) -> u64 {
        self.realloc_events + self.scalar.realloc_events()
    }

    /// The transposition buffers' capacities; the wrapped arena counts its
    /// own growth.
    fn capacity_signature(&self) -> [usize; 3] {
        [
            self.events.capacity(),
            self.cells.capacity(),
            self.rows.capacity(),
        ]
    }

    /// Generates up to [`BLOCK_DIES`] planned samples into one transposed
    /// [`DieBlock`]: die `j` of the block is `plan[j]`, drawn by
    /// [`DieScratch::generate_with_policy`] under `policy` (`None` is
    /// [`MapPolicy::Unrestricted`]) with the *same* RNG stream
    /// ([`StreamSeeder::rng_for_sample`]) as the sparse kernel, then
    /// transposed into per-cell lanes. The view borrows the arena and is
    /// valid until the next generation call.
    ///
    /// # Errors
    ///
    /// Rejects plans longer than [`BLOCK_DIES`] samples and propagates the
    /// backend's sampling errors.
    pub fn generate_block(
        &mut self,
        backend: &Backend,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
        policy: Option<MapPolicy>,
    ) -> Result<DieBlock<'_>, MemError> {
        check_block_width(plan.len())?;
        let policy = policy.unwrap_or_default();
        let before = self.capacity_signature();
        self.events.clear();
        for (die, planned) in plan.iter().enumerate() {
            let mut rng = seeder.rng_for_sample(planned.index);
            let map = self.scalar.generate_with_policy(
                backend,
                &mut rng,
                planned.n_faults as usize,
                policy,
            )?;
            push_events(&mut self.events, die, map);
        }
        Ok(self.transpose(plan.len(), before))
    }

    /// Transposes dies the caller holds into one [`DieBlock`], die `j` of
    /// the block being `dies[j]`, as [`generate_block`](Self::generate_block)
    /// transposes the dies it draws. The view borrows the arena and is
    /// valid until the next generation call.
    ///
    /// # Errors
    ///
    /// Rejects more than [`BLOCK_DIES`] dies, and dies whose geometry is
    /// not the arena's.
    pub fn transpose_maps(&mut self, dies: &[FaultMap]) -> Result<DieBlock<'_>, MemError> {
        check_block_width(dies.len())?;
        let config = self.scalar.map.config();
        if let Some(map) = dies.iter().find(|map| map.config() != config) {
            return Err(MemError::InvalidParameter {
                reason: format!("a die of {:?} in a block of {config:?} dies", map.config()),
            });
        }
        let before = self.capacity_signature();
        self.events.clear();
        for (die, map) in dies.iter().enumerate() {
            push_events(&mut self.events, die, map);
        }
        Ok(self.transpose(dies.len(), before))
    }

    /// Sorts the packed events of `dies` dies into the block view, counting
    /// the block and any growth of the buffers since `before`.
    fn transpose(&mut self, dies: usize, before: [usize; 3]) -> DieBlock<'_> {
        let transpose_span = obs::span(obs::Stage::Transpose);
        // Events arrive die-major; the packed layout sorts to the
        // `(row, col, die)` order the transposition reads.
        self.events.sort_unstable();
        transpose_events(&self.events, &mut self.cells, &mut self.rows);
        drop(transpose_span);
        obs::count(obs::Counter::BlocksTransposed, 1);
        if self.capacity_signature() != before {
            self.realloc_events += 1;
            obs::count(obs::Counter::ReallocEvents, 1);
        }
        DieBlock::new(&self.rows, &self.cells, dies, self.scalar.map.config())
    }
}

/// Refuses a block of more than [`BLOCK_DIES`] dies.
fn check_block_width(dies: usize) -> Result<(), MemError> {
    if dies > BLOCK_DIES {
        return Err(MemError::InvalidParameter {
            reason: format!(
                "die block plan of {dies} samples exceeds the {BLOCK_DIES}-die block width"
            ),
        });
    }
    Ok(())
}

/// Packs die `die`'s faults as transposition events.
fn push_events(events: &mut Vec<u64>, die: usize, map: &FaultMap) {
    events.extend(
        map.iter()
            .map(|fault| pack_event(fault.row, fault.col, die, fault.kind)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{reference, Backend, BackendKind, FaultKindLaw};
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(128, 32).unwrap()
    }

    #[test]
    fn scratch_generation_is_bit_identical_under_stuck_at_laws() {
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3)
                .unwrap()
                .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                    p_stuck_at_zero: 0.7,
                })
                .unwrap();
            let mut scratch = DieScratch::new(config());
            for seed in 0..8u64 {
                let mut rng_scratch = StdRng::seed_from_u64(seed);
                let mut rng_fresh = StdRng::seed_from_u64(seed);
                let fresh = reference::sample(&backend, &mut rng_fresh, 25);
                let reused = scratch
                    .generate_with_policy(&backend, &mut rng_scratch, 25, MapPolicy::Unrestricted)
                    .unwrap();
                assert_eq!(reused, &fresh, "{kind}, seed {seed}");
            }
        }
    }

    #[test]
    fn scratch_generation_matches_the_hash_set_references_at_every_density() {
        // One warm arena, reused across backends, kind laws, geometries and
        // amounts from empty through dense to the full array. The
        // references sort their faults; the arena drains its cell bitmap,
        // so equal maps mean the drained order is the sorted order, kinds
        // included (SRAM re-kinds after placement, DRAM and MLC draw a kind
        // per placed cell). The bitmap and its summary must come back empty
        // after every die, or a later die would see phantom occupied cells
        // and diverge from the reference. Equal RNG states afterwards mean
        // equal consumption.
        use rand::Rng;
        let laws = [
            FaultKindLaw::AlwaysFlip,
            FaultKindLaw::RandomStuckAt,
            FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.3,
            },
        ];
        let mut scratch = DieScratch::new(config());
        let mut check = |backend: &Backend, seed: u64, amount: usize, context: &str| {
            let mut rng_fresh = StdRng::seed_from_u64(seed);
            let mut rng_scratch = StdRng::seed_from_u64(seed);
            let fresh = reference::sample(backend, &mut rng_fresh, amount);
            let reused = scratch
                .generate_with_policy(backend, &mut rng_scratch, amount, MapPolicy::Unrestricted)
                .unwrap();
            assert_eq!(reused, &fresh, "{context}");
            assert_eq!(
                rng_scratch.gen::<u64>(),
                rng_fresh.gen::<u64>(),
                "{context}"
            );
            assert!(scratch.cells.is_empty(), "{context}: marks left");
        };
        for geometry in [
            MemoryConfig::new(16, 32).unwrap(),
            MemoryConfig::new(8, 24).unwrap(),
        ] {
            let cells = geometry.total_cells();
            for amount in [0, 1, cells / 16, cells / 2, cells, 3] {
                for kind in BackendKind::ALL {
                    for law in laws {
                        let backend = Backend::at_p_cell(kind, geometry, 1e-2)
                            .unwrap()
                            .with_kind_law(law)
                            .unwrap();
                        let seed = amount as u64 * 31 + kind as u64;
                        check(
                            &backend,
                            seed,
                            amount,
                            &format!("{kind} {law} {amount} of {cells} cells"),
                        );
                    }
                }
            }
        }
        // Sparse dies at campaign density on a larger array.
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            for seed in 0..12u64 {
                let amount = (seed as usize * 3) % 40;
                check(&backend, seed, amount, &format!("{kind}, seed {seed}"));
            }
        }
    }

    #[test]
    fn steady_state_generation_performs_no_reallocation() {
        for kind in BackendKind::ALL {
            for law in [FaultKindLaw::AlwaysFlip, FaultKindLaw::RandomStuckAt] {
                let backend = Backend::at_p_cell(kind, config(), 1e-3)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                let mut scratch = DieScratch::new(config());
                let mut rng = StdRng::seed_from_u64(7);
                // Warm-up: containers grow to their high-water capacities.
                for n in [40usize, 40, 40, 40] {
                    scratch
                        .generate_with_policy(&backend, &mut rng, n, MapPolicy::Unrestricted)
                        .unwrap();
                }
                let warm = scratch.realloc_events();
                // Steady state at or below the high-water fault count: no
                // growth over a long campaign tail.
                for i in 0..2000usize {
                    scratch
                        .generate_with_policy(&backend, &mut rng, i % 41, MapPolicy::Unrestricted)
                        .unwrap();
                }
                assert_eq!(
                    scratch.realloc_events(),
                    warm,
                    "{kind} {law}: steady-state die generation reallocated"
                );
                assert!(scratch.cells.is_empty(), "{kind} {law}: marks left");
            }
        }
    }

    #[test]
    fn steady_state_block_generation_performs_no_reallocation() {
        use crate::seeder::{PlannedSample, StreamSeeder};
        let seeder = StreamSeeder::new(0x1D1E);
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            let mut scratch = BlockScratch::new(config());
            let plan_at = |start: u64, n_faults: u64| -> Vec<PlannedSample> {
                (0..BLOCK_DIES as u64)
                    .map(|j| PlannedSample {
                        index: start + j,
                        n_faults,
                    })
                    .collect()
            };
            // Warm-up: containers grow to their high-water capacities.
            let lanes = BLOCK_DIES as u64;
            for round in 0..4u64 {
                scratch
                    .generate_block(&backend, &seeder, &plan_at(round * lanes, 40), None)
                    .unwrap();
            }
            let warm = scratch.realloc_events();
            // Steady state at or below the high-water fault count.
            for round in 0..32u64 {
                scratch
                    .generate_block(
                        &backend,
                        &seeder,
                        &plan_at((4 + round) * lanes, 1 + round % 40),
                        None,
                    )
                    .unwrap();
            }
            assert_eq!(
                scratch.realloc_events(),
                warm,
                "{kind}: steady-state block generation reallocated"
            );
        }
    }

    #[test]
    fn overfull_requests_error_through_the_scratch_path() {
        let small = MemoryConfig::new(4, 8).unwrap();
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, small, 1e-2).unwrap();
            let mut scratch = DieScratch::new(small);
            let mut rng = StdRng::seed_from_u64(1);
            assert!(
                scratch
                    .generate_with_policy(&backend, &mut rng, 33, MapPolicy::Unrestricted)
                    .is_err(),
                "{kind}: 33 faults in 32 cells must be rejected"
            );
            // The arena stays usable after a rejected request.
            assert!(
                scratch
                    .generate_with_policy(&backend, &mut rng, 32, MapPolicy::Unrestricted)
                    .is_ok(),
                "{kind}"
            );
            assert_eq!(scratch.map().fault_count(), 32, "{kind}");
        }
    }

    #[test]
    fn single_fault_per_row_redraw_matches_the_seeder_protocol() {
        // The reference: draw through the hash-set placement and redraw, on
        // the same RNG, while a row holds two faults, at most MAX_REDRAWS
        // times. Clustered DRAM dies exhaust the budget and keep their last
        // draw.
        let seeder = StreamSeeder::new(99);
        let mut scratch = DieScratch::new(config());
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            for index in 0..24u64 {
                let mut rng = seeder.rng_for_sample(index);
                let mut expected = reference::sample(&backend, &mut rng, 20);
                for _ in 0..MAX_REDRAWS {
                    if expected.max_faults_per_row() <= 1 {
                        break;
                    }
                    expected = reference::sample(&backend, &mut rng, 20);
                }
                let mut rng = seeder.rng_for_sample(index);
                let map = scratch
                    .generate_with_policy(&backend, &mut rng, 20, MapPolicy::SingleFaultPerRow)
                    .unwrap();
                assert_eq!(map, &expected, "{kind}, sample {index}");
            }
        }
    }
}
