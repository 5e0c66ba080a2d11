//! Reusable per-worker scratch storage for allocation-free die generation.
//!
//! Each Monte-Carlo worker owns one arena: a [`DieScratch`] for per-sample
//! generation (the warm [`FaultMap`] plus every auxiliary container the
//! backends' samplers need — one cell bitmap serving as Floyd's chosen set
//! for iid placement and as the occupancy set for rejection placement, and
//! the die's packed sort keys), or a
//! [`BlockScratch`] when the bit-sliced kernel runs, which wraps a
//! `DieScratch` and adds the transposition buffers for one [`DieBlock`] of
//! up to [`BLOCK_DIES`] dies. After a short warm-up the
//! containers reach their high-water capacities and steady-state die
//! generation performs **zero heap allocations** — the arena is cleared,
//! never dropped, between dies. The [`DieScratch::realloc_events`] /
//! [`BlockScratch::realloc_events`] counters make that claim testable: they
//! increment whenever a generation call grows any tracked container, so a
//! regression test can pin them flat across a long campaign tail.

use crate::backend::FaultBackend;
use crate::config::MemoryConfig;
use crate::dieblock::{
    event_sort_key, pack_event, transpose_events, BlockRowEntry, DieBlock, LaneCell, BLOCK_DIES,
};
use crate::error::MemError;
use crate::fault::{Fault, FaultKind, FaultMap};
use crate::floyd::CellBitmap;
use crate::seeder::{PlannedSample, StreamSeeder};
use faultmit_obs as obs;
use rand::rngs::StdRng;

/// A reusable arena for sampling one die at a time without steady-state
/// heap allocation.
///
/// Create one per worker thread ([`DieScratch::new`]), then call
/// [`DieScratch::generate`] (or
/// [`DieScratch::generate_single_fault_per_row`]) once per die. The
/// resulting [`FaultMap`] view is borrowed from the arena and valid until
/// the next generation call. RNG consumption is bit-identical to the
/// allocating [`FaultBackend::sample_with_count`] path, so campaigns built
/// on scratch reuse reproduce the legacy results exactly.
#[derive(Debug)]
pub struct DieScratch {
    /// The die's fault map, cleared (capacity kept) between generations.
    pub(crate) map: FaultMap,
    /// The cells of the die being placed — Floyd's chosen set for iid
    /// placement, the occupancy set for rejection placement. Empty between
    /// dies: [`DieScratch::finish_die`] clears exactly the die's cells.
    pub(crate) cells: CellBitmap,
    /// The die's faults as sort keys, `cell index << 2 | kind code`: cell
    /// indices order like `(row, col)`, so sorting the keys orders the
    /// faults without moving `Fault` structs.
    pub(crate) keys: Vec<u64>,
    realloc_events: u64,
}

/// The sort key of a fault at cell `cell` (see [`DieScratch::keys`]).
#[inline]
pub(crate) fn fault_key(cell: usize, kind: FaultKind) -> u64 {
    ((cell as u64) << 2) | kind.code()
}

impl DieScratch {
    /// Creates an empty (cold) arena for dies of the given geometry.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self {
            map: FaultMap::new(config),
            cells: CellBitmap::default(),
            keys: Vec::new(),
            realloc_events: 0,
        }
    }

    /// The most recently generated die.
    #[must_use]
    pub fn map(&self) -> &FaultMap {
        &self.map
    }

    /// Consumes the arena, returning the generated map.
    #[must_use]
    pub fn into_map(self) -> FaultMap {
        self.map
    }

    /// Replaces the arena's fault map wholesale. This is the fallback entry
    /// point for custom [`FaultBackend`]s that do not override
    /// [`FaultBackend::sample_into`] — it hands ownership of a freshly
    /// allocated map to the arena (and therefore counts as a realloc event
    /// on every call).
    pub fn replace_map(&mut self, map: FaultMap) {
        self.map = map;
    }

    /// How many generation calls grew a tracked container (or replaced the
    /// map wholesale). Flat after warm-up ⇔ steady-state die generation is
    /// allocation-free.
    #[must_use]
    pub fn realloc_events(&self) -> u64 {
        self.realloc_events
    }

    /// Starts placing a die of geometry `config`: an empty map (capacity
    /// kept when the geometry is unchanged), no keys, and a cell set sized
    /// for the array.
    pub(crate) fn start_die(&mut self, config: MemoryConfig) {
        if self.map.config() == config {
            self.map.clear();
        } else {
            self.map = FaultMap::new(config);
        }
        self.cells.reserve(config.total_cells());
        self.keys.clear();
    }

    /// Finishes the die [`DieScratch::start_die`] began: sorts its keys,
    /// loads the faults into the map in `(row, col)` order and clears their
    /// cells from the cell set, leaving it empty for the next die.
    pub(crate) fn finish_die(&mut self) {
        self.keys.sort_unstable();
        let config = self.map.config();
        for &key in &self.keys {
            let cell = (key >> 2) as usize;
            self.cells.clear_word_of(cell);
            let (row, col) = config.cell_position(cell);
            self.map
                .push_in_order(Fault::new(row, col, FaultKind::from_code(key)));
        }
    }

    pub(crate) fn capacity_signature(&self) -> [usize; 3] {
        [
            self.map.capacity(),
            self.cells.capacity(),
            self.keys.capacity(),
        ]
    }

    /// Generates one die with exactly `n_faults` faults into the arena —
    /// the allocation-free twin of [`FaultBackend::sample_with_count`],
    /// bit-identical at the same RNG state.
    ///
    /// # Errors
    ///
    /// Propagates the backend's sampling errors (e.g. `n_faults` exceeding
    /// the cell count).
    pub fn generate<B: FaultBackend + ?Sized>(
        &mut self,
        backend: &B,
        rng: &mut StdRng,
        n_faults: usize,
    ) -> Result<&FaultMap, MemError> {
        let before = self.capacity_signature();
        backend.sample_into(rng, n_faults, self)?;
        if self.capacity_signature() != before {
            self.realloc_events += 1;
            obs::count(obs::Counter::ReallocEvents, 1);
        }
        obs::count(obs::Counter::DiesGenerated, 1);
        obs::count(obs::Counter::FaultsGenerated, n_faults as u64);
        obs::record(obs::Histogram::FaultsPerDie, n_faults as u64);
        Ok(&self.map)
    }

    /// Generates one die, redrawing it (up to `max_redraws` times) while any
    /// row holds more than one fault — the arena twin of the seeder's
    /// single-fault-per-row protocol, with identical RNG consumption.
    ///
    /// # Errors
    ///
    /// Propagates the backend's sampling errors.
    pub fn generate_single_fault_per_row<B: FaultBackend + ?Sized>(
        &mut self,
        backend: &B,
        rng: &mut StdRng,
        n_faults: usize,
        max_redraws: usize,
    ) -> Result<&FaultMap, MemError> {
        let before = self.capacity_signature();
        backend.sample_into(rng, n_faults, self)?;
        for _ in 0..max_redraws {
            if self.map.max_faults_per_row() <= 1 {
                break;
            }
            backend.sample_into(rng, n_faults, self)?;
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
    /// Bucket directory for the counting sort of dense event batches.
    counts: Vec<u32>,
    /// Scatter target for the counting sort of dense event batches.
    sorted: Vec<u64>,
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
            counts: Vec::new(),
            sorted: Vec::new(),
            cells: Vec::new(),
            rows: Vec::new(),
            realloc_events: 0,
        }
    }

    /// The wrapped per-sample arena.
    #[must_use]
    pub fn scalar(&self) -> &DieScratch {
        &self.scalar
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

    fn capacity_signature(&self) -> [usize; 8] {
        let scalar = self.scalar.capacity_signature();
        // The counting sort swaps the `events` and `sorted` buffers, so
        // record that pair order-independently: a swap of warm buffers is
        // not a reallocation.
        let events = self.events.capacity();
        let sorted = self.sorted.capacity();
        [
            scalar[0],
            scalar[1],
            scalar[2],
            events.min(sorted),
            events.max(sorted),
            self.counts.capacity(),
            self.cells.capacity(),
            self.rows.capacity(),
        ]
    }

    /// Generates up to [`BLOCK_DIES`] planned samples into one transposed
    /// [`DieBlock`]: die `j` of the block is `plan[j]`, generated with the
    /// *same* RNG stream ([`StreamSeeder::rng_for_sample`]) and the same
    /// per-sample protocol (plain, or single-fault-per-row when
    /// `max_redraws` is `Some`) as the scalar and sparse kernels, then
    /// transposed into per-cell lanes. The view borrows the arena and is
    /// valid until the next generation call.
    ///
    /// # Errors
    ///
    /// Rejects plans longer than [`BLOCK_DIES`] samples and propagates the
    /// backend's sampling errors.
    pub fn generate_block<B: FaultBackend + ?Sized>(
        &mut self,
        backend: &B,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
        max_redraws: Option<usize>,
    ) -> Result<DieBlock<'_>, MemError> {
        if plan.len() > BLOCK_DIES {
            return Err(MemError::InvalidParameter {
                reason: format!(
                    "die block plan of {} samples exceeds the {BLOCK_DIES}-die block width",
                    plan.len(),
                ),
            });
        }
        let before = self.capacity_signature();
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let result = self.fill_events(backend, seeder, plan, max_redraws, &mut events);
        self.events = events;
        result?;
        let transpose_span = obs::span(obs::Stage::Transpose);
        // Restore `(row, col, die)` order for transposition. Events arrive
        // die-major with each die already `(row, col)`-sorted, so a stable
        // two-pass counting sort on the `(row, col)` key reproduces the
        // exact `sort_unstable` order in linear time — the win that makes
        // dense blocks affordable. Sparse batches keep the comparison sort,
        // where zeroing the bucket directory would dominate.
        let buckets = self.scalar.map.config().rows() << 6;
        if self.events.len() >= buckets >> 3 {
            self.counts.clear();
            self.counts.resize(buckets, 0);
            for &event in &self.events {
                self.counts[event_sort_key(event)] += 1;
            }
            let mut offset = 0u32;
            for slot in &mut self.counts {
                let count = *slot;
                *slot = offset;
                offset += count;
            }
            self.sorted.clear();
            self.sorted.resize(self.events.len(), 0);
            for &event in &self.events {
                let key = event_sort_key(event);
                self.sorted[self.counts[key] as usize] = event;
                self.counts[key] += 1;
            }
            std::mem::swap(&mut self.events, &mut self.sorted);
        } else {
            self.events.sort_unstable();
        }
        transpose_events(&self.events, &mut self.cells, &mut self.rows);
        drop(transpose_span);
        obs::count(obs::Counter::BlocksTransposed, 1);
        if self.capacity_signature() != before {
            self.realloc_events += 1;
            obs::count(obs::Counter::ReallocEvents, 1);
        }
        Ok(DieBlock::new(
            &self.rows,
            &self.cells,
            plan.len(),
            self.scalar.map.config(),
        ))
    }

    /// The generation half of [`BlockScratch::generate_block`]: one die at
    /// a time through the wrapped [`DieScratch`], repacked into events.
    fn fill_events<B: FaultBackend + ?Sized>(
        &mut self,
        backend: &B,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
        max_redraws: Option<usize>,
        events: &mut Vec<u64>,
    ) -> Result<(), MemError> {
        for (die, planned) in plan.iter().enumerate() {
            let mut rng = seeder.rng_for_sample(planned.index);
            let n_faults = planned.n_faults as usize;
            // Replicate the per-sample RNG consumption exactly: plain draw,
            // or the single-fault-per-row redraw loop.
            backend.sample_into(&mut rng, n_faults, &mut self.scalar)?;
            if let Some(max_redraws) = max_redraws {
                for _ in 0..max_redraws {
                    if self.scalar.map.max_faults_per_row() <= 1 {
                        break;
                    }
                    backend.sample_into(&mut rng, n_faults, &mut self.scalar)?;
                }
            }
            for fault in self.scalar.map.iter() {
                events.push(pack_event(fault.row, fault.col, die, fault.kind));
            }
            let n_faults = planned.n_faults;
            obs::count(obs::Counter::DiesGenerated, 1);
            obs::count(obs::Counter::FaultsGenerated, n_faults);
            obs::record(obs::Histogram::FaultsPerDie, n_faults);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BackendKind, FaultKindLaw};
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(128, 32).unwrap()
    }

    #[test]
    fn scratch_generation_is_bit_identical_to_the_allocating_path_per_backend() {
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            let mut scratch = DieScratch::new(config());
            for seed in 0..12u64 {
                let mut rng_scratch = StdRng::seed_from_u64(seed);
                let mut rng_fresh = StdRng::seed_from_u64(seed);
                let n = (seed as usize * 3) % 40;
                let fresh = backend.sample_with_count(&mut rng_fresh, n).unwrap();
                let reused = scratch.generate(&backend, &mut rng_scratch, n).unwrap();
                assert_eq!(reused, &fresh, "{kind}, seed {seed}");
                // The RNGs must land in the same state (same consumption).
                use rand::Rng;
                assert_eq!(rng_scratch.gen::<u64>(), rng_fresh.gen::<u64>(), "{kind}");
            }
        }
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
                let fresh = backend.sample_with_count(&mut rng_fresh, 25).unwrap();
                let reused = scratch.generate(&backend, &mut rng_scratch, 25).unwrap();
                assert_eq!(reused, &fresh, "{kind}, seed {seed}");
            }
        }
    }

    #[test]
    fn scratch_generation_matches_the_hash_set_references_at_every_density() {
        // One warm arena, reused across backends, kind laws, geometries and
        // amounts from empty through dense to the full array: the bitmap
        // must come back empty after every die, or a later die would see
        // phantom occupied cells and diverge from the allocating reference.
        use crate::montecarlo::{FaultKindPolicy, FaultMapSampler};
        use rand::Rng;
        let laws = [
            FaultKindLaw::AlwaysFlip,
            FaultKindLaw::RandomStuckAt,
            FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.3,
            },
        ];
        let mut scratch = DieScratch::new(config());
        for geometry in [
            MemoryConfig::new(16, 32).unwrap(),
            MemoryConfig::new(8, 24).unwrap(),
        ] {
            let cells = geometry.total_cells();
            for amount in [0, 1, cells / 2, cells, 3] {
                for kind in BackendKind::ALL {
                    for law in laws {
                        let backend = Backend::at_p_cell(kind, geometry, 1e-2)
                            .unwrap()
                            .with_kind_law(law)
                            .unwrap();
                        let seed = amount as u64 * 31 + kind as u64;
                        let mut rng_fresh = StdRng::seed_from_u64(seed);
                        let mut rng_scratch = StdRng::seed_from_u64(seed);
                        let fresh = backend.sample_with_count(&mut rng_fresh, amount).unwrap();
                        let reused = scratch
                            .generate(&backend, &mut rng_scratch, amount)
                            .unwrap();
                        assert_eq!(reused, &fresh, "{kind} {law} {amount} of {cells} cells");
                        assert_eq!(rng_scratch.gen::<u64>(), rng_fresh.gen::<u64>(), "{kind}");
                    }
                }
                // Kinds drawn in Floyd order ride in the sort keys.
                for policy in [
                    FaultKindPolicy::AlwaysFlip,
                    FaultKindPolicy::RandomStuckAt,
                    FaultKindPolicy::Mixed,
                ] {
                    let sampler = FaultMapSampler::with_policy(geometry, policy);
                    let seed = amount as u64 ^ 0x5EED;
                    let fresh = sampler
                        .sample_with_count(&mut StdRng::seed_from_u64(seed), amount)
                        .unwrap();
                    sampler
                        .sample_with_count_into(
                            &mut StdRng::seed_from_u64(seed),
                            amount,
                            &mut scratch,
                        )
                        .unwrap();
                    assert_eq!(
                        scratch.map(),
                        &fresh,
                        "{policy:?} {amount} of {cells} cells"
                    );
                }
            }
        }
    }

    #[test]
    fn steady_state_generation_performs_no_reallocation() {
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            let mut scratch = DieScratch::new(config());
            let mut rng = StdRng::seed_from_u64(7);
            // Warm-up: containers grow to their high-water capacities.
            for n in [40usize, 40, 40, 40] {
                scratch.generate(&backend, &mut rng, n).unwrap();
            }
            let warm = scratch.realloc_events();
            // Steady state at or below the high-water fault count: no growth.
            for i in 0..200usize {
                scratch.generate(&backend, &mut rng, i % 41).unwrap();
            }
            assert_eq!(
                scratch.realloc_events(),
                warm,
                "{kind}: steady-state die generation reallocated"
            );
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
                scratch.generate(&backend, &mut rng, 33).is_err(),
                "{kind}: 33 faults in 32 cells must be rejected"
            );
            // The arena stays usable after a rejected request.
            assert!(scratch.generate(&backend, &mut rng, 32).is_ok(), "{kind}");
            assert_eq!(scratch.map().fault_count(), 32, "{kind}");
        }
    }

    #[test]
    fn single_fault_per_row_redraw_matches_the_seeder_protocol() {
        use crate::seeder::{DieBatch, PlannedSample, StreamSeeder};
        let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3).unwrap();
        let seeder = StreamSeeder::new(99);
        let plan: Vec<PlannedSample> = (0..24u64)
            .map(|index| PlannedSample {
                index,
                n_faults: 20,
            })
            .collect();
        let batch =
            DieBatch::generate_single_fault_per_row_with_backend(&backend, &seeder, &plan, 8)
                .unwrap();
        let mut scratch = DieScratch::new(config());
        for (planned, expected) in batch.iter() {
            let mut rng = seeder.rng_for_sample(planned.index);
            let map = scratch
                .generate_single_fault_per_row(&backend, &mut rng, planned.n_faults as usize, 8)
                .unwrap();
            assert_eq!(map, expected, "sample {}", planned.index);
        }
    }
}
