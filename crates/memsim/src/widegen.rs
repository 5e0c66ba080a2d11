//! Lane-interleaved (wide) die-block generation.
//!
//! The scalar block generator ([`BlockScratch::generate_block`]) replays
//! each planned sample's RNG stream one die at a time: seed, Floyd-sample
//! the fault positions, draw the fault kinds, round-trip through the
//! per-die [`FaultMap`](crate::fault::FaultMap), and repack into block
//! events. This module batches that inner loop over
//! [`WIDE_LANES`] dies at once on a [`WideXoshiro`] — `WIDE_LANES`
//! independent per-sample xoshiro256++ streams advanced as element-wise
//! array ops — and emits the packed `(row, col, die, kind)` events
//! directly, skipping the scalar map round-trip entirely.
//!
//! # Generation contract
//!
//! The wide path is an *implementation* of the per-sample schedule, not a
//! new schedule:
//!
//! * **Structural (bit-identity by construction):** each lane is seeded
//!   with [`StreamSeeder::derive_seed`] exactly as
//!   [`StreamSeeder::rng_for_sample`] seeds the scalar generator, and every
//!   lane-masked operation ([`WideXoshiro::next_u64_masked`],
//!   [`WideXoshiro::gen_bounded_masked`]) advances a lane if and only if
//!   the scalar stream would advance — including per-lane rejection
//!   redraws and the single-remaining-lane scalar drain, which extracts
//!   the exact lane state and stores it back. A die generated wide
//!   therefore has the same faults at the same positions with the same
//!   kinds as its scalar twin, at every seed.
//! * **Gated (by tests, not construction):** the zero-steady-state-
//!   allocation guarantee ([`BlockScratch::realloc_events`]) and the
//!   equality of the emitted *event order* with the scalar generator's
//!   die-major, per-die-sorted order are pinned by the `scratch` and
//!   `kernel_equivalence` suites.
//!
//! Backends opt in through [`FaultBackend::wide_generation`] by asserting
//! their [`sample_into`](crate::backend::FaultBackend::sample_into) schedule is exactly
//! "iid-uniform Floyd placement, then one kind draw per fault in
//! `(row, col)` order" — the SRAM backend's schedule. Backends with
//! data-dependent placement (DRAM clustering proposals, MLC column
//! weighting) return `None` and keep the scalar path.
//!
//! [`BlockScratch::generate_block`]: crate::scratch::BlockScratch::generate_block
//! [`BlockScratch::realloc_events`]: crate::scratch::BlockScratch::realloc_events
//! [`FaultBackend`]: crate::backend::FaultBackend
//! [`FaultBackend::wide_generation`]: crate::backend::FaultBackend::wide_generation
//! [`StreamSeeder`]: crate::seeder::StreamSeeder
//! [`StreamSeeder::derive_seed`]: crate::seeder::StreamSeeder::derive_seed
//! [`StreamSeeder::rng_for_sample`]: crate::seeder::StreamSeeder::rng_for_sample

use crate::backend::FaultKindLaw;
use crate::config::MemoryConfig;
use crate::dieblock::pack_event;
use crate::error::MemError;
use crate::fault::FaultKind;
use crate::floyd::{floyd_step, CellBitmap};
use crate::seeder::{PlannedSample, StreamSeeder};
use faultmit_obs as obs;
use rand::wide::WideXoshiro;
use rand::Rng;

/// How many per-sample streams the wide generator advances per step. Eight
/// `u64` lanes fill one AVX-512 register (or two AVX2 registers) in the
/// autovectorised element-wise loops; the machinery itself is
/// `const`-generic over the stream count, so narrower widths (the four-lane
/// variant the tests also pin) compile from the same code.
pub const WIDE_LANES: usize = 8;

/// Above this fault count a lane's sampled cells are listed in order by a
/// walk over its chosen bitmap instead of a comparison sort of the draws.
/// Both give the same sorted list; the walk costs one pass over the
/// `total_cells / 64` bitmap words, which only a dense die repays.
const BITMAP_WALK_MIN: usize = 128;

/// A backend's declaration that its per-sample schedule is wide-capable:
/// iid-uniform Floyd placement over the whole array, then (for non-flip
/// laws) one kind draw per fault in `(row, col)` order. Returned by
/// [`FaultBackend::wide_generation`](crate::backend::FaultBackend::wide_generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideGenSpec {
    /// The law the in-order per-fault kind draws follow
    /// ([`FaultKindLaw::AlwaysFlip`] draws nothing).
    pub kind_law: FaultKindLaw,
}

/// Reusable per-lane buffers of the wide generator, owned by
/// [`BlockScratch`](crate::scratch::BlockScratch). Warm after a few blocks;
/// cleared, never shrunk, between blocks.
#[derive(Debug, Default)]
pub(crate) struct WideGenScratch {
    /// Per-lane sampled cell indices (Floyd draw order, then sorted).
    indices: Vec<Vec<usize>>,
    /// Per-lane packed events awaiting the die-major flush.
    events: Vec<Vec<u64>>,
    /// Per-lane Floyd chosen sets, empty between dies.
    chosen: Vec<CellBitmap>,
}

impl WideGenScratch {
    /// Sum of all tracked container capacities — grows on (and only on)
    /// reallocation, which the block arena's realloc counter watches.
    pub(crate) fn capacity_sum(&self) -> usize {
        self.indices.iter().map(Vec::capacity).sum::<usize>()
            + self.events.iter().map(Vec::capacity).sum::<usize>()
            + self.chosen.iter().map(CellBitmap::capacity).sum::<usize>()
            + self.indices.capacity()
            + self.events.capacity()
            + self.chosen.capacity()
    }

    fn ensure_lanes(&mut self, lanes: usize) {
        while self.indices.len() < lanes {
            self.indices.push(Vec::new());
            self.events.push(Vec::new());
            self.chosen.push(CellBitmap::default());
        }
    }
}

/// Generates every planned sample of `plan` through the wide path and
/// appends its packed events to `events` in the scalar generator's order:
/// die-major, each die's events `(row, col)`-sorted.
///
/// # Errors
///
/// Returns [`MemError::InvalidParameter`] when a planned fault count
/// exceeds the cell count — the same validation, with the same message, as
/// the scalar sampler.
pub(crate) fn generate_block_events(
    spec: WideGenSpec,
    config: MemoryConfig,
    seeder: &StreamSeeder,
    plan: &[PlannedSample],
    scratch: &mut WideGenScratch,
    events: &mut Vec<u64>,
) -> Result<(), MemError> {
    let total = config.total_cells();
    for planned in plan {
        let n_faults = planned.n_faults as usize;
        if n_faults > total {
            return Err(MemError::InvalidParameter {
                reason: format!("cannot place {n_faults} faults in {total} cells"),
            });
        }
    }
    scratch.ensure_lanes(WIDE_LANES);
    // Chunk-local metrics arena: lane-utilisation slots are counted per
    // lock-step Floyd step, so they are batched here and flushed once per
    // block rather than resolving the recorder per step.
    let mut arena = obs::MetricsArena::new();
    for planned in plan {
        arena.count(obs::Counter::DiesGenerated, 1);
        arena.count(obs::Counter::FaultsGenerated, planned.n_faults);
        arena.record(obs::Histogram::FaultsPerDie, planned.n_faults);
    }
    for (chunk_index, chunk) in plan.chunks(WIDE_LANES).enumerate() {
        let base_die = chunk_index * WIDE_LANES;
        arena.count(obs::Counter::WideGenChunks, 1);
        generate_chunk::<WIDE_LANES>(spec, config, seeder, chunk, base_die, scratch, &mut arena);
        for lane_events in &scratch.events[..chunk.len()] {
            events.extend_from_slice(lane_events);
        }
    }
    arena.flush();
    Ok(())
}

/// Generates one chunk of up to `N` planned samples into the per-lane
/// event buffers (`scratch.events[j]`, die `base_die + j`).
fn generate_chunk<const N: usize>(
    spec: WideGenSpec,
    config: MemoryConfig,
    seeder: &StreamSeeder,
    chunk: &[PlannedSample],
    base_die: usize,
    scratch: &mut WideGenScratch,
    arena: &mut obs::MetricsArena,
) {
    let lanes = chunk.len();
    debug_assert!(lanes <= N);
    let total = config.total_cells();
    let mut seeds = [0u64; N];
    let mut amounts = [0usize; N];
    for (j, planned) in chunk.iter().enumerate() {
        seeds[j] = seeder.derive_seed(0, planned.index);
        amounts[j] = planned.n_faults as usize;
    }
    let mut wide = WideXoshiro::<N>::from_seeds(&seeds);
    wide_floyd(&mut wide, total, &amounts, lanes, scratch, arena);

    // Restore each lane's `(row, col)` order — raw cell indices sort
    // exactly like the scalar map's `(row, col)` key — empty its chosen
    // set, and pack the events. The kind code of stuck-at laws is OR-ed in
    // afterwards, one lane-masked draw per fault in that same sorted order,
    // replicating the scalar `rekind_in_order` schedule.
    let flip = matches!(spec.kind_law, FaultKindLaw::AlwaysFlip);
    for (j, &amount) in amounts[..lanes].iter().enumerate() {
        let indices = &mut scratch.indices[j];
        let chosen = &mut scratch.chosen[j];
        if amount > BITMAP_WALK_MIN {
            // Dense lanes: the chosen bitmap *is* the sampled set, so a
            // word-order walk re-derives the indices already sorted.
            indices.clear();
            chosen.drain_sorted(indices);
            debug_assert_eq!(indices.len(), amount);
        } else {
            indices.sort_unstable();
            for &index in indices.iter() {
                chosen.clear_word_of(index);
            }
        }
        let lane_events = &mut scratch.events[j];
        lane_events.clear();
        let die = base_die + j;
        for &index in indices.iter() {
            let (row, col) = config.cell_position(index);
            let kind = if flip {
                FaultKind::BitFlip
            } else {
                FaultKind::StuckAtZero // placeholder code 0, patched below
            };
            lane_events.push(pack_event(row, col, die, kind));
        }
    }
    if !flip {
        let max_amount = amounts[..lanes].iter().copied().max().unwrap_or(0);
        for k in 0..max_amount {
            let mut active = [false; N];
            for j in 0..lanes {
                active[j] = k < amounts[j];
            }
            let draws = wide.next_u64_masked(&active);
            for j in 0..lanes {
                if active[j] {
                    scratch.events[j][k] |= kind_code(spec.kind_law, draws[j]);
                }
            }
        }
    }
}

/// Decodes one raw 64-bit draw into the packed kind code of the law —
/// bit-identical to [`FaultKindLaw::sample`] consuming the same draw
/// (`gen::<bool>` for the symmetric law, `gen_bool(p)` for the asymmetric
/// one; both consume exactly one `next_u64`).
fn kind_code(law: FaultKindLaw, draw: u64) -> u64 {
    match law {
        FaultKindLaw::AlwaysFlip => 2,
        // `rng.gen::<bool>()`: low bit set → StuckAtOne (code 1).
        FaultKindLaw::RandomStuckAt => draw & 1,
        // `rng.gen_bool(p)`: 53-bit mantissa in [0, 1) below p → StuckAtZero
        // (code 0), else StuckAtOne (code 1).
        FaultKindLaw::AsymmetricStuckAt { p_stuck_at_zero } => {
            let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            u64::from(unit >= p_stuck_at_zero)
        }
    }
}

/// Floyd-samples `amounts[j]` distinct cell indices into
/// `scratch.indices[j]` for every lane `j < lanes`, in lock-step wide
/// steps: lane `j` is active for its own first `amounts[j]` steps with
/// per-lane bound `total - amounts[j] + step`, so each lane consumes its
/// stream exactly as the scalar `sample_into` would. When only one lane
/// still has draws left the loop drains it through a scalar [`StdRng`]
/// extracted at the lane's exact state (and stores the state back for the
/// kind draws that follow).
///
/// [`StdRng`]: rand::rngs::StdRng
fn wide_floyd<const N: usize>(
    wide: &mut WideXoshiro<N>,
    total: usize,
    amounts: &[usize; N],
    lanes: usize,
    scratch: &mut WideGenScratch,
    arena: &mut obs::MetricsArena,
) {
    for j in 0..lanes {
        scratch.indices[j].clear();
        scratch.chosen[j].reserve(total);
    }
    let max_amount = amounts[..lanes].iter().copied().max().unwrap_or(0);
    for step in 0..max_amount {
        let mut active = [false; N];
        let mut bounds = [0u64; N];
        let mut active_count = 0usize;
        let mut last_active = 0usize;
        for j in 0..lanes {
            if step < amounts[j] {
                active[j] = true;
                bounds[j] = (total - amounts[j] + step) as u64;
                active_count += 1;
                last_active = j;
            }
        }
        if active_count == 1 {
            // Scalar drain: one divergent lane left — finish it serially at
            // its exact stream position.
            arena.count(obs::Counter::WideGenScalarDrains, 1);
            let j = last_active;
            let mut rng = wide.lane_rng(j);
            for s in step..amounts[j] {
                let bound = total - amounts[j] + s;
                let t = rng.gen_range(0..=bound);
                let cell = floyd_step(&mut scratch.chosen[j], t, bound);
                scratch.indices[j].push(cell);
            }
            wide.store_lane(j, &rng);
            return;
        }
        arena.count(obs::Counter::WideGenLaneSteps, N as u64);
        arena.count(obs::Counter::WideGenLanesActive, active_count as u64);
        let draws = wide.gen_bounded_masked(&bounds, &active);
        for j in 0..lanes {
            if active[j] {
                let cell = floyd_step(
                    &mut scratch.chosen[j],
                    draws[j] as usize,
                    bounds[j] as usize,
                );
                scratch.indices[j].push(cell);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BackendKind, FaultBackend};
    use crate::scratch::DieScratch;

    fn config() -> MemoryConfig {
        MemoryConfig::new(128, 32).unwrap()
    }

    fn scalar_events(backend: &Backend, seeder: &StreamSeeder, plan: &[PlannedSample]) -> Vec<u64> {
        let mut scratch = DieScratch::new(backend.config());
        let mut events = Vec::new();
        for (die, planned) in plan.iter().enumerate() {
            let mut rng = seeder.rng_for_sample(planned.index);
            scratch
                .generate(backend, &mut rng, planned.n_faults as usize)
                .unwrap();
            for fault in scratch.map().iter() {
                events.push(pack_event(fault.row, fault.col, die, fault.kind));
            }
        }
        events
    }

    fn wide_events(
        spec: WideGenSpec,
        backend: &Backend,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
    ) -> Vec<u64> {
        let mut scratch = WideGenScratch::default();
        let mut events = Vec::new();
        generate_block_events(
            spec,
            backend.config(),
            seeder,
            plan,
            &mut scratch,
            &mut events,
        )
        .unwrap();
        events
    }

    fn plan(counts: &[u64]) -> Vec<PlannedSample> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &n_faults)| PlannedSample {
                index: 1000 + i as u64,
                n_faults,
            })
            .collect()
    }

    #[test]
    fn wide_events_match_the_scalar_generator_exactly() {
        let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3).unwrap();
        let spec = backend.wide_generation().unwrap();
        let seeder = StreamSeeder::new(0xBEEF);
        // Full chunks, ragged tails, odd lane counts, zero-fault lanes,
        // mixed amounts and fault counts past the bitmap-walk threshold.
        let plans = [
            plan(&[12; 16]),
            plan(&[1, 0, 7, 3, 12, 12, 5]),
            plan(&[40]),
            plan(&[0, 0, 0]),
            plan(&[3, 200, 3, 150, 1, 0, 9, 12, 33]),
            // The full 4096-cell array next to empty, single and half-full lanes.
            plan(&[4096, 0, 1, 2048]),
        ];
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(
                wide_events(spec, &backend, &seeder, plan),
                scalar_events(&backend, &seeder, plan),
                "plan {i}"
            );
        }
    }

    #[test]
    fn wide_events_match_under_every_kind_law() {
        let laws = [
            FaultKindLaw::AlwaysFlip,
            FaultKindLaw::RandomStuckAt,
            FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.85,
            },
        ];
        let seeder = StreamSeeder::new(42);
        for law in laws {
            let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3)
                .unwrap()
                .with_kind_law(law)
                .unwrap();
            let spec = backend.wide_generation().unwrap();
            let plan = plan(&[5, 17, 0, 8, 25, 1, 13, 40, 2, 160]);
            assert_eq!(
                wide_events(spec, &backend, &seeder, &plan),
                scalar_events(&backend, &seeder, &plan),
                "{law}"
            );
        }
    }

    #[test]
    fn overfull_requests_error_with_the_sampler_message() {
        let small = MemoryConfig::new(4, 8).unwrap();
        let seeder = StreamSeeder::new(1);
        let mut scratch = WideGenScratch::default();
        let mut events = Vec::new();
        let spec = WideGenSpec {
            kind_law: FaultKindLaw::AlwaysFlip,
        };
        let plan = [PlannedSample {
            index: 0,
            n_faults: 33,
        }];
        let err = generate_block_events(spec, small, &seeder, &plan, &mut scratch, &mut events)
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("cannot place 33 faults in 32 cells"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn non_wide_backends_decline_the_wide_path() {
        for kind in [BackendKind::Dram, BackendKind::Mlc] {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            assert!(
                backend.wide_generation().is_none(),
                "{kind} must take the scalar fallback"
            );
        }
    }
}
