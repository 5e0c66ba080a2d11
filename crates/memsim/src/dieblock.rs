//! Transposed (bit-sliced) die blocks: up to [`BLOCK_DIES`] (64)
//! Monte-Carlo dies per `u64` lane.
//!
//! # Transposed layout
//!
//! The sparse kernel evaluates one die at a time: a die is a
//! [`FaultMap`](crate::FaultMap), and every scheme walks its faulty rows.
//! The bit-sliced kernel instead packs **up to [`BLOCK_DIES`] consecutive
//! samples of the global plan** into one [`DieBlock`] and transposes the
//! fault data: for every `(row, column)` cell that is faulty in *any* die
//! of the block, a [`LaneCell`] holds three `u64` lanes whose bit `j`
//! describes die `j`:
//!
//! * `flips` — die `j` has a bit-flip fault at this cell;
//! * `stuck` — die `j` has a stuck-at fault at this cell;
//! * `stuck_value` — the value die `j`'s cell is stuck at (meaningful only
//!   where `stuck` is set — the lane a [`FaultKindLaw`](crate::FaultKindLaw)
//!   populates).
//!
//! Cells are grouped by row ([`BlockRow`]), rows ascend, and cells within a
//! row ascend by column — the same deterministic order the flat
//! [`FaultMap`](crate::FaultMap) guarantees. Each row also carries a `dirty`
//! lane (`flips | stuck` OR-ed over its cells): bit `j` set means die `j`
//! has at least one fault in this row, i.e. the per-die sparse kernel would
//! have *visited* the row. Block reductions must use `dirty` (fault
//! **presence**, not observable error) as their visit predicate so they
//! reproduce the sparse kernel's `-0.0 + 0.0` accumulation bit for bit.
//!
//! With this layout one bitwise operation on a lane does the work of
//! [`BLOCK_DIES`] scalar dies, which is how the mitigation schemes'
//! `observe_block` paths (in `faultmit-core`) evaluate a whole block per
//! row walk. [`for_each_die`] visits a lane's set dies in ascending order,
//! matching the per-sample kernels' reduction order.
//!
//! # Why RNG stream order is preserved (the generation contract)
//!
//! Block *generation* is the scalar per-sample generation, transposed.
//! Every planned sample owns the stream
//! [`StreamSeeder::rng_for_sample`](crate::StreamSeeder::rng_for_sample)
//! derives for it; the per-sample draw
//! ([`DieScratch::generate_with_policy`](crate::DieScratch::generate_with_policy))
//! runs once per sample and the resulting faults are transposed afterwards.
//! Every sample therefore consumes exactly the RNG stream it consumes on
//! the sparse kernel — determinism, sharding and paired scheme comparison
//! are untouched, and the block kernel's fault populations are
//! *bit-identical* to the sparse kernel's by construction.
//!
//! # The scalar tail
//!
//! Campaign plans are not multiples of the block width, and chunk
//! boundaries (a pure function of the global plan) never move: the
//! executor groups each chunk's samples into blocks of at most
//! [`BLOCK_DIES`] and falls back to the per-sample sparse path for
//! degenerate single-sample groups. Any grouping yields identical results
//! because per-sample RNG streams and the chunk-order reduction are
//! independent of how samples are batched.

use crate::config::MemoryConfig;
use crate::fault::FaultKind;

/// Dies per transposed [`DieBlock`]: one bit of a `u64` lane per die. The
/// campaign executor groups its samples into blocks of this many dies and
/// sizes its per-scheme block output matrix by it.
pub const BLOCK_DIES: usize = 64;

/// Visits every die whose bit is set in `lanes`, in ascending die order.
#[inline]
pub fn for_each_die(mut lanes: u64, mut f: impl FnMut(usize)) {
    while lanes != 0 {
        let die = lanes.trailing_zeros() as usize;
        lanes &= lanes - 1;
        f(die);
    }
}

/// The lanes of one faulty `(row, col)` cell across all dies of a block.
///
/// Bit `j` of each lane describes die `j` (the block's `j`-th planned
/// sample). At most one of `flips` / `stuck` is set per die — a physical
/// cell has exactly one behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneCell {
    /// Bit position (column) of the cell within the word, 0 = LSB.
    pub col: u32,
    /// Dies whose cell flips the stored bit on read.
    pub flips: u64,
    /// Dies whose cell is stuck at `stuck_value`.
    pub stuck: u64,
    /// The stuck-at value per die (only bits under `stuck` are meaningful).
    pub stuck_value: u64,
}

impl LaneCell {
    /// Dies that have *any* fault at this cell — the fault-presence lane
    /// that drives row-visit bookkeeping and the bit-shuffle FM-LUT vote.
    #[must_use]
    #[inline]
    pub fn presence(&self) -> u64 {
        self.flips | self.stuck
    }
}

/// One faulty row of a block: its index, its fault-presence (`dirty`) lane,
/// and its transposed cells sorted by ascending column.
#[derive(Debug, Clone, Copy)]
pub struct BlockRow<'a> {
    /// Row (word address) within the memory.
    pub row: usize,
    /// Bit `j` set ⇔ die `j` has at least one fault in this row.
    pub dirty: u64,
    /// The row's lane cells, ascending by column.
    pub cells: &'a [LaneCell],
}

/// Internal row directory entry: the cell range backing one [`BlockRow`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockRowEntry {
    pub(crate) row: usize,
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) dirty: u64,
}

/// A transposed view over up to [`BLOCK_DIES`] generated dies, borrowed from
/// the [`BlockScratch`](crate::BlockScratch) arena that generated them
/// (valid until the next generation call).
#[derive(Debug, Clone, Copy)]
pub struct DieBlock<'a> {
    rows: &'a [BlockRowEntry],
    cells: &'a [LaneCell],
    dies: usize,
    config: MemoryConfig,
}

impl<'a> DieBlock<'a> {
    pub(crate) fn new(
        rows: &'a [BlockRowEntry],
        cells: &'a [LaneCell],
        dies: usize,
        config: MemoryConfig,
    ) -> Self {
        Self {
            rows,
            cells,
            dies,
            config,
        }
    }

    /// Number of dies packed into the block (`1..=BLOCK_DIES`); die `j`
    /// occupies bit `j` of every lane.
    #[must_use]
    pub fn die_count(&self) -> usize {
        self.dies
    }

    /// Geometry shared by every die of the block.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Number of rows that are faulty in at least one die.
    #[must_use]
    pub fn faulty_row_count(&self) -> usize {
        self.rows.len()
    }

    /// Iterates the block's faulty rows in ascending row order.
    pub fn rows(&self) -> impl Iterator<Item = BlockRow<'a>> + '_ {
        self.rows.iter().map(|entry| BlockRow {
            row: entry.row,
            dirty: entry.dirty,
            cells: &self.cells[entry.start as usize..entry.end as usize],
        })
    }
}

/// Packs one fault event for the transposition sort. Layout (LSB to MSB):
/// 2 kind bits, 8 die bits, 6 column bits, then the row — so an unstable
/// sort of the packed words yields `(row, col, die)` order and equal keys
/// are impossible (a die has at most one fault per cell). The 8-bit die
/// field holds any die index of a [`BLOCK_DIES`]-die block.
#[inline]
pub(crate) fn pack_event(row: usize, col: usize, die: usize, kind: FaultKind) -> u64 {
    debug_assert!(col < 64 && die < BLOCK_DIES);
    ((row as u64) << 16) | ((col as u64) << 10) | ((die as u64) << 2) | kind.code()
}

/// Rebuilds the row directory and lane cells from sorted packed events.
/// Clears (but never shrinks) the output buffers.
pub(crate) fn transpose_events(
    events: &[u64],
    cells: &mut Vec<LaneCell>,
    rows: &mut Vec<BlockRowEntry>,
) {
    cells.clear();
    rows.clear();
    for &event in events {
        let row = (event >> 16) as usize;
        let col = ((event >> 10) & 0x3F) as u32;
        let die = ((event >> 2) & 0xFF) as usize;
        let kind_code = event & 0b11;
        let die_bit = 1u64 << die;

        let new_row = rows.last().is_none_or(|entry| entry.row != row);
        if new_row {
            rows.push(BlockRowEntry {
                row,
                start: cells.len() as u32,
                end: cells.len() as u32,
                dirty: 0,
            });
        }
        let entry = rows.last_mut().expect("a row entry was just ensured");
        let new_cell = cells.len() == entry.start as usize || {
            let last = cells.last().expect("non-empty cell run for this row");
            last.col != col
        };
        if new_cell {
            cells.push(LaneCell {
                col,
                flips: 0,
                stuck: 0,
                stuck_value: 0,
            });
            entry.end = cells.len() as u32;
        }
        let cell = cells.last_mut().expect("a lane cell was just ensured");
        match kind_code {
            0 => cell.stuck |= die_bit, // stuck at zero: value bit stays 0
            1 => {
                cell.stuck |= die_bit;
                cell.stuck_value |= die_bit;
            }
            _ => cell.flips |= die_bit,
        }
        entry.dirty |= die_bit;
    }
}

/// Per-data-column residual-error lanes for one row of a block: bit `j` of
/// lane `c` says the word die `j` observes differs from the written word at
/// data bit `c`, after the mitigation scheme has done its work.
///
/// The buffer is fixed-size stack storage (64 `u64` lanes, 512 bytes) and
/// clears sparsely through its column mask, so per-row reuse is
/// allocation-free.
#[derive(Debug, Clone)]
pub struct ResidualLanes {
    lanes: [u64; 64],
    colmask: u64,
}

impl Default for ResidualLanes {
    fn default() -> Self {
        Self::new()
    }
}

impl ResidualLanes {
    /// An all-clear residual buffer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            lanes: [0; 64],
            colmask: 0,
        }
    }

    /// Clears every touched lane (sparse: only columns in the mask).
    pub fn clear(&mut self) {
        let mut mask = self.colmask;
        while mask != 0 {
            let col = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.lanes[col] = 0;
        }
        self.colmask = 0;
    }

    /// ORs `lane` into data column `col` (no-op for an all-zero lane, so
    /// the column mask stays tight).
    #[inline]
    pub fn accumulate(&mut self, col: usize, lane: u64) {
        if lane != 0 {
            self.lanes[col] |= lane;
            self.colmask |= 1u64 << col;
        }
    }

    /// Mask of data columns holding at least one residual error.
    #[must_use]
    pub fn colmask(&self) -> u64 {
        self.colmask
    }

    /// The raw residual lane for data column `col`: bit `j` says die `j`
    /// observes an error at this data bit. Columns outside
    /// [`colmask`](Self::colmask) read as zero.
    #[must_use]
    #[inline]
    pub fn lane(&self, col: usize) -> u64 {
        self.lanes[col]
    }

    /// Transposes die `die`'s residual lanes back into a per-word diff: bit
    /// `c` of the result is bit `die` of lane `c`.
    #[must_use]
    #[inline]
    pub fn gather_die(&self, die: usize) -> u64 {
        let mut diff = 0u64;
        let mut mask = self.colmask;
        while mask != 0 {
            let col = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            diff |= ((self.lanes[col] >> die) & 1) << col;
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BackendKind, FaultKindLaw};
    use crate::scratch::{BlockScratch, DieScratch, MapPolicy};
    use crate::seeder::{PlannedSample, StreamSeeder};

    fn config() -> MemoryConfig {
        MemoryConfig::new(128, 32).unwrap()
    }

    fn plan(start: u64, len: usize, n_faults: u64) -> Vec<PlannedSample> {
        (0..len as u64)
            .map(|j| PlannedSample {
                index: start + j,
                n_faults,
            })
            .collect()
    }

    /// Generates `plan` die by die through the per-sample path — the
    /// reference population a block must reproduce exactly.
    fn per_sample_reference(
        backend: &Backend,
        seeder: &StreamSeeder,
        plan: &[PlannedSample],
    ) -> Vec<Vec<crate::fault::Fault>> {
        let mut reference = DieScratch::new(config());
        plan.iter()
            .map(|planned| {
                let mut rng = seeder.rng_for_sample(planned.index);
                reference
                    .generate_with_policy(
                        backend,
                        &mut rng,
                        planned.n_faults as usize,
                        MapPolicy::Unrestricted,
                    )
                    .unwrap()
                    .iter()
                    .collect()
            })
            .collect()
    }

    /// Untransposes a block back into per-die fault lists.
    fn untranspose(block: &DieBlock<'_>) -> Vec<Vec<crate::fault::Fault>> {
        let mut rebuilt: Vec<Vec<crate::fault::Fault>> = vec![Vec::new(); block.die_count()];
        for row in block.rows() {
            for cell in row.cells {
                for (die, faults) in rebuilt.iter_mut().enumerate() {
                    let fault = if (cell.flips >> die) & 1 != 0 {
                        Some(crate::fault::Fault::bit_flip(row.row, cell.col as usize))
                    } else if (cell.stuck >> die) & 1 != 0 {
                        Some(if (cell.stuck_value >> die) & 1 != 0 {
                            crate::fault::Fault::stuck_at_one(row.row, cell.col as usize)
                        } else {
                            crate::fault::Fault::stuck_at_zero(row.row, cell.col as usize)
                        })
                    } else {
                        None
                    };
                    if let Some(fault) = fault {
                        faults.push(fault);
                    }
                }
            }
        }
        rebuilt
    }

    #[test]
    fn block_lanes_match_per_sample_maps_on_every_backend() {
        let seeder = StreamSeeder::new(0xB10C);
        for kind in BackendKind::ALL {
            for law in [
                FaultKindLaw::AlwaysFlip,
                FaultKindLaw::AsymmetricStuckAt {
                    p_stuck_at_zero: 0.4,
                },
            ] {
                let backend = Backend::at_p_cell(kind, config(), 1e-3)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                let plan = plan(3, 40, 9);
                let expected = per_sample_reference(&backend, &seeder, &plan);
                // Block path over the same plan.
                let mut scratch = BlockScratch::new(config());
                let block = scratch
                    .generate_block(&backend, &seeder, &plan, None)
                    .unwrap();
                assert_eq!(block.die_count(), 40);
                assert_eq!(untranspose(&block), expected, "{kind} {law:?}");
            }
        }
    }

    #[test]
    fn block_rows_ascend_and_dirty_matches_presence() {
        let seeder = StreamSeeder::new(7);
        let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3).unwrap();
        let mut scratch = BlockScratch::new(config());
        let block = scratch
            .generate_block(&backend, &seeder, &plan(0, BLOCK_DIES, 12), None)
            .unwrap();
        let mut previous_row = None;
        for row in block.rows() {
            if let Some(previous) = previous_row {
                assert!(row.row > previous, "rows must ascend");
            }
            previous_row = Some(row.row);
            let mut presence = 0u64;
            let mut previous_col = None;
            for cell in row.cells {
                if let Some(previous) = previous_col {
                    assert!(cell.col > previous, "columns must ascend");
                }
                previous_col = Some(cell.col);
                assert_eq!(cell.flips & cell.stuck, 0, "one behaviour per cell");
                assert_eq!(
                    cell.stuck_value & !cell.stuck,
                    0,
                    "stuck values only under stuck lanes"
                );
                presence |= cell.presence();
            }
            assert_eq!(row.dirty, presence);
            assert_ne!(row.dirty, 0, "rows without faults must not be listed");
        }
    }

    #[test]
    fn single_fault_per_row_policy_matches_per_sample_redraws() {
        let seeder = StreamSeeder::new(0xF167);
        let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3).unwrap();
        let plan = plan(10, 24, 20);
        let mut reference = DieScratch::new(config());
        let mut expected: Vec<Vec<crate::fault::Fault>> = Vec::new();
        for planned in &plan {
            let mut rng = seeder.rng_for_sample(planned.index);
            let map = reference
                .generate_with_policy(
                    &backend,
                    &mut rng,
                    planned.n_faults as usize,
                    MapPolicy::SingleFaultPerRow,
                )
                .unwrap();
            expected.push(map.iter().collect());
        }
        let mut scratch = BlockScratch::new(config());
        let block = scratch
            .generate_block(&backend, &seeder, &plan, Some(MapPolicy::SingleFaultPerRow))
            .unwrap();
        let mut total = 0usize;
        for row in block.rows() {
            for cell in row.cells {
                total += cell.presence().count_ones() as usize;
            }
        }
        let expected_total: usize = expected.iter().map(Vec::len).sum();
        assert_eq!(total, expected_total);
    }

    #[test]
    fn oversized_plans_are_rejected() {
        let seeder = StreamSeeder::new(1);
        let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3).unwrap();
        let mut scratch = BlockScratch::new(config());
        assert!(scratch
            .generate_block(&backend, &seeder, &plan(0, BLOCK_DIES + 1, 1), None)
            .is_err());
        assert!(scratch
            .generate_block(&backend, &seeder, &plan(0, BLOCK_DIES, 1), None)
            .is_ok());
    }

    #[test]
    fn for_each_die_visits_set_dies_in_ascending_order() {
        for die in [0usize, 1, 31, 62, 63] {
            let mut visited = Vec::new();
            for_each_die(1u64 << die, |d| visited.push(d));
            assert_eq!(visited, vec![die]);
        }
        let mut visited = Vec::new();
        for_each_die((1 << 3) | (1 << 40) | (1 << 63), |d| visited.push(d));
        assert_eq!(visited, vec![3, 40, 63]);
        for_each_die(0, |_| panic!("an empty lane has no dies"));
    }

    #[test]
    fn residual_lanes_round_trip_and_clear_sparsely() {
        let mut residual = ResidualLanes::new();
        residual.accumulate(3, 0b101);
        residual.accumulate(3, 0b010);
        residual.accumulate(31, 1 << 63);
        residual.accumulate(9, 0); // no-op
        assert_eq!(residual.colmask(), (1 << 3) | (1 << 31));
        assert_eq!(residual.gather_die(0), 1 << 3);
        assert_eq!(residual.gather_die(1), 1 << 3);
        assert_eq!(residual.gather_die(2), 1 << 3);
        assert_eq!(residual.gather_die(63), 1 << 31);
        assert_eq!(residual.gather_die(5), 0);
        residual.clear();
        assert_eq!(residual.colmask(), 0);
        for die in 0..64 {
            assert_eq!(residual.gather_die(die), 0);
        }
    }
}
