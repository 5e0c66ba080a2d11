//! The protection schemes compared in the paper, behind one closed type.
//!
//! The paper's Monte-Carlo evaluations (Fig. 5 and Fig. 7) compare *no
//! protection*, *H(39,32) SECDED ECC*, *H(22,16) P-ECC* and *bit-shuffling
//! with various segment sizes* on identical fault maps drawn over the data
//! array; the shift ablation adds bit-shuffling with a naive shift vote.
//! [`Scheme`] is that catalogue, a closed enum: each variant answers what a
//! word reads back as for a given set of faulty data columns, and a new
//! scheme family is a new variant.
//!
//! Modelling note: fault maps are expressed over the `W` data columns of the
//! array. ECC parity columns are not separately faulted; this matches the
//! paper's simulation methodology, which injects bit-flips into the functional
//! data memory and assumes SECDED corrects any single per-word fault (samples
//! with more than one fault per word are rare at the studied `P_cell` and are
//! flagged as unreliable here).

use crate::error::CoreError;
use crate::fmlut::FmLut;
use crate::segment::SegmentGeometry;
use crate::shifter::{rotate_left, rotate_right};
use faultmit_ecc::{HammingSecded, LaneCounter, SecdedCode};
use faultmit_memsim::{
    corrupt_word, for_each_die, Fault, FaultKind, FaultMap, LaneCell, ResidualLanes,
};
use faultmit_obs as obs;

/// The word an application observes after a faulty read, plus whether the
/// protection scheme still vouches for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObservedWord {
    /// The data value delivered to the application.
    pub value: u64,
    /// `false` when the scheme detected an error it could not correct
    /// (e.g. a SECDED double-error); the value may then be arbitrary.
    pub reliable: bool,
}

impl ObservedWord {
    /// An observation identical to what was written.
    #[must_use]
    pub fn intact(value: u64) -> Self {
        Self {
            value,
            reliable: true,
        }
    }
}

/// Where a fault that sits alone in its row ends up after a scheme's read
/// path — one entry of the single-fault table the catalogue MSE walk scores
/// single-fault rows from (see [`Scheme::single_fault`]).
///
/// The entry depends on the faulty column only, never on the fault kind or
/// the stored word: a stuck-at cell surfaces at the same data bit as a
/// flip, but only when the written word's bit there differs from the stuck
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SingleFault {
    /// The read returns the written word, whatever the fault's kind.
    Corrected,
    /// The fault corrupts data bit `b` of the word the read returns.
    SurfacesAt(usize),
}

/// The former name of [`Scheme`], from when the schemes shared an open
/// trait. Vestigial: the benchmark harness under `perfbench/` still names
/// it, and it goes with that harness's next definition change (ROADMAP
/// item 8).
pub type MitigationScheme = Scheme;

/// The catalogue of protection schemes evaluated in the paper.
///
/// A scheme answers one question per faulty row: what the stored word reads
/// back as once the scheme has corrected or shifted it. That answer is the
/// row evaluator [`observe_sparse`](Scheme::observe_sparse);
/// [`observe`](Scheme::observe) is its dense reference over a whole fault
/// map, and [`single_fault`](Scheme::single_fault) and
/// [`observe_block`](Scheme::observe_block) are the MSE kernels' single-fault
/// table entry and lane-parallel path, which every variant has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No protection at all: every fault reaches the application.
    Unprotected {
        /// Data word width in bits.
        word_bits: usize,
    },
    /// Full-word SECDED ECC (H(39,32) for 32-bit words).
    Secded {
        /// Data word width in bits.
        word_bits: usize,
    },
    /// Priority ECC protecting the MSB half (H(22,16) over 16 MSBs for 32-bit
    /// words).
    PriorityEcc {
        /// Data word width in bits.
        word_bits: usize,
        /// Number of protected most-significant bits.
        protected_bits: usize,
    },
    /// Significance-driven bit-shuffling with the given segment geometry:
    /// each row's shift is the FM-LUT vote of Eq. (2), the one that makes
    /// the error magnitude smallest.
    BitShuffle(SegmentGeometry),
    /// Bit-shuffling with the shift ablation's naive vote: each row aligns
    /// its least significant segment to the segment of its most significant
    /// faulty cell. It differs from [`Scheme::BitShuffle`] only on rows with
    /// several faults.
    NaiveShuffle(SegmentGeometry),
}

impl Scheme {
    /// Unprotected 32-bit words.
    #[must_use]
    pub fn unprotected32() -> Self {
        Scheme::Unprotected { word_bits: 32 }
    }

    /// The paper's H(39,32) SECDED baseline.
    #[must_use]
    pub fn secded32() -> Self {
        Scheme::Secded { word_bits: 32 }
    }

    /// The paper's H(22,16) P-ECC baseline (16 protected MSBs).
    #[must_use]
    pub fn pecc32() -> Self {
        Scheme::PriorityEcc {
            word_bits: 32,
            protected_bits: 16,
        }
    }

    /// Bit-shuffling over 32-bit words with the given FM-LUT width.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidGeometry`] for `n_fm` outside `1..=5`.
    pub fn shuffle32(n_fm: usize) -> Result<Self, CoreError> {
        Ok(Scheme::BitShuffle(SegmentGeometry::new(32, n_fm)?))
    }

    /// Every scheme evaluated in Fig. 5: no correction, bit-shuffling with
    /// `n_FM = 1..=5`, and H(22,16) P-ECC.
    #[must_use]
    pub fn fig5_catalogue() -> Vec<Self> {
        let mut all = vec![Self::unprotected32()];
        for n_fm in 1..=5 {
            all.push(Self::shuffle32(n_fm).expect("n_FM in 1..=5 is valid"));
        }
        all.push(Self::pecc32());
        all
    }

    /// The schemes plotted in Fig. 7: no correction, P-ECC, and bit-shuffling
    /// with `n_FM = 1` and `n_FM = 2` (plus SECDED, which is the error-free
    /// reference).
    #[must_use]
    pub fn fig7_catalogue() -> Vec<Self> {
        vec![
            Self::unprotected32(),
            Self::pecc32(),
            Self::shuffle32(1).expect("n_FM = 1 is valid"),
            Self::shuffle32(2).expect("n_FM = 2 is valid"),
            Self::secded32(),
        ]
    }

    /// Worst-case error magnitude caused by a single fault at data bit
    /// position `bit` (0 when the scheme corrects such a fault).
    ///
    /// # Panics
    ///
    /// Panics if `bit` lies outside the scheme's word.
    #[must_use]
    pub fn worst_case_error_magnitude(&self, bit: usize) -> u64 {
        match self {
            Scheme::Unprotected { word_bits } => {
                assert!(bit < *word_bits);
                1u64 << bit
            }
            Scheme::Secded { word_bits } => {
                assert!(bit < *word_bits);
                0
            }
            Scheme::PriorityEcc {
                word_bits,
                protected_bits,
            } => {
                assert!(bit < *word_bits);
                if bit >= word_bits - protected_bits {
                    0
                } else {
                    1u64 << bit
                }
            }
            // A lone fault gets the same shift under either vote.
            Scheme::BitShuffle(geometry) | Scheme::NaiveShuffle(geometry) => {
                crate::error_magnitude::worst_case_error_magnitude(*geometry, bit)
            }
        }
    }

    /// Extra storage bits the scheme adds to every row (parity bits for ECC,
    /// LUT bits for bit-shuffling).
    #[must_use]
    pub fn extra_bits_per_row(&self) -> usize {
        match self {
            Scheme::Unprotected { .. } => 0,
            Scheme::Secded { word_bits } => Self::secded_code(*word_bits).parity_bits(),
            Scheme::PriorityEcc { protected_bits, .. } => {
                Self::secded_code(*protected_bits).parity_bits()
            }
            Scheme::BitShuffle(geometry) | Scheme::NaiveShuffle(geometry) => geometry.n_fm(),
        }
    }

    fn secded_code(word_bits: usize) -> HammingSecded {
        HammingSecded::new(word_bits).expect("scheme word widths are SECDED-compatible")
    }

    /// Applies the row's faults to a raw stored word.
    fn corrupt(faults: &FaultMap, row: usize, stored: u64) -> u64 {
        let mut observed = stored;
        for col in faults.faulty_columns(row) {
            if let Some(kind) = faults.fault_at(row, col) {
                observed = corrupt_word(observed, col, kind);
            }
        }
        observed
    }

    /// The P-ECC protected-MSB mask for the given partition: the top
    /// `protected_bits` bits of a `word_bits`-bit word. Every shift stays
    /// below 64, so 64-bit words are exact.
    fn pecc_msb_mask(word_bits: usize, protected_bits: usize) -> u64 {
        if protected_bits == 0 {
            return 0;
        }
        (u64::MAX >> (64 - protected_bits)) << (word_bits - protected_bits)
    }

    /// The one evaluator of a fault-bearing row, from its column masks. The
    /// sparse path folds a row slice into them and the block kernel gathers
    /// them per die from the lane cells; either way the result equals
    /// [`Scheme::observe`] on the map the masks describe.
    fn observe_masks(&self, masks: RowMasks, written: u64) -> ObservedWord {
        match self {
            Scheme::Unprotected { .. } => ObservedWord {
                value: written ^ masks.observable_error(written),
                reliable: true,
            },
            Scheme::Secded { .. } => {
                let error = masks.observable_error(written);
                if error.count_ones() <= 1 {
                    // A single observable error is corrected by SECDED.
                    ObservedWord::intact(written)
                } else {
                    // Double (or worse) error: detected but not corrected.
                    ObservedWord {
                        value: written ^ error,
                        reliable: false,
                    }
                }
            }
            Scheme::PriorityEcc {
                word_bits,
                protected_bits,
            } => {
                let error = masks.observable_error(written);
                let msb_mask = Self::pecc_msb_mask(*word_bits, *protected_bits);
                if (error & msb_mask).count_ones() <= 1 {
                    // The protected slice is repaired; LSB errors pass through.
                    ObservedWord {
                        value: written ^ (error & !msb_mask),
                        reliable: true,
                    }
                } else {
                    ObservedWord {
                        value: written ^ error,
                        reliable: false,
                    }
                }
            }
            Scheme::BitShuffle(geometry) | Scheme::NaiveShuffle(geometry) => {
                let word_bits = geometry.word_bits();
                let x_fm = match self {
                    // The segment of the highest faulty column; the empty
                    // mask (which has no error to place) keeps segment 0.
                    Scheme::NaiveShuffle(_) => masks
                        .faulty
                        .checked_ilog2()
                        .map_or(0, |msb| geometry.segment_of_bit(msb as usize)),
                    _ => FmLut::choose_shift(*geometry, masks.faulty),
                };
                let shift = geometry
                    .shift_amount(x_fm)
                    .expect("the vote returns a valid segment index");
                // The error at physical column c surfaces at data bit
                // (c + shift) mod W after the un-rotate.
                let error = masks.observable_error(rotate_right(written, shift, word_bits));
                ObservedWord {
                    value: written ^ rotate_left(error, shift, word_bits),
                    reliable: true,
                }
            }
        }
    }

    /// Human-readable name used in reports ("no-correction", "H(22,16) P-ECC",
    /// "bit-shuffle nFM=2", ...). Shard checkpoints store it.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Scheme::Unprotected { .. } => "no-correction".to_owned(),
            Scheme::Secded { word_bits } => {
                let code = Self::secded_code(*word_bits);
                format!("H({},{}) SECDED", code.codeword_bits(), word_bits)
            }
            Scheme::PriorityEcc {
                word_bits,
                protected_bits,
            } => {
                let code = Self::secded_code(*protected_bits);
                format!(
                    "H({},{}) P-ECC on {word_bits}-bit words",
                    code.codeword_bits(),
                    protected_bits
                )
            }
            Scheme::BitShuffle(geometry) => {
                format!("bit-shuffle nFM={}", geometry.n_fm())
            }
            Scheme::NaiveShuffle(geometry) => {
                format!("naive bit-shuffle nFM={}", geometry.n_fm())
            }
        }
    }

    /// Width of the data word the scheme protects.
    #[must_use]
    pub fn word_bits(&self) -> usize {
        match self {
            Scheme::Unprotected { word_bits } | Scheme::Secded { word_bits } => *word_bits,
            Scheme::PriorityEcc { word_bits, .. } => *word_bits,
            Scheme::BitShuffle(geometry) | Scheme::NaiveShuffle(geometry) => geometry.word_bits(),
        }
    }

    /// The value the application observes when `written` was stored at `row`
    /// of a memory with the given fault map: the dense reference evaluator.
    /// It lists the row's columns and looks each fault up in the map,
    /// independently of the column masks
    /// [`observe_sparse`](Scheme::observe_sparse) folds, and the tests hold
    /// the row evaluator to it.
    #[must_use]
    pub fn observe(&self, faults: &FaultMap, row: usize, written: u64) -> ObservedWord {
        let columns = faults.faulty_columns(row);
        let Some(&msb_fault) = columns.last() else {
            return ObservedWord::intact(written);
        };
        match self {
            Scheme::Unprotected { .. } => ObservedWord {
                value: Self::corrupt(faults, row, written),
                reliable: true,
            },
            Scheme::Secded { .. } => {
                let corrupted = Self::corrupt(faults, row, written);
                let error_bits = (corrupted ^ written).count_ones();
                if error_bits <= 1 {
                    // A single observable error is corrected by SECDED.
                    ObservedWord::intact(written)
                } else {
                    // Double (or worse) error: detected but not corrected.
                    ObservedWord {
                        value: corrupted,
                        reliable: false,
                    }
                }
            }
            Scheme::PriorityEcc {
                word_bits,
                protected_bits,
            } => {
                let corrupted = Self::corrupt(faults, row, written);
                let msb_mask = Self::pecc_msb_mask(*word_bits, *protected_bits);
                let msb_errors = ((corrupted ^ written) & msb_mask).count_ones();
                if msb_errors <= 1 {
                    // The protected slice is repaired; LSB errors pass through.
                    ObservedWord {
                        value: (written & msb_mask) | (corrupted & !msb_mask),
                        reliable: true,
                    }
                } else {
                    ObservedWord {
                        value: corrupted,
                        reliable: false,
                    }
                }
            }
            Scheme::BitShuffle(geometry) | Scheme::NaiveShuffle(geometry) => {
                let x_fm = match self {
                    Scheme::NaiveShuffle(_) => geometry.segment_of_bit(msb_fault),
                    _ => {
                        let faulty = columns.iter().fold(0, |mask, &col| mask | 1 << col);
                        FmLut::choose_shift(*geometry, faulty)
                    }
                };
                let shift = geometry
                    .shift_amount(x_fm)
                    .expect("the vote returns a valid segment index");
                let stored = rotate_right(written, shift, geometry.word_bits());
                let corrupted = Self::corrupt(faults, row, stored);
                ObservedWord {
                    value: rotate_left(corrupted, shift, geometry.word_bits()),
                    reliable: true,
                }
            }
        }
    }

    /// The value the application observes when `written` is stored in a row
    /// whose faults are `row_faults`: the one row evaluator.
    ///
    /// `row_faults` is a single row's faults sorted by ascending column —
    /// exactly what [`FaultMap::row_faults`] returns — in a memory whose
    /// words are [`word_bits`](Scheme::word_bits) wide. The empty slice reads
    /// back [`ObservedWord::intact`]`(written)`: readers that visit only
    /// fault-bearing rows rely on it (the MSE kernels and the sparse
    /// `FaultyStore::read_back` of the application crate).
    ///
    /// # Panics
    ///
    /// Panics if a fault's column lies outside the scheme's word.
    #[must_use]
    pub fn observe_sparse(&self, row_faults: &[Fault], written: u64) -> ObservedWord {
        self.observe_masks(RowMasks::from_faults(row_faults, self.word_bits()), written)
    }

    /// Lane-parallel (bit-sliced) evaluation of one faulty row across up to
    /// 64 dies at once.
    ///
    /// `cells` is one row's transposed lane cells, sorted by ascending
    /// column — what a [`DieBlock`](faultmit_memsim::DieBlock) row carries.
    /// For every die `j` of the block and every data bit `c`, bit `j` is
    /// OR-ed into lane `c` of `residual` exactly when
    /// [`observe_sparse`](Scheme::observe_sparse) on die `j`'s row would
    /// deliver a value whose bit `c` differs from `written` — i.e.
    /// [`ResidualLanes::gather_die`]`(j)` equals `written ^ observed.value`.
    pub fn observe_block(&self, cells: &[LaneCell], written: u64, residual: &mut ResidualLanes) {
        match self {
            Scheme::Unprotected { .. } => {
                // Every observable error reaches the application unchanged.
                for cell in cells {
                    residual.accumulate(cell.col as usize, lane_observable_error(cell, written));
                }
            }
            Scheme::Secded { .. } => {
                // Every die's syndrome weight at once: a carry-save fold
                // over the per-column error lanes answers "two or more
                // observable errors?" per die; only those dies keep their
                // corruption.
                let mut counter = LaneCounter::new();
                for cell in cells {
                    counter.add(lane_observable_error(cell, written));
                }
                let uncorrectable = counter.at_least_two();
                if uncorrectable != 0 {
                    for cell in cells {
                        residual.accumulate(
                            cell.col as usize,
                            lane_observable_error(cell, written) & uncorrectable,
                        );
                    }
                }
            }
            Scheme::PriorityEcc {
                word_bits,
                protected_bits,
            } => {
                // The correction radius only counts protected-MSB errors;
                // LSB errors always pass through.
                let msb_mask = Self::pecc_msb_mask(*word_bits, *protected_bits);
                let mut counter = LaneCounter::new();
                for cell in cells {
                    if (msb_mask >> cell.col) & 1 == 1 {
                        counter.add(lane_observable_error(cell, written));
                    }
                }
                let uncorrectable = counter.at_least_two();
                for cell in cells {
                    let err = lane_observable_error(cell, written);
                    let lane = if (msb_mask >> cell.col) & 1 == 1 {
                        err & uncorrectable
                    } else {
                        err
                    };
                    residual.accumulate(cell.col as usize, lane);
                }
            }
            Scheme::BitShuffle(geometry) | Scheme::NaiveShuffle(geometry) => {
                let word_bits = geometry.word_bits();
                // The FM-LUT vote keys on fault *presence* (BIST sees stuck
                // cells whether or not the stored data exposes them).
                let mut presence = LaneCounter::new();
                for cell in cells {
                    presence.add(cell.presence());
                }
                let singles = presence.exactly_one();
                let multi = presence.at_least_two();
                if singles != 0 {
                    // A single-fault die shifts by its fault's segment under
                    // either vote, and its residual can only surface at its
                    // own faulty cell (its presence lane is zero everywhere
                    // else). One pass therefore serves every single-fault
                    // die: the cell's column fixes the segment — and thus
                    // the shift — for all dies voting on it at once.
                    for cell in cells {
                        let group = cell.presence() & singles;
                        if group == 0 {
                            continue;
                        }
                        let shift = geometry
                            .shift_amount(geometry.segment_of_bit(cell.col as usize))
                            .expect("segment_of_bit returns a valid segment index");
                        let stored = rotate_right(written, shift, word_bits);
                        // A physical error at column c surfaces at data
                        // position (c + shift) mod W after the un-rotate.
                        let lane = lane_observable_error(cell, stored) & group;
                        if lane != 0 {
                            let data_pos = (cell.col as usize + shift) & (word_bits - 1);
                            residual.accumulate(data_pos, lane);
                        }
                    }
                }
                if multi != 0 {
                    // A die with several faulty cells in the row is
                    // evaluated on its own, from the column masks gathered
                    // out of the lane cells, like a sparse row.
                    let mut fallback_dies = 0u64;
                    for_each_die(multi, |die| {
                        fallback_dies += 1;
                        let observed =
                            self.observe_masks(RowMasks::from_lanes(cells, die), written);
                        let mut diff = written ^ observed.value;
                        while diff != 0 {
                            let col = diff.trailing_zeros() as usize;
                            diff &= diff - 1;
                            residual.accumulate(col, 1u64 << die);
                        }
                    });
                    obs::count(obs::Counter::ObserveFallbackDies, fallback_dies);
                }
            }
        }
    }

    /// What a read returns when the row's only fault sits at physical
    /// column `col`: the entry agrees with
    /// [`observe_sparse`](Scheme::observe_sparse) on the one-fault slice for
    /// every fault kind and written word. [`SingleFault::Corrected`] means
    /// the read returns `written`, and [`SingleFault::SurfacesAt`]`(b)` means
    /// it returns `written` with bit `b` flipped — always for a bit-flip,
    /// and for a stuck-at cell exactly when bit `b` of `written` differs
    /// from the stuck value.
    ///
    /// # Panics
    ///
    /// Panics if `col` lies outside the scheme's word.
    #[must_use]
    pub fn single_fault(&self, col: usize) -> SingleFault {
        let word_bits = self.word_bits();
        assert!(
            col < word_bits,
            "fault column {col} outside a {word_bits}-bit word"
        );
        match self {
            Scheme::Unprotected { .. } => SingleFault::SurfacesAt(col),
            // One observable error is corrected; an unobservable one
            // leaves nothing to correct.
            Scheme::Secded { .. } => SingleFault::Corrected,
            Scheme::PriorityEcc {
                word_bits,
                protected_bits,
            } => {
                if (Self::pecc_msb_mask(*word_bits, *protected_bits) >> col) & 1 == 1 {
                    SingleFault::Corrected
                } else {
                    SingleFault::SurfacesAt(col)
                }
            }
            // The lone fault picks the shift under either vote; after the
            // un-rotate its error surfaces at data position (col + shift)
            // mod W, where the stored bit is the written word's bit.
            Scheme::BitShuffle(geometry) | Scheme::NaiveShuffle(geometry) => {
                let shift = geometry
                    .shift_amount(geometry.segment_of_bit(col))
                    .expect("segment_of_bit returns a valid segment index");
                SingleFault::SurfacesAt((col + shift) & (word_bits - 1))
            }
        }
    }
}

/// One row's faults as column masks: bit `c` of `faulty` is set when column
/// `c` holds a fault, of `flips` when that fault flips the stored bit, and
/// of `stuck_one` when it is stuck at one (a faulty column in neither is
/// stuck at zero).
#[derive(Debug, Clone, Copy, Default)]
struct RowMasks {
    faulty: u64,
    flips: u64,
    stuck_one: u64,
}

impl RowMasks {
    /// Folds a row slice with distinct columns into masks.
    ///
    /// # Panics
    ///
    /// Panics if a column lies outside the `word_bits`-bit word.
    fn from_faults(row_faults: &[Fault], word_bits: usize) -> Self {
        let mut masks = Self::default();
        for fault in row_faults {
            assert!(
                fault.col < word_bits,
                "fault column {} outside a {word_bits}-bit word",
                fault.col
            );
            let bit = 1u64 << fault.col;
            masks.faulty |= bit;
            match fault.kind {
                FaultKind::BitFlip => masks.flips |= bit,
                FaultKind::StuckAtOne => masks.stuck_one |= bit,
                FaultKind::StuckAtZero => {}
            }
        }
        masks
    }

    /// Die `die`'s masks, gathered from one row's lane cells in one pass.
    fn from_lanes(cells: &[LaneCell], die: usize) -> Self {
        let mut masks = Self::default();
        for cell in cells {
            masks.faulty |= ((cell.presence() >> die) & 1) << cell.col;
            masks.flips |= ((cell.flips >> die) & 1) << cell.col;
            masks.stuck_one |= (((cell.stuck & cell.stuck_value) >> die) & 1) << cell.col;
        }
        masks
    }

    /// The columns whose read of `stored` differs from it: every flip, and
    /// each stuck cell whose value differs from the stored bit.
    #[inline]
    fn observable_error(&self, stored: u64) -> u64 {
        self.flips | (self.faulty & !self.flips & (stored ^ self.stuck_one))
    }
}

/// The *observable-error* lane of one transposed cell: bit `j` set ⇔ die
/// `j`'s read of `stored` at this cell's column differs from `stored` — a
/// bit-flip always corrupts, a stuck cell only when its stuck value differs
/// from the stored bit.
#[inline]
fn lane_observable_error(cell: &LaneCell, stored: u64) -> u64 {
    // Broadcast the stored bit to every die lane (all-ones iff the bit is 1).
    let stored_lane = 0u64.wrapping_sub((stored >> cell.col) & 1);
    cell.flips | (cell.stuck & (cell.stuck_value ^ stored_lane))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_memsim::{Fault, MemoryConfig};

    fn map(faults: &[Fault]) -> FaultMap {
        let config = MemoryConfig::new(16, 32).unwrap();
        FaultMap::from_faults(config, faults.iter().copied()).unwrap()
    }

    /// A deterministic LCG stream for the hand-built fault populations.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    fn random_kind(next: &mut impl FnMut() -> u64) -> FaultKind {
        match next() % 3 {
            0 => FaultKind::StuckAtZero,
            1 => FaultKind::StuckAtOne,
            _ => FaultKind::BitFlip,
        }
    }

    /// `count` faults of mixed kinds in distinct columns of row 0 of a
    /// `word_bits`-bit word, sorted by column: up to a full row.
    fn dense_row(next: &mut impl FnMut() -> u64, word_bits: usize, count: usize) -> Vec<Fault> {
        let mut cols: Vec<usize> = (0..word_bits).collect();
        for i in 0..count {
            let j = i + (next() as usize) % (word_bits - i);
            cols.swap(i, j);
        }
        let mut faults: Vec<Fault> = cols[..count]
            .iter()
            .map(|&col| Fault::new(0, col, random_kind(next)))
            .collect();
        faults.sort_by_key(|f| f.col);
        faults
    }

    /// Every scheme shape at one word width: no protection, SECDED, P-ECC
    /// on the top half and bit-shuffling under both votes at every `n_FM`.
    fn schemes_for_width(word_bits: usize) -> Vec<Scheme> {
        let mut schemes = vec![
            Scheme::Unprotected { word_bits },
            Scheme::Secded { word_bits },
            Scheme::PriorityEcc {
                word_bits,
                protected_bits: word_bits / 2,
            },
        ];
        for geometry in SegmentGeometry::all_for_word(word_bits).unwrap() {
            schemes.extend([Scheme::BitShuffle(geometry), Scheme::NaiveShuffle(geometry)]);
        }
        schemes
    }

    /// The shift ablation's naive vote at every `n_FM` of a 32-bit word.
    fn naive32() -> impl Iterator<Item = Scheme> {
        (1..=5).map(|n_fm| Scheme::NaiveShuffle(SegmentGeometry::new(32, n_fm).unwrap()))
    }

    /// Written words for a width: the extremes, a mixed word and the two
    /// end bits.
    fn written_words(word_bits: usize) -> [u64; 4] {
        let mask = u64::MAX >> (64 - word_bits);
        [
            0,
            mask,
            0xDEAD_BEEF_DEAD_BEEF & mask,
            1 << (word_bits - 1) | 1,
        ]
    }

    #[test]
    fn scheme_names_match_paper_terminology() {
        assert_eq!(Scheme::unprotected32().name(), "no-correction");
        assert_eq!(Scheme::secded32().name(), "H(39,32) SECDED");
        assert!(Scheme::pecc32().name().contains("H(22,16) P-ECC"));
        assert_eq!(Scheme::shuffle32(3).unwrap().name(), "bit-shuffle nFM=3");
        let geometry = SegmentGeometry::new(32, 2).unwrap();
        assert_eq!(
            Scheme::NaiveShuffle(geometry).name(),
            "naive bit-shuffle nFM=2"
        );
    }

    #[test]
    fn catalogue_contents() {
        assert_eq!(Scheme::fig5_catalogue().len(), 7);
        assert_eq!(Scheme::fig7_catalogue().len(), 5);
        assert!(Scheme::shuffle32(0).is_err());
        assert!(Scheme::shuffle32(6).is_err());
    }

    #[test]
    fn fault_free_rows_are_intact_under_every_scheme() {
        // The `observe` contract that sparse readers rely on: a row without
        // faults reads back what was written, whatever the rest of the map
        // holds — multi-fault rows, stuck-at cells, or nothing at all.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut schemes = Scheme::fig5_catalogue();
        schemes.extend(Scheme::fig7_catalogue());
        schemes.extend(naive32());
        let mut rng = StdRng::seed_from_u64(761);
        let mut maps = vec![map(&[])];
        for _ in 0..24 {
            let faults: Vec<Fault> = (0..rng.gen_range(1usize..12))
                .map(|_| {
                    let (row, col) = (rng.gen_range(0usize..16), rng.gen_range(0usize..32));
                    match rng.gen_range(0u32..3) {
                        0 => Fault::bit_flip(row, col),
                        1 => Fault::stuck_at_zero(row, col),
                        _ => Fault::stuck_at_one(row, col),
                    }
                })
                .collect();
            maps.push(map(&faults));
        }
        for faults in &maps {
            for row in (0..16).filter(|&row| !faults.row_has_fault(row)) {
                for scheme in &schemes {
                    for written in [0, 0xFFFF_FFFF, 0xDEAD_BEEF, rng.gen_range(0u64..1 << 32)] {
                        assert_eq!(
                            scheme.observe(faults, row, written),
                            ObservedWord::intact(written),
                            "{} row {row} written={written:#x} faults={:?}",
                            scheme.name(),
                            faults.iter().collect::<Vec<_>>()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unprotected_scheme_exposes_full_error() {
        let faults = map(&[Fault::bit_flip(0, 31)]);
        let scheme = Scheme::unprotected32();
        let observed = scheme.observe(&faults, 0, 0);
        assert_eq!(observed.value, 1 << 31);
        assert!(observed.reliable);
        assert_eq!(scheme.worst_case_error_magnitude(31), 1 << 31);
    }

    #[test]
    fn secded_corrects_single_fault_and_flags_double() {
        let scheme = Scheme::secded32();
        let single = map(&[Fault::bit_flip(1, 20)]);
        assert_eq!(
            scheme.observe(&single, 1, 0xABCD_0123),
            ObservedWord::intact(0xABCD_0123)
        );
        let double = map(&[Fault::bit_flip(1, 20), Fault::bit_flip(1, 3)]);
        let observed = scheme.observe(&double, 1, 0xABCD_0123);
        assert!(!observed.reliable);
        assert_eq!(scheme.worst_case_error_magnitude(31), 0);
    }

    #[test]
    fn secded_treats_silent_stuck_at_as_no_error() {
        // Two stuck-at faults whose stored values happen to match: no
        // observable error, so the word stays reliable and intact.
        let scheme = Scheme::secded32();
        let faults = map(&[Fault::stuck_at_one(2, 5), Fault::stuck_at_zero(2, 9)]);
        let written = 1 << 5; // bit 5 already 1, bit 9 already 0
        let observed = scheme.observe(&faults, 2, written);
        assert_eq!(observed, ObservedWord::intact(written));
    }

    #[test]
    fn pecc_corrects_msb_faults_only() {
        let scheme = Scheme::pecc32();
        // Fault in the protected MSB half: corrected.
        let msb = map(&[Fault::bit_flip(0, 30)]);
        assert_eq!(
            scheme.observe(&msb, 0, 0x0F0F_0F0F),
            ObservedWord::intact(0x0F0F_0F0F)
        );
        // Fault in the unprotected LSB half: passes through.
        let lsb = map(&[Fault::bit_flip(0, 7)]);
        let observed = scheme.observe(&lsb, 0, 0x0F0F_0F0F);
        assert_eq!(observed.value, 0x0F0F_0F0F ^ (1 << 7));
        assert!(observed.reliable);
        // Worst-case magnitudes reflect the partition.
        assert_eq!(scheme.worst_case_error_magnitude(31), 0);
        assert_eq!(scheme.worst_case_error_magnitude(15), 1 << 15);
    }

    #[test]
    fn pecc_flags_double_msb_error() {
        let scheme = Scheme::pecc32();
        let faults = map(&[Fault::bit_flip(0, 30), Fault::bit_flip(0, 20)]);
        let observed = scheme.observe(&faults, 0, 0);
        assert!(!observed.reliable);
    }

    #[test]
    fn pecc_corrects_one_msb_error_while_lsb_error_passes() {
        let scheme = Scheme::pecc32();
        let faults = map(&[Fault::bit_flip(0, 30), Fault::bit_flip(0, 2)]);
        let observed = scheme.observe(&faults, 0, 0);
        assert_eq!(observed.value, 1 << 2);
        assert!(observed.reliable);
    }

    #[test]
    fn bit_shuffle_bounds_error_for_any_single_fault() {
        for n_fm in 1..=5usize {
            let scheme = Scheme::shuffle32(n_fm).unwrap();
            let bound = SegmentGeometry::new(32, n_fm)
                .unwrap()
                .max_error_magnitude();
            for col in 0..32usize {
                let faults = map(&[Fault::bit_flip(3, col)]);
                for &written in &[0u64, 0xFFFF_FFFF, 0x8765_4321] {
                    let observed = scheme.observe(&faults, 3, written);
                    assert!(observed.reliable);
                    assert!(
                        observed.value.abs_diff(written) <= bound,
                        "n_FM {n_fm}, col {col}"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_shuffle_matches_worst_case_profile() {
        let scheme = Scheme::shuffle32(2).unwrap();
        assert_eq!(scheme.worst_case_error_magnitude(31), 1 << 7);
        assert_eq!(scheme.worst_case_error_magnitude(8), 1);
        assert_eq!(scheme.worst_case_error_magnitude(0), 1);
    }

    #[test]
    fn extra_bits_per_row_match_paper_configurations() {
        assert_eq!(Scheme::unprotected32().extra_bits_per_row(), 0);
        assert_eq!(Scheme::secded32().extra_bits_per_row(), 7);
        assert_eq!(Scheme::pecc32().extra_bits_per_row(), 6);
        assert_eq!(Scheme::shuffle32(1).unwrap().extra_bits_per_row(), 1);
        assert_eq!(Scheme::shuffle32(5).unwrap().extra_bits_per_row(), 5);
    }

    #[test]
    fn observe_sparse_matches_observe_for_every_scheme() {
        // The row evaluator must equal the dense reference on the map whose
        // row slice was passed in — for every catalogue scheme and the naive
        // vote, every kind mix, and both sparse and dense rows.
        let mut cases: Vec<Vec<Fault>> = vec![
            vec![],
            vec![Fault::bit_flip(0, 31)],
            vec![Fault::stuck_at_one(0, 5), Fault::stuck_at_zero(0, 9)],
            vec![
                Fault::bit_flip(0, 0),
                Fault::bit_flip(0, 15),
                Fault::bit_flip(0, 16),
                Fault::stuck_at_one(0, 30),
            ],
            (0..32).map(|col| Fault::bit_flip(0, col)).collect(),
        ];
        // Every lone fault of every kind, and random rows of 2..=32 faults
        // of mixed kinds.
        for col in 0..32 {
            cases.extend(FaultKind::ALL.map(|kind| vec![Fault::new(0, col, kind)]));
        }
        let mut next_row = lcg(0x0A1B_5EED);
        for count in 2..=32 {
            for _ in 0..6 {
                cases.push(dense_row(&mut next_row, 32, count));
            }
        }
        let mut schemes = Scheme::fig5_catalogue();
        schemes.push(Scheme::secded32());
        schemes.extend(naive32());
        // Dense multi-fault rows of mixed kinds, two faults up to a full
        // row, on 32- and 64-bit words, against every scheme shape.
        let mut next = lcg(0x5EA5_E0B5);
        let mut wide_cases: Vec<(usize, Vec<Fault>)> = Vec::new();
        for word_bits in [32usize, 64] {
            for count in 2..=word_bits {
                for _ in 0..4 {
                    wide_cases.push((word_bits, dense_row(&mut next, word_bits, count)));
                }
            }
        }
        for faults in &cases {
            let map = map(faults);
            let slice = map.row_faults(0);
            let mut words = vec![0u64, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001];
            words.extend((0..4).map(|_| next_row() & 0xFFFF_FFFF));
            for scheme in &schemes {
                for &written in &words {
                    assert_eq!(
                        scheme.observe_sparse(slice, written),
                        scheme.observe(&map, 0, written),
                        "{} written={written:#x} faults={faults:?}",
                        scheme.name()
                    );
                }
            }
        }
        for (word_bits, faults) in &wide_cases {
            let config = MemoryConfig::new(16, *word_bits).unwrap();
            let map = FaultMap::from_faults(config, faults.iter().copied()).unwrap();
            let slice = map.row_faults(0);
            for scheme in &schemes_for_width(*word_bits) {
                for written in written_words(*word_bits) {
                    assert_eq!(
                        scheme.observe_sparse(slice, written),
                        scheme.observe(&map, 0, written),
                        "{} written={written:#x} faults={faults:?}",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn observe_reads_a_map_row_as_observe_sparse_reads_its_slice() {
        let faults = map(&[
            Fault::bit_flip(2, 0),
            Fault::stuck_at_one(2, 7),
            Fault::bit_flip(5, 31),
        ]);
        let scheme = Scheme::unprotected32();
        assert_eq!(
            scheme.observe_sparse(&[Fault::bit_flip(0, 3)], 0),
            ObservedWord {
                value: 1 << 3,
                reliable: true
            }
        );
        assert_eq!(scheme.observe(&faults, 5, 0).value, 1 << 31);
        assert_eq!(scheme.observe(&faults, 2, 0).value, 0b1000_0001);
        assert_eq!(scheme.observe(&faults, 3, 9), ObservedWord::intact(9));
    }

    #[test]
    fn the_two_votes_shift_a_straddling_pair_apart() {
        // At n_FM = 1 the word has two 16-bit segments. Flips at columns
        // 15 and 16 straddle them: the naive vote aligns to the MSB fault's
        // segment and rotates by 16, which lands column 15 on data bit 31,
        // while the FM-LUT vote keeps the row unshifted.
        let geometry = SegmentGeometry::new(32, 1).unwrap();
        let faults = map(&[Fault::bit_flip(0, 15), Fault::bit_flip(0, 16)]);
        for (scheme, value) in [
            (Scheme::NaiveShuffle(geometry), 1 | 1 << 31),
            (Scheme::BitShuffle(geometry), 1 << 15 | 1 << 16),
        ] {
            let expected = ObservedWord {
                value,
                reliable: true,
            };
            assert_eq!(scheme.observe_sparse(faults.row_faults(0), 0), expected);
            assert_eq!(scheme.observe(&faults, 0, 0), expected, "{}", scheme.name());
        }
    }

    #[test]
    #[should_panic(expected = "outside a 16-bit word")]
    fn observe_sparse_panics_on_a_column_outside_the_word() {
        let _ = Scheme::Unprotected { word_bits: 16 }.observe_sparse(&[Fault::bit_flip(0, 20)], 0);
    }

    #[test]
    fn observe_block_matches_observe_sparse_for_every_scheme() {
        // Build a 64-die row population with a deterministic LCG, transpose
        // it into lane cells by hand, and require the residual of every die
        // to equal `written ^ observe_sparse(...).value` bit for bit —
        // covering single-fault dies, fault-heavy dies, silent stuck cells
        // and fault-free dies in the same block. The dense rounds give die
        // `j` `13·j mod (W + 1)` faults of mixed kinds, up to a full row,
        // on 32- and 64-bit words.
        let mut next = lcg(0xB10C_5EED);
        let mut catalogue = Scheme::fig5_catalogue();
        catalogue.push(Scheme::secded32());
        // The P-ECC protected-width sweep, up to the whole word.
        catalogue.extend((1..=8).map(|i| Scheme::PriorityEcc {
            word_bits: 32,
            protected_bits: 4 * i,
        }));
        for (word_bits, dense) in [(32usize, false), (32, true), (64, true)] {
            let mut schemes = schemes_for_width(word_bits);
            if word_bits == 32 {
                schemes.extend(&catalogue);
            }
            for round in 0..8u64 {
                let mut dies: Vec<Vec<Fault>> = Vec::new();
                for die in 0..64usize {
                    if dense {
                        dies.push(dense_row(
                            &mut next,
                            word_bits,
                            (13 * die) % (word_bits + 1),
                        ));
                        continue;
                    }
                    // Die j gets j % 5 faults (die 0 stays fault-free on
                    // purpose).
                    let mut faults: Vec<Fault> = Vec::new();
                    for _ in 0..die % 5 {
                        let col = (next() as usize) % word_bits;
                        if faults.iter().any(|f| f.col == col) {
                            continue;
                        }
                        faults.push(Fault::new(0, col, random_kind(&mut next)));
                    }
                    faults.sort_by_key(|f| f.col);
                    dies.push(faults);
                }
                // Hand-rolled transposition into sorted lane cells.
                let mut cells: Vec<LaneCell> = Vec::new();
                for col in 0..word_bits as u32 {
                    let mut cell = LaneCell {
                        col,
                        flips: 0,
                        stuck: 0,
                        stuck_value: 0,
                    };
                    for (die, faults) in dies.iter().enumerate() {
                        for fault in faults.iter().filter(|f| f.col == col as usize) {
                            let bit = 1u64 << die;
                            match fault.kind {
                                FaultKind::BitFlip => cell.flips |= bit,
                                FaultKind::StuckAtOne => {
                                    cell.stuck |= bit;
                                    cell.stuck_value |= bit;
                                }
                                FaultKind::StuckAtZero => cell.stuck |= bit,
                            }
                        }
                    }
                    if cell.flips | cell.stuck != 0 {
                        cells.push(cell);
                    }
                }
                for scheme in &schemes {
                    for written in written_words(word_bits) {
                        let mut residual = ResidualLanes::new();
                        scheme.observe_block(&cells, written, &mut residual);
                        for (die, faults) in dies.iter().enumerate() {
                            let observed = scheme.observe_sparse(faults, written);
                            assert_eq!(
                                residual.gather_die(die),
                                written ^ observed.value,
                                "W {word_bits}, round {round}, {}, die {die}, written {written:#x}, faults {faults:?}",
                                scheme.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn in_tree_schemes_have_a_block_path_and_single_fault_entries() {
        let mut residual = ResidualLanes::new();
        let cell = LaneCell {
            col: 3,
            flips: 0b1,
            stuck: 0,
            stuck_value: 0,
        };
        Scheme::unprotected32().observe_block(&[cell], 0, &mut residual);
        assert_eq!(residual.gather_die(0), 1 << 3);
        // The analysis crate pins every entry against `observe_sparse`.
        assert_eq!(Scheme::pecc32().single_fault(31), SingleFault::Corrected);
        assert_eq!(
            Scheme::shuffle32(5).unwrap().single_fault(3),
            SingleFault::SurfacesAt(0),
            "nFM=5 rotates a lone bit-3 fault down to bit 0"
        );
    }

    #[test]
    #[should_panic(expected = "fault column 32 outside a 32-bit word")]
    fn single_fault_panics_on_a_column_outside_the_word() {
        let _ = Scheme::pecc32().single_fault(32);
    }

    #[test]
    fn pecc_on_64_bit_words_corrects_the_top_half() {
        // H(39,32) over the 32 MSBs of a 64-bit word: building the mask
        // must not shift by the word width.
        let scheme = Scheme::PriorityEcc {
            word_bits: 64,
            protected_bits: 32,
        };
        assert_eq!(Scheme::pecc_msb_mask(64, 32), 0xFFFF_FFFF_0000_0000);
        assert_eq!(Scheme::pecc_msb_mask(64, 64), u64::MAX);
        assert_eq!(Scheme::pecc_msb_mask(32, 16), 0xFFFF_0000);
        let config = MemoryConfig::new(16, 64).unwrap();
        let msb = FaultMap::from_faults(config, [Fault::bit_flip(3, 63)]).unwrap();
        assert_eq!(scheme.observe(&msb, 3, 0), ObservedWord::intact(0));
        assert_eq!(
            scheme.observe_sparse(msb.row_faults(3), 0),
            ObservedWord::intact(0)
        );
        let lsb = FaultMap::from_faults(config, [Fault::bit_flip(3, 31)]).unwrap();
        assert_eq!(scheme.observe(&lsb, 3, 0).value, 1 << 31);
        assert_eq!(scheme.single_fault(63), SingleFault::Corrected);
        assert_eq!(scheme.single_fault(31), SingleFault::SurfacesAt(31));
        // Two protected-half errors are detected, not corrected.
        let double =
            FaultMap::from_faults(config, [Fault::bit_flip(3, 63), Fault::bit_flip(3, 40)])
                .unwrap();
        assert!(!scheme.observe(&double, 3, 0).reliable);
    }

    #[test]
    fn shuffle_quality_dominates_pecc_for_lsb_half_faults() {
        // P-ECC leaves the low half of the word unprotected: a fault at bit 15
        // costs 2^15. Bit-shuffling with nFM >= 2 remaps that fault onto a
        // low-order data bit, so its error is bounded by 2^(S-1) < 2^15.
        let faults = map(&[Fault::bit_flip(0, 15)]);
        let written = 0x7FFF_8000u64;
        let pecc_err = Scheme::pecc32()
            .observe(&faults, 0, written)
            .value
            .abs_diff(written);
        assert_eq!(pecc_err, 1 << 15);
        for n_fm in 2..=5 {
            let shuffle_err = Scheme::shuffle32(n_fm)
                .unwrap()
                .observe(&faults, 0, written)
                .value
                .abs_diff(written);
            assert!(
                shuffle_err < pecc_err,
                "nFM={n_fm}: shuffle {shuffle_err} vs pecc {pecc_err}"
            );
        }
    }
}
