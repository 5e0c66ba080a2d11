//! A uniform interface over all protection schemes compared in the paper.
//!
//! The paper's Monte-Carlo evaluations (Fig. 5 and Fig. 7) compare *no
//! protection*, *H(39,32) SECDED ECC*, *H(22,16) P-ECC* and *bit-shuffling
//! with various segment sizes* on identical fault maps drawn over the data
//! array. [`MitigationScheme`] captures the per-word behaviour each scheme
//! exhibits for a given set of faulty data columns, and [`Scheme`] is the
//! concrete catalogue of all configurations used in the paper.
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
    corrupt_word, Fault, FaultKind, FaultMap, Lane, LaneCell, ResidualLanes, W256,
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

    /// Signed error relative to the originally written value, interpreting
    /// both as 2's-complement integers of `word_bits` bits.
    #[must_use]
    pub fn signed_error(&self, written: u64, word_bits: usize) -> i64 {
        to_signed(self.value, word_bits) - to_signed(written, word_bits)
    }
}

fn to_signed(value: u64, word_bits: usize) -> i64 {
    if word_bits == 64 {
        value as i64
    } else {
        let sign_bit = 1u64 << (word_bits - 1);
        if value & sign_bit != 0 {
            (value as i64) - (1i64 << word_bits)
        } else {
            value as i64
        }
    }
}

/// Behaviour of a fault-mitigation scheme on a single memory word.
pub trait MitigationScheme {
    /// Human-readable name used in reports ("no-correction", "H(22,16) P-ECC",
    /// "bit-shuffle nFM=2", ...).
    fn name(&self) -> String;

    /// Width of the data word the scheme protects.
    fn word_bits(&self) -> usize;

    /// The value the application observes when `written` was stored at `row`
    /// of a memory with the given fault map.
    ///
    /// A row with no faults must read back [`ObservedWord::intact`]`(written)`,
    /// whatever the map holds elsewhere. Readers that visit only
    /// fault-bearing rows rely on it: the sparse MSE kernels and the sparse
    /// `FaultyStore::read_back` of the application crate.
    fn observe(&self, faults: &FaultMap, row: usize, written: u64) -> ObservedWord;

    /// Allocation-free fast path over one row's fault slice.
    ///
    /// `row_faults` must be a single row's faults sorted by ascending column
    /// — exactly what [`FaultMap::row_faults`] returns. When a scheme
    /// answers `Some(observed)`, the result must be **identical** to
    /// [`MitigationScheme::observe`] on the map that produced the slice;
    /// `None` means the scheme has no sparse path (or the slice falls
    /// outside it) and the caller must fall back to `observe`. The default
    /// always falls back, so custom schemes stay correct without opting in.
    fn observe_sparse(&self, row_faults: &[Fault], written: u64) -> Option<ObservedWord> {
        let _ = (row_faults, written);
        None
    }

    /// Lane-parallel (bit-sliced) evaluation of one faulty row across up to
    /// 64 dies at once.
    ///
    /// `cells` is one row's transposed lane cells, sorted by ascending
    /// column — what a [`DieBlock`](faultmit_memsim::DieBlock) row carries.
    /// When a scheme answers `true` it has OR-ed, for every die `j` of the
    /// block and every data bit `c`, bit `j` into lane `c` of `residual`
    /// exactly when `observe` on die `j`'s map would deliver a value whose
    /// bit `c` differs from `written` — i.e.
    /// [`ResidualLanes::gather_die`]`(j)` equals `written ^ observed.value`.
    /// `false` means the scheme has no block path and the caller must fall
    /// back to per-die evaluation; the default always falls back, so custom
    /// schemes stay correct without opting in.
    fn observe_block(
        &self,
        cells: &[LaneCell],
        written: u64,
        residual: &mut ResidualLanes,
    ) -> bool {
        let _ = (cells, written, residual);
        false
    }

    /// The 256-die twin of [`MitigationScheme::observe_block`], evaluating
    /// one faulty row across up to 256 dies packed into [`W256`] lanes.
    ///
    /// Same contract as `observe_block`, at the wider lane width. The two
    /// methods are concrete (not generic) so the trait stays object-safe;
    /// the campaign kernels dispatch between them through
    /// [`BlockLane::observe_block_on`]. The default falls back, so custom
    /// schemes stay correct without opting in — the wide kernel then
    /// evaluates their dies through [`MitigationScheme::observe_sparse`].
    fn observe_block_wide(
        &self,
        cells: &[LaneCell<W256>],
        written: u64,
        residual: &mut ResidualLanes<W256>,
    ) -> bool {
        let _ = (cells, written, residual);
        false
    }

    /// Worst-case error magnitude caused by a single fault at data bit
    /// position `bit` (0 when the scheme corrects such a fault).
    fn worst_case_error_magnitude(&self, bit: usize) -> u64;

    /// Extra storage bits the scheme adds to every row (parity bits for ECC,
    /// LUT bits for bit-shuffling).
    fn extra_bits_per_row(&self) -> usize;
}

impl<T: MitigationScheme + ?Sized> MitigationScheme for &T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn word_bits(&self) -> usize {
        (**self).word_bits()
    }

    fn observe(&self, faults: &FaultMap, row: usize, written: u64) -> ObservedWord {
        (**self).observe(faults, row, written)
    }

    fn observe_sparse(&self, row_faults: &[Fault], written: u64) -> Option<ObservedWord> {
        (**self).observe_sparse(row_faults, written)
    }

    fn observe_block(
        &self,
        cells: &[LaneCell],
        written: u64,
        residual: &mut ResidualLanes,
    ) -> bool {
        (**self).observe_block(cells, written, residual)
    }

    fn observe_block_wide(
        &self,
        cells: &[LaneCell<W256>],
        written: u64,
        residual: &mut ResidualLanes<W256>,
    ) -> bool {
        (**self).observe_block_wide(cells, written, residual)
    }

    fn worst_case_error_magnitude(&self, bit: usize) -> u64 {
        (**self).worst_case_error_magnitude(bit)
    }

    fn extra_bits_per_row(&self) -> usize {
        (**self).extra_bits_per_row()
    }
}

/// Lane-width dispatch for the bit-sliced campaign kernels.
///
/// [`MitigationScheme`] exposes one concrete block observer per supported
/// width ([`observe_block`](MitigationScheme::observe_block) for `u64`,
/// [`observe_block_wide`](MitigationScheme::observe_block_wide) for
/// [`W256`]) so the trait stays object-safe. Width-generic callers — the
/// block MSE reduction in `faultmit-analysis` — bound their lane parameter
/// by `BlockLane` and call [`BlockLane::observe_block_on`], which routes to
/// the observer matching `L`. A scheme that opted into only one width
/// returns `false` at the other and falls back to its per-die sparse path,
/// so correctness never depends on the width chosen.
pub trait BlockLane: Lane {
    /// Calls `scheme`'s block observer for this lane width. Returns `false`
    /// when the scheme has no block path at this width (the caller must
    /// then evaluate die by die).
    fn observe_block_on<S: MitigationScheme + ?Sized>(
        scheme: &S,
        cells: &[LaneCell<Self>],
        written: u64,
        residual: &mut ResidualLanes<Self>,
    ) -> bool;
}

impl BlockLane for u64 {
    #[inline]
    fn observe_block_on<S: MitigationScheme + ?Sized>(
        scheme: &S,
        cells: &[LaneCell],
        written: u64,
        residual: &mut ResidualLanes,
    ) -> bool {
        scheme.observe_block(cells, written, residual)
    }
}

impl BlockLane for W256 {
    #[inline]
    fn observe_block_on<S: MitigationScheme + ?Sized>(
        scheme: &S,
        cells: &[LaneCell<W256>],
        written: u64,
        residual: &mut ResidualLanes<W256>,
    ) -> bool {
        scheme.observe_block_wide(cells, written, residual)
    }
}

/// The catalogue of protection schemes evaluated in the paper.
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
    /// Significance-driven bit-shuffling with the given segment geometry.
    BitShuffle(SegmentGeometry),
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

    /// [`Scheme::corrupt`] over a sorted row slice: same fault order (the
    /// slice is sorted by column, like `faulty_columns`), no map lookups.
    fn corrupt_slice(row_faults: &[Fault], stored: u64) -> u64 {
        let mut observed = stored;
        for fault in row_faults {
            observed = corrupt_word(observed, fault.col, fault.kind);
        }
        observed
    }

    /// The P-ECC protected-MSB mask for the given partition.
    fn pecc_msb_mask(word_bits: usize, protected_bits: usize) -> u64 {
        let unprotected_bits = word_bits - protected_bits;
        if word_bits == 64 && unprotected_bits == 0 {
            u64::MAX
        } else {
            (((1u64 << protected_bits) - 1) << unprotected_bits) & ((1u64 << word_bits) - 1)
        }
    }

    /// The width-generic body behind both block observers
    /// ([`MitigationScheme::observe_block`] and
    /// [`MitigationScheme::observe_block_wide`]): one algorithm, evaluated
    /// at whichever [`Lane`] width the campaign kernel selected. Every fold
    /// is pure lane algebra, so the per-die results are identical at any
    /// width by construction.
    fn observe_block_lanes<L: Lane>(
        &self,
        cells: &[LaneCell<L>],
        written: u64,
        residual: &mut ResidualLanes<L>,
    ) -> bool {
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
                let mut counter = LaneCounter::<L>::new();
                for cell in cells {
                    counter.add(lane_observable_error(cell, written));
                }
                let uncorrectable = counter.at_least_two();
                if !uncorrectable.is_zero() {
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
                let mut counter = LaneCounter::<L>::new();
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
            Scheme::BitShuffle(geometry) => {
                let word_bits = geometry.word_bits();
                // The FM-LUT vote keys on fault *presence* (BIST sees stuck
                // cells whether or not the stored data exposes them).
                let mut presence = LaneCounter::<L>::new();
                for cell in cells {
                    presence.add(cell.presence());
                }
                let singles = presence.exactly_one();
                let multi = presence.at_least_two();
                if !singles.is_zero() {
                    // A single-fault die shifts by its fault's segment, and
                    // its residual can only surface at its own faulty cell
                    // (its presence lane is zero everywhere else). One pass
                    // therefore serves every single-fault die: the cell's
                    // column fixes the segment — and thus the shift — for
                    // all dies voting on it at once.
                    for cell in cells {
                        let group = cell.presence() & singles;
                        if group.is_zero() {
                            continue;
                        }
                        let shift = geometry
                            .shift_amount(geometry.segment_of_bit(cell.col as usize))
                            .expect("segment_of_bit returns a valid segment index");
                        let stored = rotate_right(written, shift, word_bits);
                        // A physical error at column c surfaces at data
                        // position (c + shift) mod W after the un-rotate.
                        let lane = lane_observable_error(cell, stored) & group;
                        if !lane.is_zero() {
                            let data_pos = (cell.col as usize + shift) & (word_bits - 1);
                            residual.accumulate(data_pos, lane);
                        }
                    }
                }
                if !multi.is_zero() {
                    // Dies with several faulty cells in the row are rare at
                    // campaign densities; rebuild their sorted fault slice
                    // on the stack and reuse the scalar sparse path.
                    let mut scratch = [Fault::bit_flip(0, 0); 64];
                    let mut fallback_dies = 0u64;
                    multi.for_each_die(|die| {
                        fallback_dies += 1;
                        let mut len = 0;
                        for cell in cells {
                            if cell.presence().bit(die) != 0 {
                                let kind = if cell.flips.bit(die) != 0 {
                                    FaultKind::BitFlip
                                } else if cell.stuck_value.bit(die) != 0 {
                                    FaultKind::StuckAtOne
                                } else {
                                    FaultKind::StuckAtZero
                                };
                                scratch[len] = Fault::new(0, cell.col as usize, kind);
                                len += 1;
                            }
                        }
                        let observed = self
                            .observe_sparse(&scratch[..len], written)
                            .expect("a word has at most 64 columns");
                        let mut diff = written ^ observed.value;
                        while diff != 0 {
                            let col = diff.trailing_zeros() as usize;
                            diff &= diff - 1;
                            residual.accumulate(col, L::lane_bit(die));
                        }
                    });
                    obs::count(obs::Counter::ObserveFallbackDies, fallback_dies);
                }
            }
        }
        true
    }
}

/// The *observable-error* lane of one transposed cell: bit `j` set ⇔ die
/// `j`'s read of `stored` at this cell's column differs from `stored` — a
/// bit-flip always corrupts, a stuck cell only when its stuck value differs
/// from the stored bit.
#[inline]
fn lane_observable_error<L: Lane>(cell: &LaneCell<L>, stored: u64) -> L {
    // Broadcast the stored bit to every die lane (all-ones iff the bit is 1).
    let stored_lane = L::splat(0u64.wrapping_sub((stored >> cell.col) & 1));
    cell.flips | (cell.stuck & (cell.stuck_value ^ stored_lane))
}

impl MitigationScheme for Scheme {
    fn name(&self) -> String {
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
        }
    }

    fn word_bits(&self) -> usize {
        match self {
            Scheme::Unprotected { word_bits } | Scheme::Secded { word_bits } => *word_bits,
            Scheme::PriorityEcc { word_bits, .. } => *word_bits,
            Scheme::BitShuffle(geometry) => geometry.word_bits(),
        }
    }

    fn observe(&self, faults: &FaultMap, row: usize, written: u64) -> ObservedWord {
        let columns = faults.faulty_columns(row);
        if columns.is_empty() {
            return ObservedWord::intact(written);
        }
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
                let unprotected_bits = word_bits - protected_bits;
                let msb_mask = if *word_bits == 64 && unprotected_bits == 0 {
                    u64::MAX
                } else {
                    (((1u64 << protected_bits) - 1) << unprotected_bits) & ((1u64 << word_bits) - 1)
                };
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
            Scheme::BitShuffle(geometry) => {
                let x_fm = FmLut::choose_shift(*geometry, &columns);
                let shift = geometry
                    .shift_amount(x_fm)
                    .expect("choose_shift returns a valid segment index");
                let stored = rotate_right(written, shift, geometry.word_bits());
                let corrupted = Self::corrupt(faults, row, stored);
                ObservedWord {
                    value: rotate_left(corrupted, shift, geometry.word_bits()),
                    reliable: true,
                }
            }
        }
    }

    fn observe_sparse(&self, row_faults: &[Fault], written: u64) -> Option<ObservedWord> {
        if row_faults.is_empty() {
            return Some(ObservedWord::intact(written));
        }
        Some(match self {
            Scheme::Unprotected { .. } => ObservedWord {
                value: Self::corrupt_slice(row_faults, written),
                reliable: true,
            },
            Scheme::Secded { .. } => {
                let corrupted = Self::corrupt_slice(row_faults, written);
                let error_bits = (corrupted ^ written).count_ones();
                if error_bits <= 1 {
                    ObservedWord::intact(written)
                } else {
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
                let corrupted = Self::corrupt_slice(row_faults, written);
                let unprotected_bits = word_bits - protected_bits;
                let msb_mask = if *word_bits == 64 && unprotected_bits == 0 {
                    u64::MAX
                } else {
                    (((1u64 << protected_bits) - 1) << unprotected_bits) & ((1u64 << word_bits) - 1)
                };
                let msb_errors = ((corrupted ^ written) & msb_mask).count_ones();
                if msb_errors <= 1 {
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
            Scheme::BitShuffle(geometry) => {
                let x_fm = if let [single] = row_faults {
                    // Single-fault rows (the common case at realistic fault
                    // densities) skip the column gather entirely.
                    geometry.segment_of_bit(single.col)
                } else {
                    // Gather the (already sorted) columns into a stack buffer
                    // for the FM-LUT vote; a word has at most 64 columns, so a
                    // longer slice is malformed input — fall back to the
                    // generic path.
                    let mut columns = [0usize; 64];
                    if row_faults.len() > columns.len() {
                        return None;
                    }
                    for (slot, fault) in columns.iter_mut().zip(row_faults) {
                        *slot = fault.col;
                    }
                    FmLut::choose_shift(*geometry, &columns[..row_faults.len()])
                };
                let shift = geometry
                    .shift_amount(x_fm)
                    .expect("choose_shift returns a valid segment index");
                let stored = rotate_right(written, shift, geometry.word_bits());
                let corrupted = Self::corrupt_slice(row_faults, stored);
                ObservedWord {
                    value: rotate_left(corrupted, shift, geometry.word_bits()),
                    reliable: true,
                }
            }
        })
    }

    fn observe_block(
        &self,
        cells: &[LaneCell],
        written: u64,
        residual: &mut ResidualLanes,
    ) -> bool {
        self.observe_block_lanes(cells, written, residual)
    }

    fn observe_block_wide(
        &self,
        cells: &[LaneCell<W256>],
        written: u64,
        residual: &mut ResidualLanes<W256>,
    ) -> bool {
        self.observe_block_lanes(cells, written, residual)
    }

    fn worst_case_error_magnitude(&self, bit: usize) -> u64 {
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
            Scheme::BitShuffle(geometry) => {
                crate::error_magnitude::worst_case_error_magnitude(*geometry, bit)
            }
        }
    }

    fn extra_bits_per_row(&self) -> usize {
        match self {
            Scheme::Unprotected { .. } => 0,
            Scheme::Secded { word_bits } => Self::secded_code(*word_bits).parity_bits(),
            Scheme::PriorityEcc { protected_bits, .. } => {
                Self::secded_code(*protected_bits).parity_bits()
            }
            Scheme::BitShuffle(geometry) => geometry.n_fm(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_memsim::{Fault, MemoryConfig};

    fn map(faults: &[Fault]) -> FaultMap {
        let config = MemoryConfig::new(16, 32).unwrap();
        FaultMap::from_faults(config, faults.iter().copied()).unwrap()
    }

    #[test]
    fn scheme_names_match_paper_terminology() {
        assert_eq!(Scheme::unprotected32().name(), "no-correction");
        assert_eq!(Scheme::secded32().name(), "H(39,32) SECDED");
        assert!(Scheme::pecc32().name().contains("H(22,16) P-ECC"));
        assert_eq!(Scheme::shuffle32(3).unwrap().name(), "bit-shuffle nFM=3");
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
    fn observed_word_signed_error_handles_twos_complement() {
        let observed = ObservedWord {
            value: 0xFFFF_FFFF, // -1 as a 32-bit integer
            reliable: true,
        };
        assert_eq!(observed.signed_error(0, 32), -1);
        let observed = ObservedWord {
            value: 0x8000_0000, // most negative 32-bit integer
            reliable: true,
        };
        assert_eq!(observed.signed_error(0, 32), -(1i64 << 31));
        let observed = ObservedWord {
            value: 5,
            reliable: true,
        };
        assert_eq!(observed.signed_error(3, 32), 2);
    }

    #[test]
    fn observe_sparse_matches_observe_for_every_scheme() {
        // The sparse contract: Some(answer) must equal the generic path on
        // the map whose row slice was passed in — for every catalogue
        // scheme, every kind mix, and both sparse and dense rows.
        let cases: Vec<Vec<Fault>> = vec![
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
        let mut schemes = Scheme::fig5_catalogue();
        schemes.push(Scheme::secded32());
        for faults in &cases {
            let map = map(faults);
            let slice = map.row_faults(0);
            for scheme in &schemes {
                for &written in &[0u64, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001] {
                    assert_eq!(
                        scheme.observe_sparse(slice, written),
                        Some(scheme.observe(&map, 0, written)),
                        "{} written={written:#x} faults={faults:?}",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn observe_sparse_default_falls_back() {
        // A custom scheme that does not opt in keeps the default `None`.
        struct Passthrough;
        impl MitigationScheme for Passthrough {
            fn name(&self) -> String {
                "passthrough".to_owned()
            }
            fn word_bits(&self) -> usize {
                32
            }
            fn observe(&self, _: &FaultMap, _: usize, written: u64) -> ObservedWord {
                ObservedWord::intact(written)
            }
            fn worst_case_error_magnitude(&self, _: usize) -> u64 {
                0
            }
            fn extra_bits_per_row(&self) -> usize {
                0
            }
        }
        assert_eq!(Passthrough.observe_sparse(&[], 7), None);
        // The blanket `&T` impl forwards the concrete scheme's fast path.
        let scheme = Scheme::unprotected32();
        let by_ref: &dyn MitigationScheme = &scheme;
        assert_eq!(
            (&by_ref).observe_sparse(&[Fault::bit_flip(0, 3)], 0),
            Some(ObservedWord {
                value: 1 << 3,
                reliable: true
            })
        );
    }

    #[test]
    fn observe_block_matches_observe_sparse_for_every_scheme() {
        // Build a 64-die row population with a deterministic LCG, transpose
        // it into lane cells by hand, and require the residual of every die
        // to equal `written ^ observe_sparse(...).value` bit for bit —
        // covering single-fault dies, fault-heavy dies, silent stuck cells
        // and fault-free dies in the same block.
        let mut state = 0xB10C_5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut schemes = Scheme::fig5_catalogue();
        schemes.push(Scheme::secded32());
        for round in 0..8u64 {
            // Die j gets j % 5 faults (die 0 stays fault-free on purpose).
            let mut dies: Vec<Vec<Fault>> = Vec::new();
            for die in 0..64usize {
                let mut faults: Vec<Fault> = Vec::new();
                for _ in 0..die % 5 {
                    let col = (next() as usize) % 32;
                    if faults.iter().any(|f| f.col == col) {
                        continue;
                    }
                    let kind = match next() % 3 {
                        0 => FaultKind::StuckAtZero,
                        1 => FaultKind::StuckAtOne,
                        _ => FaultKind::BitFlip,
                    };
                    faults.push(Fault::new(0, col, kind));
                }
                faults.sort_by_key(|f| f.col);
                dies.push(faults);
            }
            // Hand-rolled transposition into sorted lane cells.
            let mut cells: Vec<LaneCell> = Vec::new();
            for col in 0..32u32 {
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
                for &written in &[0u64, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001] {
                    let mut residual = ResidualLanes::new();
                    assert!(scheme.observe_block(&cells, written, &mut residual));
                    for (die, faults) in dies.iter().enumerate() {
                        let observed = scheme
                            .observe_sparse(faults, written)
                            .expect("catalogue schemes have a sparse path");
                        assert_eq!(
                            residual.gather_die(die),
                            written ^ observed.value,
                            "round {round}, {}, die {die}, written {written:#x}, faults {faults:?}",
                            scheme.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn observe_block_wide_matches_observe_sparse_for_every_scheme() {
        // The 256-die twin of the block equivalence test: dies 64.. live in
        // the upper W256 words, so every lane fold must cross u64 word
        // boundaries without mixing dies.
        let mut state = 0x51DE_B10Cu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut schemes = Scheme::fig5_catalogue();
        schemes.push(Scheme::secded32());
        for round in 0..4u64 {
            // Die j gets j % 5 faults (die 0 stays fault-free on purpose).
            let mut dies: Vec<Vec<Fault>> = Vec::new();
            for die in 0..256usize {
                let mut faults: Vec<Fault> = Vec::new();
                for _ in 0..die % 5 {
                    let col = (next() as usize) % 32;
                    if faults.iter().any(|f| f.col == col) {
                        continue;
                    }
                    let kind = match next() % 3 {
                        0 => FaultKind::StuckAtZero,
                        1 => FaultKind::StuckAtOne,
                        _ => FaultKind::BitFlip,
                    };
                    faults.push(Fault::new(0, col, kind));
                }
                faults.sort_by_key(|f| f.col);
                dies.push(faults);
            }
            // Hand-rolled transposition into sorted wide lane cells.
            let mut cells: Vec<LaneCell<W256>> = Vec::new();
            for col in 0..32u32 {
                let mut cell = LaneCell {
                    col,
                    flips: W256::ZERO,
                    stuck: W256::ZERO,
                    stuck_value: W256::ZERO,
                };
                for (die, faults) in dies.iter().enumerate() {
                    for fault in faults.iter().filter(|f| f.col == col as usize) {
                        let bit = W256::lane_bit(die);
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
                if !cell.presence().is_zero() {
                    cells.push(cell);
                }
            }
            for scheme in &schemes {
                for &written in &[0u64, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001] {
                    let mut residual = ResidualLanes::<W256>::new();
                    assert!(scheme.observe_block_wide(&cells, written, &mut residual));
                    for (die, faults) in dies.iter().enumerate() {
                        let observed = scheme
                            .observe_sparse(faults, written)
                            .expect("catalogue schemes have a sparse path");
                        assert_eq!(
                            residual.gather_die(die),
                            written ^ observed.value,
                            "round {round}, {}, die {die}, written {written:#x}, faults {faults:?}",
                            scheme.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_lane_dispatch_routes_to_the_width_observer() {
        // BlockLane::observe_block_on must hit observe_block at u64 and
        // observe_block_wide at W256 — including through &dyn references.
        let scheme = Scheme::unprotected32();
        let narrow = LaneCell::<u64> {
            col: 3,
            flips: 0b1,
            stuck: 0,
            stuck_value: 0,
        };
        let mut residual = ResidualLanes::<u64>::new();
        assert!(<u64 as BlockLane>::observe_block_on(
            &scheme,
            &[narrow],
            0,
            &mut residual
        ));
        assert_eq!(residual.gather_die(0), 1 << 3);
        let wide = LaneCell::<W256> {
            col: 5,
            flips: W256::lane_bit(200),
            stuck: W256::ZERO,
            stuck_value: W256::ZERO,
        };
        let mut residual = ResidualLanes::<W256>::new();
        let by_ref: &dyn MitigationScheme = &scheme;
        assert!(<W256 as BlockLane>::observe_block_on(
            by_ref,
            &[wide],
            0,
            &mut residual
        ));
        assert_eq!(residual.gather_die(200), 1 << 5);
    }

    #[test]
    fn observe_block_default_falls_back() {
        struct Passthrough;
        impl MitigationScheme for Passthrough {
            fn name(&self) -> String {
                "passthrough".to_owned()
            }
            fn word_bits(&self) -> usize {
                32
            }
            fn observe(&self, _: &FaultMap, _: usize, written: u64) -> ObservedWord {
                ObservedWord::intact(written)
            }
            fn worst_case_error_magnitude(&self, _: usize) -> u64 {
                0
            }
            fn extra_bits_per_row(&self) -> usize {
                0
            }
        }
        let mut residual = ResidualLanes::new();
        assert!(!Passthrough.observe_block(&[], 0, &mut residual));
        let mut wide_residual = ResidualLanes::<W256>::new();
        assert!(!Passthrough.observe_block_wide(&[], 0, &mut wide_residual));
        // The blanket `&T` impl forwards the concrete scheme's block path.
        let scheme = Scheme::unprotected32();
        let by_ref: &dyn MitigationScheme = &scheme;
        let cell = LaneCell {
            col: 3,
            flips: 0b1,
            stuck: 0,
            stuck_value: 0,
        };
        assert!((&by_ref).observe_block(&[cell], 0, &mut residual));
        assert_eq!(residual.gather_die(0), 1 << 3);
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
